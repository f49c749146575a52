"""Scenario harness and CLI: configs, reports, exit codes, file outputs."""

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from isobispec.cli import main
from isobispec.harness import (RunConfig, lambda_validation_grid,
                               parse_h_spec, rel_dev, run_crosscheck,
                               run_verify_remark2, run_verify_theorem1)

FAST = dict(grid_n=1024, n_eigs=6, nystrom_n=128)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.a_frac == Fraction(7, 20)
        assert cfg.tol("crosscheck") == 1e-7

    def test_tolerance_override(self):
        cfg = RunConfig(tolerances={"crosscheck": 1e-5})
        assert cfg.tol("crosscheck") == 1e-5
        assert cfg.tol("w0_zero") == 1e-7

    def test_delay_range_enforced(self):
        with pytest.raises(ValueError):
            RunConfig(a_frac=Fraction(1, 4))
        with pytest.raises(ValueError):
            RunConfig(a_frac=Fraction(2, 5))
        assert RunConfig(a_frac=Fraction(1, 3)).a_frac == Fraction(1, 3)

    def test_lambda_grid_shape(self):
        grid = lambda_validation_grid()
        assert grid.size == 40
        assert np.iscomplexobj(grid)
        assert (grid.imag != 0).sum() == 2


class TestHSpec:
    def test_const(self):
        f = parse_h_spec("const:2.5")
        assert np.allclose(f(np.array([3.0])), 2.5)

    def test_sin(self):
        f = parse_h_spec("sin:2")
        assert np.allclose(f(np.array([0.7])), np.sin(1.4))

    def test_linear(self):
        f = parse_h_spec("linear:1,0.5")
        assert np.allclose(f(np.array([2.0])), 2.0)

    def test_csv(self, tmp_path):
        p = tmp_path / "h.csv"
        xs = np.linspace(2.7, 3.2, 50)
        with open(p, "w") as fh:
            fh.write("x,re\n")
            for x in xs:
                fh.write(f"{x},{x * 0.5}\n")
        f = parse_h_spec(f"csv:{p}")
        assert np.allclose(f(np.array([3.0])), 1.5, atol=1e-3)
        with pytest.raises(ValueError):
            f(np.array([0.1]))

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_h_spec("cubic:1")


class TestScenarios:
    def test_theorem1_passes(self):
        rep = run_verify_theorem1(RunConfig(**FAST))
        assert rep.verdict
        names = [c.name for c in rep.checks]
        assert "delta_invariance" in names
        assert "spectrum_invariance" in names
        assert "crosscheck" in names

    def test_theorem1_single_alpha_trivially_passes(self):
        rep = run_verify_theorem1(RunConfig(alphas=(0,), **FAST))
        assert rep.verdict

    def test_negative_control_fails(self):
        rep = run_verify_theorem1(RunConfig(skip_normalize=True,
                                            alphas=(0, 1), **FAST))
        assert not rep.verdict
        inv = {c.name: c for c in rep.checks}["delta_invariance"]
        assert inv.measured >= 1e-3

    def test_remark2_passes(self):
        rep = run_verify_remark2(RunConfig(eigsign=-1, alphas=(0, 1, -1),
                                           **FAST))
        assert rep.verdict
        split = {c.name: c for c in rep.checks}["theta_spectrum_split"]
        assert split.measured > 1e-4

    def test_crosscheck_passes(self):
        rep = run_crosscheck(RunConfig(**FAST))
        assert rep.verdict
        # the detail names the worst lambda and function
        checks = {c.name: c for c in rep.checks}
        assert re.fullmatch(r"lambda=\S+, (delta|theta)_[01]",
                            checks["crosscheck"].detail)
        # int w_0 is a quadrature of q + Q_0, not q itself: a zero here
        # would mean the check compares a value with itself
        om = checks["omega_vs_w0"]
        assert 0 < om.measured <= om.threshold

    def test_eigsign_guards(self):
        with pytest.raises(ValueError):
            run_verify_theorem1(RunConfig(eigsign=-1, **FAST))
        with pytest.raises(ValueError):
            run_verify_remark2(RunConfig(eigsign=+1, **FAST))

    def test_report_deterministic(self):
        cfg = RunConfig(alphas=(0, 1), **FAST)
        d1 = run_crosscheck(cfg).to_dict()
        d2 = run_crosscheck(cfg).to_dict()
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert d1 == d2

    def test_report_files(self, tmp_path):
        rep = run_crosscheck(RunConfig(**FAST))
        p_json = rep.write(tmp_path, "json")
        data = json.loads(p_json.read_text())
        assert data["schema"] == 1
        assert data["verdict"] == "PASS"
        p_csv = rep.write(tmp_path, "csv")
        assert p_csv.read_text().startswith("name,")


class TestRelDev:
    def test_floor(self):
        assert rel_dev(0.0, 1e-9) == 1e-9
        assert rel_dev(100.0, 100.0 + 1e-5) == pytest.approx(1e-7, rel=1e-2)


class TestCli:
    def test_verify_theorem1_exit_zero(self, tmp_path):
        rc = main(["verify-theorem1", "--grid-n", "1024", "--n-eigs", "4",
                   "--nystrom-n", "128", "--alpha", "0", "--alpha", "2",
                   "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "verify-theorem1.json").exists()

    def test_negative_control_exit_one(self, tmp_path):
        rc = main(["verify-theorem1", "--grid-n", "1024", "--n-eigs", "4",
                   "--nystrom-n", "128", "--alpha", "0", "--alpha", "1",
                   "--skip-normalize", "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 1

    def test_remark2(self, tmp_path):
        rc = main(["verify-remark2", "--grid-n", "1024", "--n-eigs", "4",
                   "--nystrom-n", "128", "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0

    def test_spectrum_json(self, tmp_path):
        rc = main(["spectrum", "--grid-n", "1024", "--n-eigs", "3",
                   "--alpha", "1", "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        recs = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(recs) == 6          # 3 zeros x 2 boundary conditions
        assert {r["j"] for r in recs} == {0, 1}
        assert all(r["certified"] for r in recs)

    def test_charfn_csv(self, tmp_path):
        rc = main(["charfn", "--grid-n", "1024", "--which", "delta1",
                   "--lam-count", "20", "--alpha", "1",
                   "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        lines = (tmp_path / "charfn_delta1.csv").read_text().splitlines()
        assert lines[0] == "re_lambda,im_lambda,re_val,im_val"
        assert len(lines) == 21

    def test_family_outputs(self, tmp_path):
        rc = main(["family", "--grid-n", "1024", "--alpha", "1",
                   "--alpha", "0.5,1.5", "--out-dir", str(tmp_path),
                   "--quiet"])
        assert rc == 0
        reps = json.loads((tmp_path / "family_report.json").read_text())
        assert len(reps) == 2
        csvs = list(Path(tmp_path).glob("q_alpha_*.csv"))
        assert len(csvs) == 2

    def test_eig_dump(self, tmp_path):
        rc = main(["eig", "--grid-n", "1024", "--nystrom-n", "64",
                   "--no-matrix", "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        rep = json.loads((tmp_path / "eigenpair.json").read_text())
        assert rep["residual"] <= 1e-8
        assert "kernel_matrix" not in rep

    def test_grid_too_coarse_exit_two(self, tmp_path):
        rc = main(["crosscheck", "--grid-n", "256",
                   "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 2

    def test_delay_out_of_range_exit_two(self, tmp_path, capsys):
        for cmd in ("crosscheck", "spectrum", "charfn", "family", "eig"):
            rc = main([cmd, "--a-frac", "1/4", "--out-dir", str(tmp_path),
                       "--quiet"])
            assert rc == 2
            assert "outside [1/3, 2/5)" in capsys.readouterr().err

    def test_tol_flag(self, tmp_path):
        rc = main(["crosscheck", "--grid-n", "1024",
                   "--tol", "crosscheck=1e-12",
                   "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 1                 # impossible tolerance must fail

    def test_bad_h_spec_exit_two(self, tmp_path, capsys):
        # checked while the arguments are parsed: argparse exits with 2
        for spec in ("cubic:1", f"csv:{tmp_path / 'missing.csv'}", "const:x"):
            with pytest.raises(SystemExit) as exc:
                main(["crosscheck", "--h", spec, "--out-dir", str(tmp_path),
                      "--quiet"])
            assert exc.value.code == 2
            assert "argument --h" in capsys.readouterr().err

    def test_short_csv_seed_exit_two(self, tmp_path, capsys):
        # parses, but does not cover [5a/2, pi]: refused when the family is
        # built, with a one-line message
        path = tmp_path / "short.csv"
        path.write_text("x,re\n0,1\n1,1\n")
        rc = main(["crosscheck", "--h", f"csv:{path}", "--out-dir",
                   str(tmp_path), "--quiet"])
        assert rc == 2
        assert "csv seed covers" in capsys.readouterr().err

    def test_theorem1_fixes_its_eigsign(self, tmp_path):
        rc = main(["verify-theorem1", "--eigsign", "-1", "--grid-n", "1024",
                   "--n-eigs", "4", "--nystrom-n", "128", "--alpha", "2",
                   "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        rep = json.loads((tmp_path / "verify-theorem1.json").read_text())
        assert rep["environment"]["config"]["eigsign"] == 1
