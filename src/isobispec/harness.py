"""End-to-end verification scenarios with machine-readable reports.

Three scenarios are exposed:

* ``run_verify_theorem1``: family with eigensign +1; checks the structural
  collapse of the transformed potential w_0, the invariance of delta_0/1
  over a lambda grid and of their first zeros across the family parameter,
  and the closed-form-vs-shooting agreement.
* ``run_verify_remark2``: family with eigensign -1; checks w_1 invariance,
  the affine omega channel with slope 2*int(e), the theta difference
  identities, and that the Robin-side spectra actually split.
* ``run_crosscheck``: all four characteristic functions against the
  shooting oracle over the validation grid.

Reports are deterministic for a fixed RunConfig: check ordering is fixed
and the only time-dependent field is an isolated timestamp.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import charfn, potential, shooting, spectra
from .errors import DelayOutOfRange, OutOfSupport
from .grid import PI, norm_l2, read_xy_csv

SCHEMA_VERSION = 1

TOLERANCES: dict[str, float] = {
    "eig_residual": 1e-7,
    "w0_zero": 1e-7,
    "w0_matches_h": 1e-7,
    "delta_invariance": 1e-7,
    "spectrum_invariance": 1e-7,
    "omega_vs_w0": 1e-7,
    "q_route_equiv": 1e-6,
    "crosscheck": 1e-7,
    "w1_invariance": 1e-7,
    "omega_slope": 1e-8,
    "omega_affine_fit": 1e-10,
    "theta0_identity": 1e-8,
    "theta1_identity": 1e-8,
    "theta_spectrum_split": 1e-4,
    "w0_varies_floor": 0.1,
}


def lambda_validation_grid() -> np.ndarray:
    """38 real points on [-5, 120] plus two genuinely complex ones."""
    return np.concatenate([np.linspace(-5.0, 120.0, 38),
                           np.array([3 + 4j, -2 - 7j])]).astype(complex)


def rel_dev(a, b) -> float:
    """|a-b| normalized with a unit floor (safe near zeros)."""
    a = complex(a)
    b = complex(b)
    return abs(a - b) / max(1.0, abs(a), abs(b))


def max_workers() -> int:
    """Always 1: the scenarios run serially, since a thread pool measured
    slower and larger on every scenario.  Kept for the benchmark, which
    records it, and for the schema-1 report field ``environment.threads``."""
    return 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_h_spec(spec: str):
    """Seed-function factory from a spec string.

    Supported: ``const:C``, ``sin:FREQ``, ``linear:C0,C1`` (C0 + C1*x) and
    ``csv:PATH`` (columns x,re covering [5a/2, pi]).
    """
    kind, _, arg = spec.partition(":")
    if kind == "const":
        c = float(arg or "1")
        return lambda x: np.full_like(x, c)
    if kind == "sin":
        freq = float(arg or "1")
        return lambda x: np.sin(freq * x)
    if kind == "linear":
        parts = [float(p) for p in arg.split(",")] if arg else [1.0, 0.0]
        c0, c1 = (parts + [0.0])[:2]
        return lambda x: c0 + c1 * x
    if kind == "csv":
        xs, vals = read_xy_csv(arg)
        if np.iscomplexobj(vals):
            raise ValueError("seed h must be real-valued")

        def interp(x):
            if x.size and (x.min() < xs[0] - 1e-9 or x.max() > xs[-1] + 1e-9):
                raise OutOfSupport(
                    f"csv seed covers [{xs[0]:.4g},{xs[-1]:.4g}], need "
                    f"[{x.min():.4g},{x.max():.4g}]")
            return np.interp(x, xs, vals)

        return interp
    raise ValueError(f"unknown h spec {spec!r} (const|sin|linear|csv)")


@dataclass
class RunConfig:
    """Scenario configuration (defaults are the reference fixture)."""

    a_frac: Fraction = Fraction(7, 20)
    h_spec: str = "const:1"
    eigsign: int = +1
    alphas: tuple[complex, ...] = (0, 1, -2, 0.5 + 1.5j)
    grid_n: int = 2048
    nystrom_n: int = 256
    n_eigs: int = 15
    tolerances: dict = field(default_factory=dict)
    out: str = "json"
    out_dir: str | None = None
    skip_normalize: bool = False

    def __post_init__(self):
        self.a_frac = Fraction(self.a_frac)
        if not Fraction(1, 3) <= self.a_frac < Fraction(2, 5):
            raise DelayOutOfRange(f"a_frac={self.a_frac} outside [1/3, 2/5)")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCES[name]))

    def make_family(self, eigsign: int | None = None) -> potential.FamilySpec:
        return potential.make_family(
            a_frac=self.a_frac, h_fn=parse_h_spec(self.h_spec),
            eigsign=self.eigsign if eigsign is None else eigsign,
            grid_n=self.grid_n, nystrom_n=self.nystrom_n,
            skip_normalize=self.skip_normalize)

    def describe(self) -> dict:
        return {
            "a_frac": str(self.a_frac),
            "a": float(self.a_frac) * PI,
            "h_spec": self.h_spec,
            "eigsign": self.eigsign,
            "alphas": [[complex(a).real, complex(a).imag] for a in self.alphas],
            "grid_n_requested": self.grid_n,
            "nystrom_n": self.nystrom_n,
            "n_eigs": self.n_eigs,
            "skip_normalize": self.skip_normalize,
        }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    measured: float
    threshold: float
    passed: bool
    comparison: str = "<="
    detail: str = ""


@dataclass
class VerificationReport:
    scenario: str
    checks: list[Check]
    environment: dict
    verdict: bool
    flags: list[str] = field(default_factory=list)

    @classmethod
    def assemble(cls, scenario: str, checks: list[Check], environment: dict,
                 flags: list[str] | None = None) -> "VerificationReport":
        return cls(scenario=scenario, checks=checks, environment=environment,
                   verdict=all(c.passed for c in checks), flags=flags or [])

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "verdict": "PASS" if self.verdict else "FAIL",
            "checks": [asdict(c) for c in self.checks],
            "environment": self.environment,
            "flags": self.flags,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }

    def write(self, out_dir: str | Path, fmt: str = "json") -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            path = out_dir / f"{self.scenario}.json"
            path.write_text(json.dumps(self.to_dict(), indent=2))
        elif fmt == "csv":
            path = out_dir / f"{self.scenario}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                wr = csv.writer(fh)
                wr.writerow(["name", "measured", "threshold", "comparison",
                             "passed", "detail"])
                for c in self.checks:
                    wr.writerow([c.name, f"{c.measured:.17g}",
                                 f"{c.threshold:.17g}", c.comparison,
                                 c.passed, c.detail])
        else:
            raise ValueError(f"unknown output format {fmt!r}")
        return path

    def summary(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for c in self.checks:
            lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: "
                         f"{c.measured:.3e} {c.comparison} {c.threshold:.3e}"
                         + (f"  ({c.detail})" if c.detail else ""))
        for fl in self.flags:
            lines.append(f"  [flag] {fl}")
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


def _check_le(name, measured, threshold, detail="") -> Check:
    return Check(name=name, measured=float(measured), threshold=float(threshold),
                 passed=bool(measured <= threshold), comparison="<=",
                 detail=detail)


def _check_ge(name, measured, threshold, detail="") -> Check:
    return Check(name=name, measured=float(measured), threshold=float(threshold),
                 passed=bool(measured >= threshold), comparison=">=",
                 detail=detail)


def _alpha_label(alpha: complex) -> str:
    a = complex(alpha)
    if a.imag == 0:
        return f"{a.real:g}"
    return f"{a.real:g}{a.imag:+g}i"


def _environment(cfg: RunConfig, fam: potential.FamilySpec) -> dict:
    return {
        "config": cfg.describe(),
        "grid_panels": fam.grid.n_panels,
        "grid_step": fam.grid.step,
        "eig_residual": fam.eig_residual,
        "int_e": fam.int_e,
        "omega_h": float(np.real(fam.h.integrate())),
        "threads": max_workers(),
    }


# ---------------------------------------------------------------------------
# scenario: theorem 1
# ---------------------------------------------------------------------------

def run_verify_theorem1(cfg: RunConfig) -> VerificationReport:
    """Family-B pipeline: w_0 collapse, delta invariance, spectra invariance,
    and the shooting crosscheck."""
    if cfg.eigsign != +1:
        raise ValueError("theorem-1 scenario requires eigsign +1")
    fam = cfg.make_family(+1)
    grid = fam.grid
    checks: list[Check] = []
    checks.append(_check_le("eig_residual", fam.eig_residual,
                            cfg.tol("eig_residual")))

    alphas = list(dict.fromkeys([0j] + [complex(a) for a in cfg.alphas]))
    pots = {a: potential.build_potential(fam, a) for a in alphas}
    evals = {a: charfn.make_evaluator(pots[a]) for a in alphas}

    # stage: w0 structural collapse
    a_x = grid.x(grid.idx_a)
    x_52 = grid.x(grid.idx_5a2)
    h_ref = pots[0j].fn.restrict(grid.idx_a, grid.n_panels)
    for a in alphas:
        w0 = evals[a].w0.w
        checks.append(_check_le(
            f"w0_zero[alpha={_alpha_label(a)}]",
            norm_l2(w0, a_x, x_52), cfg.tol("w0_zero")))
        checks.append(_check_le(
            f"w0_matches_h[alpha={_alpha_label(a)}]",
            norm_l2(w0 - h_ref, x_52, PI), cfg.tol("w0_matches_h")))

    # stage: delta invariance over the lambda grid
    lams = lambda_validation_grid()
    base = {j: charfn.eval_delta(evals[0j], j, lams) for j in (0, 1)}
    worst = 0.0
    for a in alphas:
        if a == 0:
            continue
        for j in (0, 1):
            vals = charfn.eval_delta(evals[a], j, lams)
            dev = np.abs(vals - base[j]) / (
                1.0 + np.maximum(np.abs(vals), np.abs(base[j])))
            worst = max(worst, float(dev.max()))
    checks.append(_check_le("delta_invariance", worst,
                            cfg.tol("delta_invariance"),
                            detail="max over lambda grid, j, alpha"))

    # stage: spectra invariance
    res = {(a, j): spectra.find_spectrum(evals[a], j, cfg.n_eigs)
           for a in alphas for j in (0, 1)}
    worst_sp = 0.0
    all_certified = True
    all_complete = True
    for j in (0, 1):
        ref = res[(0j, j)]
        for a in alphas:
            sp = res[(a, j)]
            all_certified &= all(sp.certified)
            all_complete &= sp.complete
            if len(sp.eigenvalues) != len(ref.eigenvalues):
                worst_sp = math.inf
                continue
            for z1, z2 in zip(sp.eigenvalues, ref.eigenvalues):
                worst_sp = max(worst_sp, abs(z1 - z2))
    checks.append(_check_le("spectrum_invariance", worst_sp,
                            cfg.tol("spectrum_invariance"),
                            detail=f"first {cfg.n_eigs} zeros, both j"))
    checks.append(_check_ge("spectra_certified", float(all_certified), 1.0))
    checks.append(_check_ge("spectra_complete", float(all_complete), 1.0,
                            detail="every strip holds its winding count"))

    # stage: crosscheck against the shooting oracle
    a_cross = next((a for a in alphas if a != 0), 0j)
    checks.append(_crosscheck_check(pots[a_cross], evals[a_cross], lams,
                                    cfg.tol("crosscheck")))

    env = _environment(cfg, fam)
    env["crosscheck_alpha"] = _alpha_label(a_cross)
    return VerificationReport.assemble("verify-theorem1", checks, env)


def _crosscheck_check(q, ev, lams, tol) -> Check:
    worst = 0.0
    worst_at = ""
    for lam in lams:
        d = shooting.char_values(q, lam)
        c = (charfn.eval_delta(ev, 0, lam), charfn.eval_delta(ev, 1, lam),
             charfn.eval_theta(ev, 0, lam), charfn.eval_theta(ev, 1, lam))
        dev = max(rel_dev(x, y) for x, y in zip(d, c))
        if dev > worst:
            worst, worst_at = dev, f"lambda={lam:.6g}"
    return _check_le("crosscheck", worst, tol, detail=worst_at)


# ---------------------------------------------------------------------------
# scenario: remark 2
# ---------------------------------------------------------------------------

def run_verify_remark2(cfg: RunConfig) -> VerificationReport:
    """Family-B1 pipeline: w_1 invariance, affine omega channel, theta
    difference identities, and the Robin-side spectral split."""
    if cfg.eigsign != -1:
        raise ValueError("remark-2 scenario requires eigsign -1")
    fam = cfg.make_family(-1)
    grid = fam.grid
    checks: list[Check] = []
    flags: list[str] = []
    checks.append(_check_le("eig_residual", fam.eig_residual,
                            cfg.tol("eig_residual")))

    alphas = list(dict.fromkeys(
        [0j, 1 + 0j, -1 + 0j] + [complex(a) for a in cfg.alphas]))
    pots = {a: potential.build_potential(fam, a) for a in alphas}
    evals = {a: charfn.make_evaluator(pots[a]) for a in alphas}

    # stage: w1 alpha-invariance (and w0 must NOT be invariant)
    w1_dev = max(norm_l2(evals[a].w1.w - evals[0j].w1.w) for a in alphas)
    checks.append(_check_le("w1_invariance", w1_dev, cfg.tol("w1_invariance")))
    w0_dev = norm_l2(evals[1 + 0j].w0.w - evals[0j].w0.w)
    checks.append(_check_ge("w0_varies", w0_dev, cfg.tol("w0_varies_floor"),
                            detail="k=0 branch picks up 2*alpha*e"))

    # stage: omega channel
    if fam.degenerate:
        flags.append(f"DegenerateFamily: |int e| = {abs(fam.int_e):.3e} < 1e-10;"
                     " omega channel vanishes, theta split not asserted")
    om = {a: potential.omega(pots[a]) for a in alphas}
    slope_err = abs(om[1 + 0j] - om[-1 + 0j] - 4.0 * fam.int_e)
    checks.append(_check_le("omega_slope", slope_err, cfg.tol("omega_slope"),
                            detail="|omega(p_1)-omega(p_-1)-4*int e|"))
    fit_alphas = [a for a in alphas if a.imag == 0][:4]
    A = np.array([[1.0, a.real] for a in fit_alphas])
    y = np.array([complex(om[a]).real for a in fit_alphas])
    coef, res_, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit_resid = float(np.abs(A @ coef - y).max())
    checks.append(_check_le("omega_affine_fit", fit_resid,
                            cfg.tol("omega_affine_fit"),
                            detail=f"slope={coef[1]:.9g}, 2*int e={2*fam.int_e:.9g}"))

    # stage: theta difference identities on the lambda grid
    lams = lambda_validation_grid()
    rho = np.sqrt(lams.astype(complex))
    a_val = fam.a
    dw = complex(om[1 + 0j] - om[-1 + 0j])
    lhs0 = (charfn.eval_theta(evals[1 + 0j], 0, lams)
            - charfn.eval_theta(evals[-1 + 0j], 0, lams))
    rhs0 = dw * np.sin(rho * (PI - a_val)) / (2 * rho)
    checks.append(_check_le("theta0_identity", float(np.abs(lhs0 - rhs0).max()),
                            cfg.tol("theta0_identity"),
                            detail="pointwise on the lambda grid"))
    lhs1 = (charfn.eval_theta(evals[1 + 0j], 1, lams)
            - charfn.eval_theta(evals[-1 + 0j], 1, lams))
    rhs1 = (dw / 2.0) * np.cos(rho * (PI - a_val))
    dev1 = np.abs(lhs1 - rhs1) / (1.0 + np.maximum(np.abs(lhs1), np.abs(rhs1)))
    checks.append(_check_le("theta1_identity", float(dev1.max()),
                            cfg.tol("theta1_identity"),
                            detail="normalized (cosh growth at complex lambda)"))

    # stage: the Robin-side spectra must actually differ across alpha
    n_split = min(cfg.n_eigs, 8)
    sp1 = spectra.find_spectrum(evals[1 + 0j], 0, n_split, which="theta")
    sp2 = spectra.find_spectrum(evals[-1 + 0j], 0, n_split, which="theta")
    n_common = min(len(sp1.eigenvalues), len(sp2.eigenvalues))
    split = max((abs(z1 - z2) for z1, z2 in
                 zip(sp1.eigenvalues[:n_common], sp2.eigenvalues[:n_common])),
                default=0.0)
    if fam.degenerate:
        flags.append(f"theta_spectrum_split measured {split:.3e} (not asserted)")
    else:
        checks.append(_check_ge("theta_spectrum_split", split,
                                cfg.tol("theta_spectrum_split"),
                                detail=f"theta_0 zeros, alpha=+1 vs -1, "
                                       f"n<={n_split}"))

    env = _environment(cfg, fam)
    return VerificationReport.assemble("verify-remark2", checks, env, flags)


# ---------------------------------------------------------------------------
# scenario: crosscheck
# ---------------------------------------------------------------------------

def run_crosscheck(cfg: RunConfig) -> VerificationReport:
    """Closed-form characteristic functions against the shooting oracle."""
    fam = cfg.make_family()
    alphas = [complex(a) for a in cfg.alphas]
    a_cross = next((a for a in alphas if a != 0), 1 + 0j)
    q = potential.build_potential(fam, a_cross)
    ev = charfn.make_evaluator(q)
    lams = lambda_validation_grid()
    checks = [_crosscheck_check(q, ev, lams, cfg.tol("crosscheck"))]

    # route agreement for the transformed potential on the same fixture; the
    # reordered pair is the one the evaluator was built from
    q_orig = charfn.compute_Q(q, "original")
    for k in (0, 1):
        checks.append(_check_le(f"q_route_equiv[k={k}]",
                                norm_l2(ev.Q[k] - q_orig[k]),
                                cfg.tol("q_route_equiv")))
    checks.append(_check_le(
        "omega_vs_w0", abs(complex(ev.omega) - complex(potential.omega(q))),
        cfg.tol("omega_vs_w0")))

    env = _environment(cfg, fam)
    env["crosscheck_alpha"] = _alpha_label(a_cross)
    return VerificationReport.assemble("crosscheck", checks, env)
