"""Smoke test of the benchmark; run from the repository root with

    python3 -m pytest bench/test_smoke.py

Each workload runs at minimal length (a warm-up verdict plus one measured
verdict, two in the traced run).  The test checks that every metric of
BENCHMARK.json is emitted with its unit, that the seed decides the alpha
values, that the point accounting of the traced run adds up, and that the
benchmark refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SEED = 7


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_minimal_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(SEED),
                "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace == 0 else 3)

    expected = ({m["name"]: m["unit"] for m in spec.END_TO_END} if trace == 0
                else {n: u for n, u, _ in spec.PER_LAYER})
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == expected
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    if trace == 0:
        assert all(metrics[m["name"]]["value"] != 0 for m in spec.END_TO_END)
    else:
        points = sum(metrics[f"spectra.points.{p}"]["value"]
                     for p in ("newton", "contour", "hunt"))
        assert (points + metrics["harness.direct_points"]["value"]
                == metrics["charfn.eval_points"]["value"])

    verdicts = [ln for ln in lines if ln.startswith("verdict ")]
    assert len(verdicts) == result["attempted"]
    for ln in verdicts:
        index = int(ln.split()[1])
        alphas = json.loads(ln.split(" alphas ", 1)[1])
        assert [complex(*a) for a in alphas] == list(
            spec.workload_alphas(workload, SEED, index))


def test_seed_decides_alphas():
    for name in spec.WORKLOADS:
        assert (spec.workload_alphas(name, SEED, 0)
                == spec.workload_alphas(name, SEED, 0))
        assert (spec.workload_alphas(name, SEED, 0)
                != spec.workload_alphas(name, SEED + 1, 0))
        assert (spec.workload_alphas(name, SEED, 0)
                != spec.workload_alphas(name, SEED, 1))


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "remark2-ref", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
