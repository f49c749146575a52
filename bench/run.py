#!/usr/bin/env python3
"""isobispec benchmark: verdict latency, set-up time, memory and accuracy
margin of the verification scenarios.

Run from the repository root:

    python3 bench/run.py --workload theorem1-ref --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-spec          # regenerate BENCHMARK.json

One client in one process requests verdicts through the public scenario
API (``isobispec.harness.run_verify_theorem1`` / ``run_verify_remark2`` /
``run_crosscheck``) in a closed loop: each verdict starts after the
previous one returned.  One untimed warm-up verdict runs first, then
verdicts run until their wall times add up to ``--seconds``.  No thread
setting is changed, so the program's defaults are measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it alternates untraced and traced verdicts and
reports the per-layer metrics of ``tracer.py`` together with the tracing
overhead.  Every verdict is checked; a FAIL or an exception is counted in
``failed`` and its failing checks are printed.  The last line of standard
output is the JSON result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A check measured below double-precision roundoff cannot be resolved, so
# the margin of log10(threshold / measured) is taken at that floor.
_MEASURED_FLOOR = 2.0 ** -52

# Machine-speed reference: a fixed single-threaded numpy kernel that uses
# neither isobispec nor BLAS, timed after every verdict and set-up probe.
# The throughput of the shared 2-vCPU machine the benchmark was built on
# switches between states about 1.7x apart within seconds and drifts by
# 20-40% over minutes; times are reported at the speed at which the kernel
# takes REF_SECONDS (the machine's fast state).
_REF_X = np.linspace(0.0, 3.0, 1360)
_REF_RHO = np.linspace(1.0, 15.0, 200) + 0.3j
REF_SECONDS = 0.045


def reference_seconds() -> float:
    """Four times the median of five timings of the reference kernel."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.cos(_REF_RHO[:, None] * _REF_X[None, :]).sum()
        times.append(time.perf_counter() - t0)
    return 4.0 * statistics.median(times)


class MachineSpeed:
    """Times the reference kernel between measurements."""

    def __init__(self):
        self.refs = [reference_seconds()]

    def sample(self) -> float:
        """Time the kernel; return the scale factor of the measurement
        since the previous sample, from the kernel times around it."""
        self.refs.append(reference_seconds())
        return 2.0 * REF_SECONDS / (self.refs[-2] + self.refs[-1])

    def adjusted_mean(self, seconds: list[float]) -> float:
        """Mean of ``seconds`` at reference speed, scaled by the run's mean
        kernel time.  A verdict lasting several seconds spans several
        machine states, so the kernel times just around it do not tell its
        speed; the ratio of the two run means does."""
        return REF_SECONDS * statistics.fmean(seconds) / statistics.fmean(self.refs)


def load_package():
    """Import isobispec from this checkout's src/, never from elsewhere."""
    if not (SRC / "isobispec" / "__init__.py").is_file():
        raise SystemExit(f"error: no isobispec package under {SRC}; run the "
                         "benchmark from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import isobispec

    if Path(isobispec.__file__).resolve().parent != (SRC / "isobispec").resolve():
        raise SystemExit(f"error: imported isobispec from {isobispec.__file__}, "
                         f"not from {SRC}")
    return isobispec


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(harness) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "pool_workers": harness.max_workers(),
        "env": {k: os.environ.get(k) for k in (
            "ISOBISPEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


@dataclass
class Outcome:
    index: int
    kind: str                       # warm-up | timed | untraced | traced
    alphas: tuple[complex, ...]
    seconds: float = 0.0            # wall time
    passed: bool = False
    failing: list[str] = field(default_factory=list)
    margin: float | None = None


def verdict(out: Outcome, scenario, cfg, margin_checks) -> Outcome:
    """Request one verdict and record in ``out`` how it went."""
    t0 = time.perf_counter()
    try:
        rep = scenario(cfg)
    except Exception as exc:  # a raising verdict is a counted failure
        out.seconds = time.perf_counter() - t0
        traceback.print_exc()
        out.failing = [f"raised {type(exc).__name__}: {exc}"]
        return out
    out.seconds = time.perf_counter() - t0
    out.passed = rep.verdict
    out.failing = [c.name for c in rep.checks if not c.passed]
    margins = [math.log10(c.threshold / max(c.measured, _MEASURED_FLOOR))
               for c in rep.checks if c.name in margin_checks]
    out.margin = min(margins) if margins else None
    return out


def measure_setup(cfg_fields: dict, alpha: complex) -> float:
    """Set-up wall seconds of one fresh process."""
    probe_cfg = dict(cfg_fields, alpha=[alpha.real, alpha.imag])
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
         json.dumps(probe_cfg)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _report(outcomes: list[Outcome]) -> None:
    for o in sorted(outcomes, key=lambda o: o.index):
        status = "PASS" if o.passed else "FAIL " + ", ".join(o.failing)
        alphas = json.dumps([[a.real, a.imag] for a in map(complex, o.alphas)])
        print(f"verdict {o.index} {o.kind}: {o.seconds:.4f} s {status} "
              f"alphas {alphas}")


def _timed_seconds(outcomes: list[Outcome]) -> list[float]:
    """Wall seconds of the PASS verdicts, of all if none passed."""
    return ([o.seconds for o in outcomes if o.passed]
            or [o.seconds for o in outcomes])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    pkg = load_package()
    harness = pkg.harness
    work = spec.WORKLOADS[args.workload]
    base = harness.RunConfig(**work["config"])
    panels = pkg.grid.Grid(base.a_frac, base.grid_n).n_panels
    print("machine", json.dumps(machine_info(harness)))
    print("config", json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scenario": work["scenario"], "panels": panels,
        "seconds": args.seconds, "setup_repeats": spec.SETUP_REPEATS}))
    index = itertools.count()

    def run_one(kind: str) -> Outcome:
        i = next(index)
        alphas = spec.workload_alphas(args.workload, args.seed, i)
        cfg = harness.RunConfig(alphas=alphas, **work["config"])
        return verdict(Outcome(i, kind, alphas),
                       getattr(harness, work["scenario"]), cfg,
                       work["margin_checks"])

    errors: list[str] = []
    outcomes = [run_one("warm-up")]
    speed = MachineSpeed()
    busy = 0.0
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(pkg)
        plain: list[Outcome] = []
        traced: list[Outcome] = []
        while busy < args.seconds or not plain or not traced:
            if len(outcomes) % 4 in (2, 3):         # U T T U order
                with tracer.installed():
                    traced.append(run_one("traced"))
                outcomes.append(traced[-1])
            else:
                plain.append(run_one("untraced"))
                outcomes.append(plain[-1])
            speed.sample()
            busy += outcomes[-1].seconds
        metrics = tracer.per_layer()
        metrics["trace.verify_s"] = speed.adjusted_mean(_timed_seconds(traced))
        metrics["trace.untraced_verify_s"] = speed.adjusted_mean(
            _timed_seconds(plain))
        metrics["trace.overhead_s"] = (metrics["trace.verify_s"]
                                       - metrics["trace.untraced_verify_s"])
        mismatch = tracer.point_mismatch()
        if mismatch:
            errors.append(
                f"point accounting: charfn.eval_points exceeds newton + contour"
                f" + hunt + harness direct points by {mismatch} in total")
        units = {n: u for n, u, _ in spec.PER_LAYER}
    else:
        alphas = spec.workload_alphas(args.workload, args.seed, 0)
        probe_alpha = next(a for a in alphas if a)
        setup: list[float] = []

        def probe() -> None:
            raw = measure_setup(work["config"], probe_alpha)
            setup.append(raw * speed.sample())

        # The set-up probes run between verdicts, spread over the run, so
        # their median sees the same machine states as the verdicts.
        timed: list[Outcome] = []
        while not timed or busy < args.seconds:
            timed.append(run_one("timed"))
            speed.sample()
            busy += timed[-1].seconds
            due = (spec.SETUP_REPEATS if args.seconds <= 0 else
                   math.ceil(spec.SETUP_REPEATS * busy / args.seconds))
            while len(setup) < min(due, spec.SETUP_REPEATS):
                probe()
        while len(setup) < spec.SETUP_REPEATS:
            probe()
        outcomes += timed
        margins = [o.margin for o in outcomes if o.margin is not None]
        if not margins:
            errors.append("no verdict reported the checks "
                          f"{work['margin_checks']}")
        metrics = {
            "verify_s": speed.adjusted_mean(_timed_seconds(timed)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "pass_frac": sum(o.passed for o in outcomes) / len(outcomes),
            "accuracy_margin_dec": statistics.median(margins or [0.0]),
        }
        print("setup_s scaled samples", json.dumps(setup))
        wall = _timed_seconds(timed)
        print(f"verify_s comes from {sum(o.passed for o in timed)} PASS "
              f"verdicts out of {len(timed)} timed; their wall seconds have "
              f"median {statistics.median(wall):.4f} and mean "
              f"{statistics.fmean(wall):.4f}")
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}

    print("reference kernel seconds", json.dumps(speed.refs))
    _report(outcomes)
    failed = sum(not o.passed for o in outcomes)
    for e in errors:
        print("error:", e)
        print("error:", e, file=sys.stderr)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
