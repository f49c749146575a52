"""Workloads and metric definitions of the isobispec benchmark.

This module is the single source of ``BENCHMARK.json``: ``run.py
--write-spec`` writes the file from the tables below, and the smoke test
checks that the committed file still matches them.  It imports nothing
from ``isobispec``, so it works in a checkout that lacks ``src/``.
"""

from __future__ import annotations

import math
import random

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

# Set-up is measured in fresh interpreter processes, this many per run; the
# median is reported.
SETUP_REPEATS = 7

# name -> scenario function of isobispec.harness, fixed RunConfig fields,
# the quadrature-level checks behind accuracy_margin_dec, and the reason
# the workload exists.
WORKLOADS: dict[str, dict] = {
    "theorem1-ref": {
        "scenario": "run_verify_theorem1",
        "config": {"eigsign": 1, "grid_n": 2048, "n_eigs": 15},
        "margin_checks": ("crosscheck",),
        "why": "reference fixture, theorem 1: find_spectrum over delta "
               "dominates, mostly winding-number contour points, so it "
               "tracks the charfn kernel and spectra",
    },
    "remark2-ref": {
        "scenario": "run_verify_remark2",
        "config": {"eigsign": -1, "grid_n": 2048, "n_eigs": 15},
        "margin_checks": ("omega_slope",),
        "why": "Robin-side fixture: theta spectra where most points are "
               "hunt points, so a spectra change trading contour for hunt "
               "work moves it opposite to theorem1-ref",
    },
    "crosscheck-fine": {
        "scenario": "run_crosscheck",
        "config": {"eigsign": 1, "grid_n": 8192, "n_eigs": 15},
        "margin_checks": ("crosscheck",),
        "why": "8200-panel crosscheck: family and evaluator build, nested "
               "compute_Q and split shooting, few charfn points; set-up "
               "and memory grow with grid density here",
    },
}

END_TO_END = [
    {"name": "verify_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "pass_frac", "unit": "frac", "better": "higher", "bound": 0.01},
    {"name": "accuracy_margin_dec", "unit": "dec", "better": "higher",
     "bound": 0.15},
]

PER_LAYER = [
    ("harness.self_s", "s", "lower"),
    ("harness.pool_workers", "count", "lower"),
    ("harness.direct_points", "count", "lower"),
    ("potential.make_family_s", "s", "lower"),
    ("integral_op.build_nystrom_s", "s", "lower"),
    ("integral_op.eigenpair_s", "s", "lower"),
    ("integral_op.inverse_iters", "count", "lower"),
    ("charfn.make_evaluator_s", "s", "lower"),
    ("charfn.compute_Q_s", "s", "lower"),
    ("charfn.eval_calls", "count", "lower"),
    ("charfn.eval_points", "count", "lower"),
    ("charfn.points_per_call", "count", "higher"),
    ("charfn.us_per_point", "us", "lower"),
    ("charfn.osc_terms", "count", "lower"),
    ("spectra.find_spectrum_s", "s", "lower"),
    ("spectra.points.newton", "count", "lower"),
    ("spectra.points.contour", "count", "lower"),
    ("spectra.points.hunt", "count", "lower"),
    ("spectra.refine_calls", "count", "lower"),
    ("spectra.refine_failed", "count", "lower"),
    ("spectra.count_zeros_calls", "count", "lower"),
    ("spectra.certified_ratio", "frac", "higher"),
    ("shooting.char_values_calls", "count", "lower"),
    ("shooting.ms_per_call", "ms", "lower"),
    ("shooting.split_calls", "count", "lower"),
    ("shooting.direct_calls", "count", "lower"),
    ("grid.varlimit_cache_entries", "count", "lower"),
    ("grid.varlimit_cache_mb", "MB", "lower"),
    ("trace.verify_s", "s", "lower"),
    ("trace.untraced_verify_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _alpha(rng: random.Random, complex_: bool) -> complex:
    # Modulus log-uniform in [1/1.1, 1.1]: at 2080 panels the crosscheck
    # error grows in proportion to |alpha|, so a narrow modulus band keeps
    # accuracy_margin_dec comparable from seed to seed.
    r = round(1.1 ** rng.uniform(-1.0, 1.0), 6)
    if not complex_:
        return complex(rng.choice((-r, r)))
    phi = rng.choice((-1, 1)) * rng.uniform(0.2, 0.8) * math.pi
    return complex(round(r * math.cos(phi), 6), round(r * math.sin(phi), 6))


def workload_alphas(name: str, seed: int, verdict: int) -> tuple[complex, ...]:
    """The family parameters of one verdict, passed in ``RunConfig.alphas``.

    The seed draws only these values, afresh for each verdict of a run.
    Theorem 1 makes the spectra independent of alpha, so the work per
    verdict does not depend on them.
    """
    rng = random.Random(f"{name}:{seed}:{verdict}")
    if name == "theorem1-ref":
        return (0j, _alpha(rng, False), _alpha(rng, False), _alpha(rng, True))
    if name == "remark2-ref":
        # the scenario itself adds 0 and +-1
        return (_alpha(rng, False), _alpha(rng, True))
    if name == "crosscheck-fine":
        return (_alpha(rng, False),)
    raise KeyError(name)


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
