"""Per-layer tracing of isobispec from outside the package.

``Tracer.installed()`` wraps a fixed set of public functions, one or more
per module, and rebinds every reference the package holds to them (module
attributes, names imported with ``from ... import`` and function tables
such as ``spectra._FUNCS``), so calls made inside the package are seen
too.  Nothing in ``src/`` is edited, and leaving the context restores the
original objects.

Each wrapper records a span (name, start, end) on a per-thread stack.
Spans that start in a pool worker with an empty stack have the active
scenario as their parent.  Characteristic-function points are attributed
to the innermost ``refine`` (newton) or ``count_zeros`` (contour) span,
otherwise to ``find_spectrum`` (hunt), otherwise to the scenario itself
(direct harness calls); the point-accounting self-check compares their sum
with the total counted at the evaluator.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import threading
import time
from collections import Counter

import numpy as np

SCENARIOS = ("harness.run_verify_theorem1", "harness.run_verify_remark2",
             "harness.run_crosscheck")
WRAPPED = SCENARIOS + (
    "potential.make_family", "potential.build_potential",
    "integral_op.build_nystrom", "integral_op.leading_real_eigenpair",
    "charfn.make_evaluator", "charfn.compute_Q",
    "charfn.eval_delta", "charfn.eval_theta",
    "spectra.find_spectrum", "spectra.refine", "spectra.count_zeros",
    "shooting.char_values",
)
_EVALS = ("charfn.eval_delta", "charfn.eval_theta")
_POINT_OWNER = {"spectra.refine": "spectra.points.newton",
                "spectra.count_zeros": "spectra.points.contour",
                "spectra.find_spectrum": "spectra.points.hunt"}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _quadrature_nodes(ev) -> int:
    """Nodes of the oscillatory sum: the samples of w_0 on (a, pi)."""
    return sum(hi - lo + 1 for lo, hi in ev.w0.w.seg_bounds if hi > lo)


class Tracer:
    """Span times and counters, summed over every traced verdict."""

    def __init__(self, package):
        self.pkg = package
        self._mods = {name: sys.modules[f"{package.__name__}.{name}"]
                      for name in ("harness", "potential", "integral_op",
                                   "charfn", "spectra", "shooting", "grid")}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._scenario: str | None = None
        self._children: list[tuple[float, float]] = []
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_seconds = 0.0
        self.verdicts = 0

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind every package reference to the wrapped functions."""
        wrappers = {}
        for qual in WRAPPED:
            mod, attr = qual.split(".")
            orig = getattr(self._mods[mod], attr)
            wrappers[id(orig)] = (orig, self._wrap(qual, orig))
        undo = []
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != self.pkg.__name__ and not name.startswith(
                    self.pkg.__name__ + "."):
                continue
            for key, val in list(vars(mod).items()):
                if id(val) in wrappers and val is wrappers[id(val)][0]:
                    undo.append((vars(mod), key, val))
                    setattr(mod, key, wrappers[id(val)][1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers and v is wrappers[id(v)][0]:
                            undo.append((val, k, v))
                            val[k] = wrappers[id(v)][1]
        try:
            yield self
        finally:
            for table, key, orig in reversed(undo):
                table[key] = orig

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[str]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[str]) -> str | None:
        return stack[-1] if stack else self._scenario

    def _wrap(self, qual: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            if qual in _EVALS:
                self._count_points(stack, parent, args[0],
                                   args[2] if len(args) > 2 else kwargs["lam"])
            if qual in SCENARIOS:
                self._scenario, self._children = qual, []
            stack.append(qual)
            t0 = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.seconds[qual] += t1 - t0
                    self.calls[qual] += 1
                    if not ok:
                        self.counts[qual + ".raised"] += 1
                    if qual in SCENARIOS:
                        self.self_seconds += (t1 - t0) - _union_length(
                            self._children)
                        self._scenario = None
                        self.verdicts += 1
                    elif parent is not None and parent in SCENARIOS:
                        self._children.append((t0, t1))
            self._on_result(qual, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _count_points(self, stack, parent, ev, lam) -> None:
        n = int(np.size(lam))
        owner = next((_POINT_OWNER[s] for s in reversed(stack)
                      if s in _POINT_OWNER), None)
        if owner is None:
            owner = ("harness.direct_points" if parent in SCENARIOS
                     else "unattributed_points")
        with self._lock:
            self.counts["charfn.eval_points"] += n
            self.counts["charfn.osc_terms"] += n * _quadrature_nodes(ev)
            self.counts[owner] += n

    def _on_result(self, qual, args, result) -> None:
        with self._lock:
            if qual == "integral_op.leading_real_eigenpair":
                self.counts["integral_op.inverse_iters"] += result.iterations
            elif qual == "spectra.find_spectrum":
                self.counts["spectra.roots"] += len(result.eigenvalues)
                self.counts["spectra.certified"] += sum(result.certified)
            elif qual == "shooting.char_values":
                rho = np.sqrt(complex(args[1]))
                path = ("split" if abs(rho.imag)
                        <= self._mods["shooting"]._SPLIT_IM_MAX else "direct")
                self.counts[f"shooting.{path}_calls"] += 1

    # -- results ------------------------------------------------------------

    def point_mismatch(self) -> int:
        """charfn points minus the points attributed to a purpose."""
        c = self.counts
        attributed = (c["spectra.points.newton"] + c["spectra.points.contour"]
                      + c["spectra.points.hunt"] + c["harness.direct_points"])
        return c["charfn.eval_points"] - attributed

    def varlimit_cache(self) -> tuple[int, float]:
        """(entries, MB) held by the grid's variable-limit weight cache."""
        cached = getattr(self._mods["grid"], "_varlimit_rows_unit", None)
        if cached is None or not hasattr(cached, "cache_info"):
            return 0, 0.0
        entries = cached.cache_info().currsize
        for ref in gc.get_referents(cached):
            if isinstance(ref, dict) and len(ref) == entries:
                arrays = [v if isinstance(v, np.ndarray) else v[-1]
                          for v in ref.values()]
                if all(isinstance(a, np.ndarray) for a in arrays):
                    return entries, sum(a.nbytes for a in arrays) / 1e6
        raise RuntimeError("cannot read the varlimit_rows cache contents")

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics; sums are per traced verdict."""
        n = max(self.verdicts, 1)
        s, k, c = self.seconds, self.calls, self.counts
        eval_calls = k["charfn.eval_delta"] + k["charfn.eval_theta"]
        eval_s = s["charfn.eval_delta"] + s["charfn.eval_theta"]
        points = c["charfn.eval_points"]
        shots = k["shooting.char_values"]
        roots = c["spectra.roots"]
        entries, mb = self.varlimit_cache()
        return {
            "harness.self_s": self.self_seconds / n,
            "harness.pool_workers": self._mods["harness"].max_workers(),
            "harness.direct_points": c["harness.direct_points"] / n,
            "potential.make_family_s": s["potential.make_family"] / n,
            "integral_op.build_nystrom_s": s["integral_op.build_nystrom"] / n,
            "integral_op.eigenpair_s":
                s["integral_op.leading_real_eigenpair"] / n,
            "integral_op.inverse_iters": c["integral_op.inverse_iters"] / n,
            "charfn.make_evaluator_s": s["charfn.make_evaluator"] / n,
            "charfn.compute_Q_s": s["charfn.compute_Q"] / n,
            "charfn.eval_calls": eval_calls / n,
            "charfn.eval_points": points / n,
            "charfn.points_per_call": points / max(eval_calls, 1),
            "charfn.us_per_point": 1e6 * eval_s / max(points, 1),
            "charfn.osc_terms": c["charfn.osc_terms"] / n,
            "spectra.find_spectrum_s": s["spectra.find_spectrum"] / n,
            "spectra.points.newton": c["spectra.points.newton"] / n,
            "spectra.points.contour": c["spectra.points.contour"] / n,
            "spectra.points.hunt": c["spectra.points.hunt"] / n,
            "spectra.refine_calls": k["spectra.refine"] / n,
            "spectra.refine_failed": c["spectra.refine.raised"] / n,
            "spectra.count_zeros_calls": k["spectra.count_zeros"] / n,
            "spectra.certified_ratio":
                c["spectra.certified"] / roots if roots else 1.0,
            "shooting.char_values_calls": shots / n,
            "shooting.ms_per_call":
                1e3 * s["shooting.char_values"] / shots if shots else 0.0,
            "shooting.split_calls": c["shooting.split_calls"] / n,
            "shooting.direct_calls": c["shooting.direct_calls"] / n,
            "grid.varlimit_cache_entries": entries,
            "grid.varlimit_cache_mb": mb,
        }
