"""Breakpoint-aligned composite grids and sampled piecewise functions on [0, pi].

The delay parameter a splits [0, pi] at the nodes

    0 < a < 3a/2 <= pi-a <= 2a < pi-a/2 <= 5a/2 < pi      (pi/3 <= a < 2pi/5)

and every function in the toolkit (potentials, kernels, transformed
potentials) is sampled on a single uniform step delta = pi/N restricted to
these segments.  With a = (p/q)*pi and N a multiple of 2q, every breakpoint
and every shift by a or a/2 is an integer number of steps, so all index
arithmetic (x - a/2, x + t - a/2, ...) lands exactly on nodes.  This exact
alignment is what lets the family cancellations hold to roundoff rather
than to quadrature accuracy.

Quadrature is a composite 4th-order rule built from per-panel integrals of
local cubic interpolants.  Plain integrals, cumulatives and right
antiderivatives sum the same panel increments, so integration is exactly
additive; integrals up to a moving cut-off all use ``rule_corrections``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DelayOutOfRange, OutOfSupport, SupportMismatch

PI = math.pi

# Breakpoint positions as multiples of (a, pi):  x = c_a * a + c_pi * pi.
_BP_COEFFS = (
    (0, 0),
    (1, 0),
    (Fraction(3, 2), 0),
    (-1, 1),
    (2, 0),
    (Fraction(-1, 2), 1),
    (Fraction(5, 2), 0),
    (0, 1),
)


class Grid:
    """Uniform step pi/N over [0, pi] with breakpoint indices for delay a.

    a_frac is the delay as a rational multiple of pi in [1/3, 2/5), the
    range on which the construction is defined.  n_panels is snapped up to
    a multiple of 2*denominator(a_frac) (and doubled until every
    nonempty segment has at least 4 panels), so that all breakpoints sit on
    integer node indices.
    """

    def __init__(self, a_frac: Fraction | str | tuple, n_panels: int = 2048):
        f = Fraction(*a_frac) if isinstance(a_frac, tuple) else Fraction(a_frac)
        if not (Fraction(1, 3) <= f < Fraction(2, 5)):
            raise DelayOutOfRange(f"a_frac={f} outside [1/3, 2/5)")
        self.a_frac = f

        # every breakpoint is a multiple of a/2 plus 0 or pi, so 2*denominator
        # steps put them all on nodes
        bp_frac = [ca * f + cp for ca, cp in _BP_COEFFS]
        base = 2 * f.denominator
        n = max(1, math.ceil(n_panels / base)) * base
        while True:
            idx = [int(frac * n) for frac in bp_frac]
            panel_counts = [b - c for c, b in zip(idx, idx[1:])]
            if all(c == 0 or c >= 4 for c in panel_counts):
                break
            n *= 2
        self.n_panels = int(n)
        self.step = PI / self.n_panels
        self.bp_idx = tuple(idx)
        self.seg_bounds = tuple(zip(idx, idx[1:]))
        self.shift_half = int(f / 2 * n)   # index shift for a/2
        self.shift_a = 2 * self.shift_half

    # Named breakpoint indices (canonical ordering).
    @property
    def idx_a(self) -> int:
        return self.shift_a

    @property
    def idx_3a2(self) -> int:
        return 3 * self.shift_half

    @property
    def idx_pi_a(self) -> int:
        return self.n_panels - self.shift_a

    @property
    def idx_2a(self) -> int:
        return 4 * self.shift_half

    @property
    def idx_pi_a2(self) -> int:
        return self.n_panels - self.shift_half

    @property
    def idx_5a2(self) -> int:
        return 5 * self.shift_half

    @property
    def a(self) -> float:
        return float(self.a_frac) * PI

    def x(self, idx) -> np.ndarray | float:
        return np.asarray(idx) * self.step if np.ndim(idx) else idx * self.step

    def x_nodes(self, i_lo: int, i_hi: int) -> np.ndarray:
        return np.arange(i_lo, i_hi + 1) * self.step

    def index_of(self, x: float) -> int:
        """Nearest node index for x, which must sit on a node."""
        i = round(x / self.step)
        if abs(i * self.step - x) > 1e-9:
            raise SupportMismatch(f"x={x!r} does not sit on a grid node")
        return int(i)

    # rho trust region for oscillatory quadrature, scaled from the default
    # grid density (40 real / 15 imaginary at 2048 panels).
    @property
    def rho_trust(self) -> tuple[float, float]:
        scale = self.n_panels / 2048.0
        return 40.0 * scale, 15.0 * scale

    def __eq__(self, other):
        return (isinstance(other, Grid) and self.a_frac == other.a_frac
                and self.n_panels == other.n_panels)

    def __hash__(self):
        return hash((self.a_frac, self.n_panels))

    def __repr__(self):
        return f"Grid(a_frac={self.a_frac}, n_panels={self.n_panels})"


# ---------------------------------------------------------------------------
# panel quadrature: per-panel integrals of local cubic interpolants
# ---------------------------------------------------------------------------

# Integral over [x_k, x_{k+1}] of the cubic through 4 consecutive samples,
# in units of the step.  End panels use one-sided stencils.
_W_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_W_INNER = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_W_LAST = _W_FIRST[::-1].copy()


def panel_increments(y: np.ndarray, step: float) -> np.ndarray:
    """Per-panel integrals of samples y (last axis), 4th-order accurate.

    Degrades gracefully for short segments: trapezoid for one panel,
    quadratic split for two.
    """
    y = np.asarray(y)
    n = y.shape[-1] - 1
    if n <= 0:
        return np.zeros(y.shape[:-1] + (0,), dtype=y.dtype)
    if n == 1:
        return (0.5 * step) * (y[..., :1] + y[..., 1:])
    if n == 2:
        lo = (y[..., 0] * 5 + y[..., 1] * 8 - y[..., 2]) * (step / 12.0)
        hi = (-y[..., 0] + y[..., 1] * 8 + y[..., 2] * 5) * (step / 12.0)
        return np.stack([lo, hi], axis=-1)
    inc = np.empty(y.shape[:-1] + (n,), dtype=np.result_type(y, float))
    windows = np.lib.stride_tricks.sliding_window_view(y, 4, axis=-1)
    inc[..., 1:-1] = windows @ _W_INNER
    inc[..., 0] = y[..., :4] @ _W_FIRST
    inc[..., -1] = y[..., -4:] @ _W_LAST
    inc *= step
    return inc


def cumulative_values(y: np.ndarray, step: float) -> np.ndarray:
    """Running integral at each node, starting from 0 at the first node."""
    inc = panel_increments(y, step)
    out = np.zeros(y.shape[:-1] + (y.shape[-1],), dtype=inc.dtype if inc.size else np.result_type(np.asarray(y), float))
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


# Node weights of the composite rule, obtained by summing the per-panel
# stencils.  For n >= 7 the end pattern [8,31,20,25]/24 (mirrored) with
# unit interior weights; small n built directly from the increments.
_W_END = np.array([8.0, 31.0, 20.0, 25.0]) / 24.0


@lru_cache(maxsize=None)
def _segment_weights_unit(n: int) -> np.ndarray:
    """Node weights for the full-segment rule at unit step (cached)."""
    if n <= 0:
        w = np.zeros(n + 1 if n >= 0 else 0)
    elif n < 7:
        w = panel_increments(np.eye(n + 1), 1.0).sum(axis=-1)
    else:
        w = np.ones(n + 1)
        w[:4] = _W_END
        w[-4:] = _W_END[::-1]
    w.setflags(write=False)
    return w


def segment_weights(n: int, step: float) -> np.ndarray:
    return _segment_weights_unit(n) * step


# Rule over k panels = unit weights plus eight corrections: the end stencils
# minus one (k >= 7), or the whole short rule minus one, zero-padded.
_CORR_LONG = np.concatenate([_W_END, _W_END[::-1]]) - 1.0
_CORR_SHORT = np.array([np.pad(_segment_weights_unit(k) - 1.0, (0, 7 - k))
                        for k in range(7)])


def rule_corrections(k) -> tuple[np.ndarray, np.ndarray]:
    """Offsets o and weights c, shape k.shape + (8,): at unit step the rule
    over k >= 0 panels is weight one on nodes 0..k plus c at offset o.

    This is the one rule for integrals up to the delay kernel's moving
    cut-off.  The kernel vanishes at and past the cut, so the unit-weight
    part is a plain correlation and only these end terms see the cut.
    """
    k = np.asarray(k)[..., None]
    j = np.arange(8)
    long = k >= 7
    off = np.where(long, np.where(j < 4, j, k - 7 + j), np.minimum(j, k))
    coef = np.where(long, _CORR_LONG, _CORR_SHORT[np.minimum(k[..., 0], 6)])
    return off, coef


# ---------------------------------------------------------------------------
# piecewise sampled functions
# ---------------------------------------------------------------------------

class PiecewiseFn:
    """Function sampled on breakpoint-aligned segments of the grid.

    Each segment stores its own closed-interval sample array, so jump
    discontinuities at shared breakpoints keep both one-sided values.
    Values are immutable after construction.
    """

    __slots__ = ("grid", "i_lo", "i_hi", "seg_bounds", "seg_values",
                 "left_ext", "_flat")

    def __init__(self, grid: Grid, seg_bounds: Sequence[tuple[int, int]],
                 seg_values: Sequence[np.ndarray], left_ext=None):
        if not seg_bounds:
            raise SupportMismatch("PiecewiseFn needs at least one segment")
        if len(seg_values) != len(seg_bounds):
            raise SupportMismatch("one sample array per segment required")
        prev_hi = None
        vals = []
        for (lo, hi), v in zip(seg_bounds, seg_values):
            if hi < lo or (prev_hi is not None and lo != prev_hi):
                raise SupportMismatch("segments must tile the support in order")
            v = np.asarray(v)
            if v.shape != (hi - lo + 1,):
                raise SupportMismatch(
                    f"segment [{lo},{hi}] expects {hi - lo + 1} samples, got {v.shape}"
                )
            v = v.copy()
            v.setflags(write=False)
            vals.append(v)
            prev_hi = hi
        self.grid = grid
        self.seg_bounds = tuple((int(lo), int(hi)) for lo, hi in seg_bounds)
        self.seg_values = tuple(vals)
        self.i_lo = self.seg_bounds[0][0]
        self.i_hi = self.seg_bounds[-1][1]
        self.left_ext = left_ext
        self._flat = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_callable(cls, grid: Grid, i_lo: int, i_hi: int,
                      fn: Callable[[np.ndarray], np.ndarray],
                      dtype=None) -> "PiecewiseFn":
        bounds = _induced_bounds(grid, i_lo, i_hi)
        values = []
        for lo, hi in bounds:
            x = grid.x_nodes(lo, hi)
            v = np.asarray(fn(x), dtype=dtype)
            v = np.broadcast_to(v, x.shape).astype(
                dtype if dtype is not None else v.dtype)
            values.append(v)
        return cls(grid, bounds, values)

    @classmethod
    def from_flat(cls, grid: Grid, i_lo: int, i_hi: int,
                  values: np.ndarray) -> "PiecewiseFn":
        """Build from a single node array over [i_lo, i_hi] (continuous data;
        shared breakpoint nodes get the same value on both sides)."""
        values = np.asarray(values)
        if values.shape != (i_hi - i_lo + 1,):
            raise SupportMismatch("flat array length must match node count")
        bounds = _induced_bounds(grid, i_lo, i_hi)
        return cls(grid, bounds,
                   [values[lo - i_lo: hi - i_lo + 1] for lo, hi in bounds])

    @classmethod
    def zeros(cls, grid: Grid, i_lo: int, i_hi: int, dtype=float) -> "PiecewiseFn":
        return cls.from_callable(grid, i_lo, i_hi, lambda x: np.zeros_like(x),
                                 dtype=dtype)

    @classmethod
    def constant(cls, grid: Grid, i_lo: int, i_hi: int, value, dtype=None) -> "PiecewiseFn":
        dtype = dtype or np.result_type(value, float)
        return cls.from_callable(grid, i_lo, i_hi,
                                 lambda x: np.full_like(x, value, dtype=dtype),
                                 dtype=dtype)

    # -- basic queries -------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return self.grid.x(self.i_lo), self.grid.x(self.i_hi)

    @property
    def dtype(self):
        return np.result_type(*(v.dtype for v in self.seg_values))

    @property
    def is_complex(self) -> bool:
        return np.issubdtype(self.dtype, np.complexfloating)

    def flat_values(self) -> np.ndarray:
        """Single-valued node array over [i_lo, i_hi] (right-limit at jumps)."""
        if self._flat is None:
            out = np.zeros(self.i_hi - self.i_lo + 1, dtype=self.dtype)
            for (lo, hi), v in zip(self.seg_bounds, self.seg_values):
                out[lo - self.i_lo: hi - self.i_lo + 1] = v
            # first segment wins at its own left node; later segments
            # overwrite shared nodes, giving the right-limit convention,
            # except the global right end which keeps the left limit.
            out.setflags(write=False)
            self._flat = out
        return self._flat

    def sample_flat(self, idx) -> np.ndarray:
        """Node lookup with edge clamping (constant extension both sides).

        Intended for continuous functions (antiderivatives, cumulatives):
        below support this realizes the constant left extension, above
        support the constant right extension.
        """
        idx = np.clip(np.asarray(idx), self.i_lo, self.i_hi)
        return self.flat_values()[idx - self.i_lo]

    # -- evaluation ----------------------------------------------------------

    def eval(self, x) -> np.ndarray | complex | float:
        """Piecewise-linear evaluation; at interior jumps the right limit."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo_x, hi_x = self.support
        out = np.empty(x.shape, dtype=self.dtype)
        below = x < lo_x - 1e-12
        above = x > hi_x + 1e-12
        if below.any():
            if self.left_ext is None:
                raise OutOfSupport(f"evaluation below support ({lo_x:.6g})")
            out[below] = self.left_ext
        if above.any():
            raise OutOfSupport(f"evaluation above support ({hi_x:.6g})")
        inside = ~(below | above)
        xi = np.clip(x[inside], lo_x, hi_x)
        res = np.empty(xi.shape, dtype=self.dtype)
        filled = np.zeros(xi.shape, dtype=bool)
        for k, ((lo, hi), v) in enumerate(zip(self.seg_bounds, self.seg_values)):
            if hi == lo:
                continue
            xlo, xhi = self.grid.x(lo), self.grid.x(hi)
            last = k == len(self.seg_bounds) - 1 or all(
                b == c for b, c in self.seg_bounds[k + 1:])
            sel = (~filled) & (xi >= xlo - 1e-12) & (
                (xi < xhi - 1e-12) if not last else (xi <= xhi + 1e-12))
            if sel.any():
                t = (xi[sel] - xlo) / self.grid.step
                j = np.clip(np.floor(t).astype(int), 0, hi - lo - 1)
                frac = t - j
                res[sel] = v[j] * (1 - frac) + v[j + 1] * frac
                filled[sel] = True
        out[inside] = res
        return out[0] if scalar else out

    __call__ = eval

    # -- integration ---------------------------------------------------------

    def integrate(self, lo: float | None = None, hi: float | None = None):
        """Integral over [lo, hi] (defaults to full support).

        Both bounds must sit on grid nodes.  The integral is the sum of the
        panel increments between them, so it is exactly additive over
        adjacent ranges.
        """
        lo_x, hi_x = self.support
        lo = lo_x if lo is None else float(lo)
        hi = hi_x if hi is None else float(hi)
        if lo > hi + 1e-12:
            raise OutOfSupport(f"integrate bounds reversed: {lo} > {hi}")
        if lo < lo_x - 1e-12 or hi > hi_x + 1e-12:
            raise OutOfSupport(
                f"[{lo:.6g},{hi:.6g}] outside support [{lo_x:.6g},{hi_x:.6g}]")
        i0, i1 = self.grid.index_of(lo), self.grid.index_of(hi)
        total = 0.0
        for (slo, shi), v in zip(self.seg_bounds, self.seg_values):
            a, b = max(slo, i0), min(shi, i1)
            if b > a:
                inc = panel_increments(v, self.grid.step)
                total = total + inc[a - slo: b - slo].sum()
        return total

    def cumulative(self) -> "PiecewiseFn":
        """Running integral from the left support edge, continuous."""
        step = self.grid.step
        run = 0.0
        vals = []
        for (lo, hi), v in zip(self.seg_bounds, self.seg_values):
            c = cumulative_values(v, step) + run
            vals.append(c)
            run = c[-1]
        return PiecewiseFn(self.grid, self.seg_bounds, vals)

    def antiderivative_from_right(self) -> "PiecewiseFn":
        """K(x) = integral of self over [x, hi], with K extended by K(lo)
        as a constant for evaluation below the support."""
        cum = self.cumulative()
        total = cum.seg_values[-1][-1]
        vals = [total - c for c in cum.seg_values]
        out = PiecewiseFn(self.grid, self.seg_bounds, vals)
        out.left_ext = vals[0][0]
        return out

    # -- algebra -------------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, PiecewiseFn):
            if other.grid != self.grid or other.seg_bounds != self.seg_bounds:
                raise SupportMismatch("operands must share grid and segments")
            vals = [op(a, b) for a, b in zip(self.seg_values, other.seg_values)]
        else:
            vals = [op(a, other) for a in self.seg_values]
        return PiecewiseFn(self.grid, self.seg_bounds, vals)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return self._binary(-1.0, np.multiply)

    def map(self, fn) -> "PiecewiseFn":
        return PiecewiseFn(self.grid, self.seg_bounds,
                           [fn(v) for v in self.seg_values])

    def restrict(self, i_lo: int, i_hi: int) -> "PiecewiseFn":
        """Restriction to [i_lo, i_hi]; bounds must be segment boundaries."""
        bounds, vals = [], []
        for (lo, hi), v in zip(self.seg_bounds, self.seg_values):
            if lo >= i_lo and hi <= i_hi:
                bounds.append((lo, hi))
                vals.append(v)
        if not bounds or bounds[0][0] != i_lo or bounds[-1][1] != i_hi:
            raise SupportMismatch("restriction bounds must be segment bounds")
        return PiecewiseFn(self.grid, bounds, vals)

    def __repr__(self):
        lo, hi = self.support
        return (f"PiecewiseFn([{lo:.4g},{hi:.4g}], {len(self.seg_bounds)} segs,"
                f" dtype={self.dtype})")


def _induced_bounds(grid: Grid, i_lo: int, i_hi: int) -> list[tuple[int, int]]:
    """Grid segments clipped to [i_lo, i_hi], keeping zero-length segments
    that fall strictly inside (uniform branch indexing at a = pi/3)."""
    if i_lo == i_hi:
        return [(i_lo, i_hi)]
    bounds: list[tuple[int, int]] = []
    for lo, hi in grid.seg_bounds:
        a, b = max(lo, i_lo), min(hi, i_hi)
        if a > b:
            continue
        if a == b and not (lo == hi and i_lo < lo < i_hi):
            continue
        bounds.append((a, b))
    if not bounds or bounds[0][0] != i_lo or bounds[-1][1] != i_hi:
        raise SupportMismatch(f"support [{i_lo},{i_hi}] not tiled by grid segments")
    return bounds


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------

def norm_l2(f: PiecewiseFn, lo: float | None = None, hi: float | None = None) -> float:
    sq = f.map(lambda v: np.abs(v) ** 2)
    return math.sqrt(max(float(np.real(sq.integrate(lo, hi))), 0.0))


def inner_l2(f: PiecewiseFn, g: PiecewiseFn):
    """L2 inner product <f, g> with the complex conjugate on f."""
    prod = f.map(np.conj)._binary(g, np.multiply)
    return prod.integrate()


def write_csv(f: PiecewiseFn, path) -> None:
    """Dump samples as `x,re[,im]` with strictly increasing x.

    At interior jump nodes the right-limit sample is written.
    """
    flat = f.flat_values()
    xs = f.grid.x_nodes(f.i_lo, f.i_hi)
    with open(path, "w", encoding="utf-8") as fh:
        if f.is_complex:
            fh.write("x,re,im\n")
            for x, v in zip(xs, flat):
                fh.write(f"{x:.17g},{v.real:.17g},{v.imag:.17g}\n")
        else:
            fh.write("x,re\n")
            for x, v in zip(xs, flat):
                fh.write(f"{x:.17g},{v:.17g}\n")


def read_xy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read `x,re[,im]` rows; returns (x, values) with complex if im given."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    x = np.asarray(data["x"], dtype=float)
    if x.ndim == 0:
        x = x[None]
    if not np.all(np.diff(x) > 0):
        raise ValueError(f"{path}: x column must be strictly increasing")
    names = data.dtype.names
    re = np.atleast_1d(np.asarray(data["re"], dtype=float))
    if "im" in names:
        return x, re + 1j * np.atleast_1d(np.asarray(data["im"], dtype=float))
    return x, re
