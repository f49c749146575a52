"""Assembly of the one-parameter potential families q_alpha and p_alpha.

For a normalized seed (h, e) with M_h e = s*e (s = +1 for family B, -1 for
the Robin-side family B_1), the potential with parameter alpha is

    q_alpha = 0                                  on (0,3a/2) u (pi-a,2a) u (pi-a/2,5a/2)
            = alpha * e(x)                       on (3a/2, pi-a)
            = -alpha * K_h(x+a/2) * E(x-a/2)     on (2a, pi-a/2)
            = h(x)                               on (5a/2, pi)

where E is the running integral of e from 3a/2.  Both shifted lookups land
exactly on grid nodes, so the later cancellations in the transformed
potential are exact at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import integral_op
from .errors import SupportMismatch, ZeroOperator
from .grid import PI, Grid, PiecewiseFn, norm_l2


@dataclass(frozen=True)
class FamilySpec:
    """Normalized seed data defining a potential family."""

    grid: Grid
    h: PiecewiseFn            # support (5a/2, pi), post-normalization
    e: PiecewiseFn            # support (3a/2, pi-a), L2-normalized
    eigsign: int              # +1 (family B) or -1 (family B_1)
    K_h: PiecewiseFn          # right antiderivative of h (cached)
    cum_e: PiecewiseFn        # running integral of e from 3a/2 (cached)
    int_e: float              # full integral of e
    eig_residual: float       # ||M_h e - eigsign*e||_L2 at construction

    @property
    def a(self) -> float:
        return self.grid.a

    @property
    def degenerate(self) -> bool:
        """True when the eigenfunction integral vanishes and the omega
        channel of the Robin-side construction collapses."""
        return abs(self.int_e) < 1e-10


def family_spec(grid: Grid, h: PiecewiseFn, e: PiecewiseFn, eigsign: int,
                validate: bool = True) -> FamilySpec:
    """Bundle a (h, e) pair into a FamilySpec, re-checking the eigen-relation."""
    if eigsign not in (+1, -1):
        raise ValueError("eigsign must be +1 or -1")
    if h.is_complex:
        raise ValueError("the seed h must be real-valued")
    if float(np.abs(h.flat_values()).max()) == 0.0:
        raise ZeroOperator("the seed h must not be identically zero")
    resid = norm_l2(integral_op.apply_M(h, e) - e * float(eigsign))
    if validate and resid > 1e-7:
        raise SupportMismatch(
            f"(h, e) violate the eigen-relation: residual {resid:.3e} > 1e-7")
    cum_e = e.cumulative()
    return FamilySpec(grid=grid, h=h, e=e, eigsign=eigsign,
                      K_h=h.antiderivative_from_right(), cum_e=cum_e,
                      int_e=float(np.real(cum_e.seg_values[-1][-1])),
                      eig_residual=resid)


def make_family(a_frac: Fraction | str | tuple = Fraction(7, 20),
                h_fn: Callable[[np.ndarray], np.ndarray] | float = 1.0,
                eigsign: int = +1,
                grid_n: int = 2048,
                nystrom_n: int = 256,
                skip_normalize: bool = False) -> FamilySpec:
    """End-to-end family construction from a seed function on (5a/2, pi),
    using the largest eigenvalue of the seed's integral operator.

    skip_normalize keeps the raw (un-rescaled) h with eta != eigsign -- a
    deliberately broken family used as a negative control; validation is
    bypassed for it.
    """
    grid = Grid(a_frac, grid_n)
    if callable(h_fn):
        h = PiecewiseFn.from_callable(grid, grid.idx_5a2, grid.n_panels, h_fn,
                                      dtype=float)
    else:
        h = PiecewiseFn.constant(grid, grid.idx_5a2, grid.n_panels,
                                 float(h_fn))
    op = integral_op.build_nystrom(h, nystrom_n)
    pair = integral_op.leading_real_eigenpair(op)
    if skip_normalize:
        return family_spec(grid, h, pair.e, eigsign, validate=False)
    h_scaled, e = integral_op.normalize_family(h, pair, eigsign)
    return family_spec(grid, h_scaled, e, eigsign)


@dataclass(frozen=True)
class Potential:
    """A potential on (0, pi): family member or general test potential."""

    grid: Grid
    fn: PiecewiseFn           # support (0, pi), grid-segment structure
    alpha: complex | None = None
    family: FamilySpec | None = None

    @property
    def a(self) -> float:
        return self.grid.a

    @property
    def is_complex(self) -> bool:
        return self.fn.is_complex


def build_potential(spec: FamilySpec, alpha: complex) -> Potential:
    """Assemble q_alpha on (0, pi) with the six-branch structure."""
    grid = spec.grid
    alpha = complex(alpha)
    if alpha.imag == 0:
        alpha = alpha.real
    dtype = np.result_type(type(alpha), float)
    values = []
    e_flat = spec.e.flat_values()
    for lo, hi in grid.seg_bounds:
        idx = np.arange(lo, hi + 1)
        if (lo, hi) == (grid.idx_3a2, grid.idx_pi_a):
            values.append(alpha * e_flat.astype(dtype))
        elif (lo, hi) == (grid.idx_2a, grid.idx_pi_a2):
            kv = spec.K_h.sample_flat(idx + grid.shift_half)
            cv = spec.cum_e.sample_flat(idx - grid.shift_half)
            values.append(-alpha * kv * cv)
        elif (lo, hi) == (grid.idx_5a2, grid.n_panels):
            values.append(spec.h.flat_values().astype(dtype))
        else:
            values.append(np.zeros(hi - lo + 1, dtype=dtype))
    fn = PiecewiseFn(grid, grid.seg_bounds, values)
    return Potential(grid=grid, fn=fn, alpha=alpha, family=spec)


def potential_from_callable(grid: Grid, q_fn: Callable[[np.ndarray], np.ndarray],
                            dtype=float) -> Potential:
    """General potential vanishing on (0, a); q_fn is sampled on (a, pi)."""
    values = []
    for lo, hi in grid.seg_bounds:
        x = grid.x_nodes(lo, hi)
        if hi <= grid.idx_a:
            values.append(np.zeros(hi - lo + 1, dtype=dtype))
        else:
            values.append(np.asarray(np.broadcast_to(q_fn(x), x.shape),
                                     dtype=dtype))
    fn = PiecewiseFn(grid, grid.seg_bounds, values)
    return Potential(grid=grid, fn=fn)


def zero_potential(grid: Grid) -> Potential:
    return potential_from_callable(grid, lambda x: np.zeros_like(x))


def omega(q: Potential) -> complex | float:
    """omega = integral of the potential over (a, pi)."""
    return q.fn.integrate(q.grid.x(q.grid.idx_a), PI)


_BRANCH_NAMES = ("(0,a)", "(a,3a/2)", "(3a/2,pi-a)", "(pi-a,2a)",
                 "(2a,pi-a/2)", "(pi-a/2,5a/2)", "(5a/2,pi)")


def structural_report(q: Potential) -> dict:
    """Per-branch L2 norms, breakpoint jumps and the max amplitude."""
    grid = q.grid
    branches = []
    for name, (lo, hi), v in zip(_BRANCH_NAMES, q.fn.seg_bounds, q.fn.seg_values):
        branches.append({
            "interval": name,
            "x_lo": grid.x(lo),
            "x_hi": grid.x(hi),
            "empty": hi == lo,
            "l2_norm": norm_l2(q.fn, grid.x(lo), grid.x(hi)) if hi > lo else 0.0,
            "max_abs": float(np.abs(v).max()),
        })
    jumps = []
    for k in range(len(q.fn.seg_bounds) - 1):
        left = q.fn.seg_values[k][-1]
        right = q.fn.seg_values[k + 1][0]
        jumps.append({
            "x": grid.x(q.fn.seg_bounds[k][1]),
            "magnitude": float(abs(right - left)),
        })
    return {
        "a": grid.a,
        "a_frac": str(grid.a_frac),
        "grid_panels": grid.n_panels,
        "alpha": None if q.alpha is None else [complex(q.alpha).real,
                                               complex(q.alpha).imag],
        "max_abs": float(max(b["max_abs"] for b in branches)),
        "branches": branches,
        "jumps": jumps,
    }
