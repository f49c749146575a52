"""Independent oracle: direct solution of the delay equation.

Solves  -y'' + q(x) y(x-a) = lambda y  on (0, pi) by the method of steps.
With rho^2 = lambda, C(u) = cos(rho u), S(u) = u sinc(rho u) and
g(s) = q(s) y(s-a), the solution restarted at any node x0 is

    y(x)  = y(x0) C(u) + y'(x0) S(u) + S(u) int C g - C(u) int S g,
    y'(x) = y'(x0) C(u) - lambda y(x0) S(u) + C(u) int C g
            + lambda S(u) int S g,

with u = x - x0 and the integrals of C(s - x0) g(s) running from x0 to x.
Segment lengths never exceed a past x = a, so the delayed factor y(s-a) is
always known from earlier segments and no iteration is needed.

One march does all the work, O(N) per lambda.  Expanding the kernel
S(x - s) into S(u) C(v) - C(u) S(v) cancels by up to exp(2 |Im rho| L)
over a block of length L, which over the whole of (0, pi) would eat the
mantissa.  So the march restarts at each block start, and blocks obey
|Im rho| L <= 1: the cancellation stays below e^2 out to the edge of the
trust region.  Each lambda is bucketed by
cap = 2^ceil(log2 max(|Im rho|, 1)) and every segment is cut into blocks
of length <= 1/cap.  The partition depends on nothing but the lambda's
own cap, so a lambda gives bit-identical values alone or in any batch.
Blocks where q vanishes (such as (0, a)) carry only the free terms.

The march runs all lambdas of a bucket and both initial-data pairs at
once.  Characteristic values are read off at pi: delta_j = S^(j)(pi), the
Robin-side theta_j = C^(j)(pi), where S, C carry the standard initial
conditions S(0)=0, S'(0)=1 and C(0)=1, C'(0)=0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import sinc
from .errors import GridTooCoarseForRho, SupportMismatch
from .grid import PiecewiseFn, cumulative_values
from .potential import Potential

# initial data (y(0), y'(0)) of S and C
_S_AND_C = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class ShootingSolution:
    lam: complex
    rho: complex
    kind: str                     # 'S' | 'C' | 'general'
    y: PiecewiseFn                # complex-valued on (0, pi)
    yprime: PiecewiseFn

    @property
    def value_at_pi(self) -> complex:
        return complex(self.y.seg_values[-1][-1])

    @property
    def deriv_at_pi(self) -> complex:
        return complex(self.yprime.seg_values[-1][-1])


def _check_rho(q: Potential, lams) -> np.ndarray:
    rho = np.sqrt(np.asarray(lams, dtype=complex).reshape(-1))
    re_max, im_max = q.grid.rho_trust
    if (np.abs(rho.real) > re_max).any() or (np.abs(rho.imag) > im_max).any():
        raise GridTooCoarseForRho(
            f"|Re rho| <= {re_max:.3g}, |Im rho| <= {im_max:.3g} required at "
            f"{q.grid.n_panels} panels; refine the grid")
    return rho


def _cap(rho: np.ndarray) -> np.ndarray:
    """Bucket of each rho: 2^ceil(log2 max(|Im rho|, 1)); blocks of a
    bucket are at most 1/cap long."""
    return 2.0 ** np.ceil(np.log2(np.maximum(np.abs(rho.imag), 1.0)))


def _march(q: Potential, rho: np.ndarray, init: np.ndarray):
    """y, y' at every node, shape (len(rho), len(init), N + 1), for the
    initial data rows init[k] = (y(0), y'(0)); all of rho share one
    bucket."""
    grid = q.grid
    step, N, sa = grid.step, grid.n_panels, grid.shift_a
    for lo, hi in q.fn.seg_bounds:
        if hi - lo > sa and hi > grid.idx_a:
            raise SupportMismatch(
                "method of steps needs segment lengths <= a past x = a")
    max_panels = max(1, int(1.0 / (_cap(rho).max() * step)))
    r = rho[:, None]
    lam = (r * r)[:, None]
    y = np.empty((rho.size, len(init), N + 1), dtype=complex)
    yp = np.empty_like(y)
    y[..., 0], yp[..., 0] = init[:, 0], init[:, 1]
    for (lo, hi), qv in zip(q.fn.seg_bounds, q.fn.seg_values):
        n = hi - lo
        if n == 0:
            continue
        k = -(-n // max_panels)
        cuts = lo + n * np.arange(k + 1) // k
        for b0, b1 in zip(cuts[:-1], cuts[1:]):
            u = np.arange(b1 - b0 + 1) * step
            Cu = np.cos(r * u)[:, None]
            Su = (u * sinc(r * u))[:, None]
            y0, p0 = y[..., b0:b0 + 1], yp[..., b0:b0 + 1]
            yb = y0 * Cu + p0 * Su
            pb = p0 * Cu - lam * y0 * Su
            qb = qv[b0 - lo:b1 - lo + 1]
            if qb.any():
                g = qb * y[..., np.clip(np.arange(b0, b1 + 1) - sa, 0, N)]
                P = cumulative_values(Cu * g, step)
                R = cumulative_values(Su * g, step)
                yb += Su * P - Cu * R
                pb += Cu * P + lam * Su * R
            y[..., b0:b1 + 1], yp[..., b0:b1 + 1] = yb, pb
    return y, yp


def _solution(q: Potential, lam, kind: str, y0, yp0) -> ShootingSolution:
    rho = _check_rho(q, lam)
    y, yp = _march(q, rho, np.array([[y0, yp0]], dtype=complex))
    grid = q.grid
    return ShootingSolution(
        lam=complex(lam), rho=complex(rho[0]), kind=kind,
        y=PiecewiseFn.from_flat(grid, 0, grid.n_panels, y[0, 0]),
        yprime=PiecewiseFn.from_flat(grid, 0, grid.n_panels, yp[0, 0]))


def shoot(q: Potential, lam: complex, kind: str = "S") -> ShootingSolution:
    """Solve the delay equation with S- or C-type initial data."""
    if kind not in ("S", "C"):
        raise ValueError("kind must be 'S' or 'C'")
    return _solution(q, lam, kind, *_S_AND_C["SC".index(kind)])


def shoot_general(q: Potential, lam: complex, y0: complex,
                  yp0: complex) -> ShootingSolution:
    """Solve with arbitrary initial data (y(0), y'(0)) = (y0, yp0)."""
    return _solution(q, lam, "general", y0, yp0)


def char_values_array(q: Potential, lams) -> np.ndarray:
    """(delta_0, delta_1, theta_0, theta_1) per lambda, shape (L, 4), from
    one march of the S and C data per bucket of lambdas."""
    rho = _check_rho(q, lams)
    cap = _cap(rho)
    out = np.empty((rho.size, 4), dtype=complex)
    for c in np.unique(cap):
        sel = cap == c
        y, yp = _march(q, rho[sel], _S_AND_C)
        out[sel] = np.stack([y[:, 0, -1], yp[:, 0, -1], y[:, 1, -1],
                             yp[:, 1, -1]], axis=1)
    return out


def char_values(q: Potential, lam: complex) -> tuple[complex, complex,
                                                     complex, complex]:
    """(delta_0, delta_1, theta_0, theta_1) at one lambda."""
    return tuple(complex(v) for v in char_values_array(q, [lam])[0])
