"""Independent oracle: direct solution of the delay equation.

Solves  -y'' + q(x) y(x-a) = lambda y  on (0, pi) by the method of steps
in Volterra form: with rho^2 = lambda and g(s) = q(s) y(s-a),

    y(x)  = y_free(x) + int_a^x (x-s) sinc(rho (x-s)) g(s) ds,
    y'(x) = y_free'(x) + int_a^x cos(rho (x-s)) g(s) ds.

Marching segment-by-segment over the breakpoint-aligned grid, the delayed
factor y(s-a) is always known from earlier segments (segment lengths never
exceed a in the supported delay range), so no iteration is needed.

Two accumulation strategies share the same panel quadrature:

* split form (O(N) per lambda): expand the kernel into cos(rho x),
  x sinc(rho x) times running integrals of cos(rho s) g and s sinc(rho s) g.
  The expansion cancels catastrophically once exp(|Im rho| pi) eats the
  mantissa, so it is used only for |Im rho| <= 4.
* direct form (O(N^2) per lambda): per-node quadrature of the unexpanded
  kernel, stable for any trusted rho.

Characteristic values are read off at pi: delta_j = S^(j)(pi), the
Robin-side theta_j = C^(j)(pi), where S, C carry the standard initial
conditions S(0)=0, S'(0)=1 and C(0)=1, C'(0)=0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import sinc
from .errors import GridTooCoarseForRho, SupportMismatch
from .grid import PiecewiseFn, cumulative_values, segment_weights, varlimit_rows
from .potential import Potential

_SPLIT_IM_MAX = 4.0


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


def _check_rho(q: Potential, lam: complex) -> complex:
    rho = complex(np.sqrt(complex(lam)))
    re_max, im_max = q.grid.rho_trust
    if abs(rho.real) > re_max or abs(rho.imag) > im_max:
        raise GridTooCoarseForRho(
            f"|Re rho| <= {re_max:.3g}, |Im rho| <= {im_max:.3g} required at "
            f"{q.grid.n_panels} panels; refine the grid")
    return rho


def _march_split(q: Potential, rho: complex, yf, ypf):
    """O(N) advance via the split-kernel running integrals."""
    grid = q.grid
    step = grid.step
    N = grid.n_panels
    sa = grid.shift_a
    y = np.zeros(N + 1, dtype=complex)
    yp = np.zeros(N + 1, dtype=complex)
    lam = rho * rho
    P = 0.0 + 0.0j
    R = 0.0 + 0.0j
    for (lo, hi), qv in zip(q.fn.seg_bounds, q.fn.seg_values):
        if hi == lo:
            continue
        idx = np.arange(lo, hi + 1)
        x = idx * step
        ydel = y[np.clip(idx - sa, 0, N)]
        g = qv * ydel
        cos_x = np.cos(rho * x)
        xsinc = x * sinc(rho * x)
        Pn = P + cumulative_values(cos_x * g, step)
        Rn = R + cumulative_values(xsinc * g, step)
        y[lo:hi + 1] = yf(x) + xsinc * Pn - cos_x * Rn
        yp[lo:hi + 1] = ypf(x) + cos_x * Pn + lam * xsinc * Rn
        P, R = Pn[-1], Rn[-1]
    return y, yp


def _march_direct(q: Potential, rho: complex, yf, ypf):
    """O(N^2) advance with the unexpanded kernel (large |Im rho|)."""
    grid = q.grid
    step = grid.step
    N = grid.n_panels
    sa = grid.shift_a
    y = np.zeros(N + 1, dtype=complex)
    yp = np.zeros(N + 1, dtype=complex)
    lam = rho * rho
    done: list[tuple[np.ndarray, np.ndarray]] = []   # (t-nodes, weighted g)
    for (lo, hi), qv in zip(q.fn.seg_bounds, q.fn.seg_values):
        if hi == lo:
            continue
        m = hi - lo
        idx = np.arange(lo, hi + 1)
        x = idx * step
        g = qv * y[np.clip(idx - sa, 0, N)]
        acc_y = yf(x).astype(complex)
        acc_p = ypf(x).astype(complex)
        for t, wg in done:
            d = x[:, None] - t[None, :]
            acc_y += (d * sinc(rho * d)) @ wg
            acc_p += np.cos(rho * d) @ wg
        rows = varlimit_rows(m, step)
        d = x[:, None] - x[None, :]
        wg_local = rows * g[None, :]
        acc_y += np.einsum("ij,ij->i", wg_local, d * sinc(rho * d))
        acc_p += np.einsum("ij,ij->i", wg_local, np.cos(rho * d))
        y[lo:hi + 1] = acc_y
        yp[lo:hi + 1] = acc_p
        done.append((x, segment_weights(m, step) * g))
    return y, yp


def _shoot_values(q: Potential, lam: complex, y0: complex, yp0: complex):
    rho = _check_rho(q, lam)
    grid = q.grid
    sa = grid.shift_a
    for (lo, hi), _ in zip(q.fn.seg_bounds, q.fn.seg_values):
        if hi - lo > sa and hi > grid.idx_a:
            raise SupportMismatch(
                "method of steps needs segment lengths <= a past x = a")
    lam_c = rho * rho

    def yf(x):
        return y0 * np.cos(rho * x) + yp0 * x * sinc(rho * x)

    def ypf(x):
        return -y0 * lam_c * x * sinc(rho * x) + yp0 * np.cos(rho * x)

    if abs(rho.imag) <= _SPLIT_IM_MAX:
        y, yp = _march_split(q, rho, yf, ypf)
    else:
        y, yp = _march_direct(q, rho, yf, ypf)
    return rho, y, yp


def shoot(q: Potential, lam: complex, kind: str = "S") -> ShootingSolution:
    """Solve the delay equation with S- or C-type initial data."""
    if kind == "S":
        y0, yp0 = 0.0, 1.0
    elif kind == "C":
        y0, yp0 = 1.0, 0.0
    else:
        raise ValueError("kind must be 'S' or 'C'")
    rho, y, yp = _shoot_values(q, lam, y0, yp0)
    grid = q.grid
    return ShootingSolution(
        lam=complex(lam), rho=rho, kind=kind,
        y=PiecewiseFn.from_flat(grid, 0, grid.n_panels, y),
        yprime=PiecewiseFn.from_flat(grid, 0, grid.n_panels, yp))


def shoot_general(q: Potential, lam: complex, y0: complex,
                  yp0: complex) -> ShootingSolution:
    """Solve with arbitrary initial data (y(0), y'(0)) = (y0, yp0)."""
    rho, y, yp = _shoot_values(q, lam, complex(y0), complex(yp0))
    grid = q.grid
    return ShootingSolution(
        lam=complex(lam), rho=rho, kind="general",
        y=PiecewiseFn.from_flat(grid, 0, grid.n_panels, y),
        yprime=PiecewiseFn.from_flat(grid, 0, grid.n_panels, yp))


def char_values(q: Potential, lam: complex) -> tuple[complex, complex,
                                                     complex, complex]:
    """(delta_0, delta_1, theta_0, theta_1) at lambda, from two shots."""
    s = shoot(q, lam, "S")
    c = shoot(q, lam, "C")
    return (s.value_at_pi, s.deriv_at_pi, c.value_at_pi, c.deriv_at_pi)
