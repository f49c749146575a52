"""Closed-form characteristic functions for both boundary-condition pairs.

Everything is driven by the transformed potential

    w_k = q                on (a, 3a/2) u (pi-a/2, pi)
        = q + Q_k          on (3a/2, pi-a/2)

where Q_k collects the quadratic-in-q correction.  Two evaluation routes
for Q_k are provided:

* ``reordered`` (the default): cumulative integrals of q plus one
  variable-upper-limit quadrature (the integral operator's rule),

      Q_k(x) = F(x) G(x) - (-1)^k H(x),
      F(x) = int_a^{x-a/2} q,   G(x) = int_{x+a/2}^pi q,
      H(x) = int_a^{pi-x+a/2} q(t) K_q(x+t-a/2) dt.

* ``original``: the nested triple-integral form, evaluated by building the
  t-integrand (with all its shifted jump locations split onto nodes) and
  cumulating it.  Slower and fully independent -- used as the oracle for
  the reordered route.

The Dirichlet-side functions (delta_0, delta_1) and the Robin-side ones
(theta_0, theta_1) are entire in lambda and even in rho = sqrt(lambda).
For |rho| below a small threshold the verbatim forms lose digits to the
1/rho^2 cancellation, so a rearranged singularity-free path built on
sinc products takes over; both paths are exposed so their agreement can
be tested in the crossover annulus.

Every large-rho value (and the small-rho theta_1) needs the oscillatory
sum  S(rho) = sum_k W_k cos|sin(rho p_k),  p_k = pi + a - 2x_k,  over the
quadrature weights W_k of w_0 or w_1.  The nodes a..pi sit symmetrically
about the zero-phase node x = (pi + a)/2, so the evaluator folds each
weight (breakpoint nodes shared by two segments carry two) onto that
centred lattice once: p = +/-2hk, and the sum becomes sum_k We_k cos(2 rho
h k) or sum_k Wo_k sin(2 rho h k) with even/odd weights We_k = W_{c-k} +
W_{c+k}, Wo_k = W_{c-k} - W_{c+k}.  Blocking k = b*B + r, B ~ sqrt(K),
and angle addition (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973) turn
it into two small matrix products with O(sqrt(K)) cos/sin calls per
point.  The trig functions are taken directly, not as powers of
exp(2i rho h), which keeps sin accurate to full relative precision at
small rho.  Against the term-by-term sum (kept in the tests as the
oracle) the error stays below 1e-13 * sum_k |W_k| cosh(|Im rho| |p_k|)
over the whole trust region; measured about 1e-14 of that scale.

The omega constant used by the evaluators is the discrete integral of w_0
over (a, pi).  Analytically it equals the integral of the potential; using
the w_0 form makes the large-rho / small-rho rearrangement an exact
discrete identity instead of one that holds only to quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarseForRho, SupportMismatch
from .grid import (PI, Grid, PiecewiseFn, cumulative_values, rule_corrections,
                   segment_weights)
from .potential import Potential

# |rho| at or below which the singularity-free small-rho path is used.
SMALL_RHO = 1e-3


def sinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z, complex-safe, Taylor series below |z| = 1e-4."""
    z = np.asarray(z)
    small = np.abs(z) <= 1e-4
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(small, 1.0, np.divide(np.sin(zs), np.where(small, 1.0, zs)))
    if small.any():
        z2 = np.where(small, z, 0.0) ** 2
        taylor = 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0 *
                                   (1.0 - z2 / 72.0)))
        out = np.where(small, taylor, out)
    return out


# ---------------------------------------------------------------------------
# transformed potentials
# ---------------------------------------------------------------------------

def _cumulative_flat(q: Potential) -> np.ndarray:
    return q.fn.cumulative().flat_values()


def _h_values(q: Potential) -> np.ndarray:
    """H(x) = int_a^{pi-x+a/2} q(t) K_q(x+t-a/2) dt on the x-nodes of
    (3a/2, pi-a/2).

    The cut stays in [a, pi-a] and K_q vanishes at and past node N, so per
    q-segment the unit weights give one correlation of K_q (clipped at N)
    with q, plus ``rule_corrections`` at the left end and min(cut, end).
    """
    grid = q.grid
    s = grid.shift_half
    N = grid.n_panels
    cum = _cumulative_flat(q)
    k_all = cum[-1] - cum                       # K_q at every node
    x_idx = np.arange(grid.idx_3a2, grid.idx_pi_a2 + 1)
    out = np.zeros(x_idx.shape, dtype=np.result_type(q.fn.dtype, float))
    q_in = q.fn.restrict(grid.idx_a, grid.idx_pi_a)
    for (lo, hi), qv in zip(q_in.seg_bounds, q_in.seg_values):
        if hi == lo:
            continue
        arg = np.arange(x_idx[0] + lo, x_idx[-1] + hi + 1) - s
        out += np.convolve(k_all[np.minimum(arg, N)], qv[::-1], "valid")
        off, coef = rule_corrections(np.clip(N + s - x_idx, lo, hi) - lo)
        kc = k_all[np.minimum(x_idx[:, None] + lo + off - s, N)]
        out += (coef * qv[off] * kc).sum(axis=1)
    return out * grid.step


def _q_parts(q: Potential) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x-nodes index array, F*G, H) over (3a/2, pi-a/2)."""
    grid = q.grid
    s = grid.shift_half
    cum = _cumulative_flat(q)
    x_idx = np.arange(grid.idx_3a2, grid.idx_pi_a2 + 1)
    F = cum[x_idx - s] - cum[grid.idx_a]
    G = cum[-1] - cum[x_idx + s]
    return x_idx, F * G, _h_values(q)


def _q_parts_original(q: Potential) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same interface as _q_parts, via the nested-integral form.

    The t-integrand q(t+a)P(t) - q(t)R(t) and the convolution term
    J(t) = int_{t+a}^pi q(tau-t) q(tau) dtau are tabulated on (a, pi-a)
    with every shifted jump location (breakpoints, breakpoints -/+ a,
    breakpoints + t) split onto nodes, then cumulated so each Q_k(x) is a
    difference of running integrals.
    """
    grid = q.grid
    step = grid.step
    N = grid.n_panels
    s = grid.shift_half
    sa = grid.shift_a
    cum = _cumulative_flat(q)
    k_all = cum[-1] - cum
    qflat = q.fn.flat_values()
    dtype = np.result_type(q.fn.dtype, float)

    bset = set(grid.bp_idx)
    t_lo, t_hi = grid.idx_a, grid.idx_pi_a

    def subsegments(lo, hi, extra=()):
        cuts = {lo, hi}
        cuts.update(b for b in bset if lo < b < hi)
        cuts.update(b for b in extra if lo < b < hi)
        cc = sorted(cuts)
        return list(zip(cc, cc[1:]))

    def seg_samples(i0, i1):
        """One-sided-correct q samples on [i0, i1] (inside one q-segment)."""
        for (lo, hi), v in zip(q.fn.seg_bounds, q.fn.seg_values):
            if lo <= i0 and i1 <= hi:
                return v[i0 - lo:i1 - lo + 1]
        # range crosses a jump only when it starts/ends exactly on it;
        # fall back to flat values (right limits)
        return qflat[i0:i1 + 1]

    # J(t) on t-nodes of [a, pi-a]
    t_nodes = np.arange(t_lo, t_hi + 1)
    J = np.zeros(t_nodes.shape, dtype=dtype)
    for ti, t in enumerate(t_nodes):
        lo, hi = t + sa, N
        if hi <= lo:
            continue
        total = 0.0
        for (c0, c1) in subsegments(lo, hi, extra=(b + t for b in bset)):
            if c1 == c0:
                continue
            w = segment_weights(c1 - c0, step)
            total += w @ (seg_samples(c0, c1) * seg_samples(c0 - t, c1 - t))
        J[ti] = total

    # t-integrand: q(t+a) * P(t) - q(t) * R(t), with P = int_a^t q,
    # R = int_{t+a}^pi q; cumulated over (a, pi-a)
    P = cum[t_nodes] - cum[grid.idx_a]
    R = k_all[np.clip(t_nodes + sa, 0, N)]
    shifted_cuts = tuple(b - sa for b in bset)
    cumT = np.zeros(t_nodes.shape, dtype=dtype)
    cumJ = np.zeros(t_nodes.shape, dtype=dtype)
    run_t = 0.0
    run_j = 0.0
    for (c0, c1) in subsegments(t_lo, t_hi, extra=shifted_cuts):
        sl = slice(c0 - t_lo, c1 - t_lo + 1)
        if c1 == c0:
            continue
        qa_seg = seg_samples(c0 + sa, c1 + sa)
        q_seg = seg_samples(c0, c1)
        T = qa_seg * P[sl] - q_seg * R[sl]
        cumT[sl] = run_t + cumulative_values(T, step)
        cumJ[sl] = run_j + cumulative_values(J[sl], step)
        run_t = cumT[c1 - t_lo]
        run_j = cumJ[c1 - t_lo]

    x_idx = np.arange(grid.idx_3a2, grid.idx_pi_a2 + 1)
    lo_pos = x_idx - s - t_lo                  # t-index of x - a/2
    FG = run_t - cumT[lo_pos]                  # int_{x-a/2}^{pi-a} (qa*P - q*R)
    Hx = run_j - cumJ[lo_pos]
    return x_idx, FG, Hx


def _Q_values(q: Potential, method: str
              ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """x-node indices of (3a/2, pi-a/2) and the values of (Q_0, Q_1) there,
    Q_k = F*G - (-1)^k H, from one route."""
    if method == "reordered":
        x_idx, FG, H = _q_parts(q)
    elif method == "original":
        x_idx, FG, H = _q_parts_original(q)
    else:
        raise ValueError(f"unknown method {method!r}")
    return x_idx, (FG - H, FG + H)


def _Q_pair(grid: Grid, x_idx, Qv) -> tuple[PiecewiseFn, PiecewiseFn]:
    return tuple(PiecewiseFn.from_flat(grid, int(x_idx[0]), int(x_idx[-1]), v)
                 for v in Qv)


def compute_Q(q: Potential, method: str = "reordered"
              ) -> tuple[PiecewiseFn, PiecewiseFn]:
    """Quadratic corrections (Q_0, Q_1) on (3a/2, pi-a/2) from one route."""
    return _Q_pair(q.grid, *_Q_values(q, method))


@dataclass(frozen=True)
class WFunction:
    """Transformed potential w_k on (a, pi)."""

    k: int
    w: PiecewiseFn
    provenance: str


def _w_from_Q(q: Potential, k: int, x_idx, Qv, provenance) -> WFunction:
    """w_k from q and the values Qv of Q_k on the x-nodes x_idx."""
    grid = q.grid
    bounds = []
    vals = []
    for (lo, hi), v in zip(q.fn.seg_bounds, q.fn.seg_values):
        if hi <= grid.idx_a:
            continue
        bounds.append((lo, hi))
        if grid.idx_3a2 <= lo and hi <= grid.idx_pi_a2:
            vals.append(v + Qv[lo - x_idx[0]: hi - x_idx[0] + 1])
        else:
            vals.append(v.astype(np.result_type(v.dtype, Qv.dtype)))
    return WFunction(k=k, w=PiecewiseFn(grid, bounds, vals),
                     provenance=provenance)


def compute_w(q: Potential, k: int, method: str = "reordered") -> WFunction:
    """w_k = q + Q_k restricted correction; defined on (a, pi).

    method='family' assembles the branchwise form using the family's
    operator data (requires a family potential); it must agree with the
    general routes and is mainly a cross-check.
    """
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if method == "family":
        return _w_family(q, k)
    x_idx, Qv = _Q_values(q, method)
    return _w_from_Q(q, k, x_idx, Qv[k], provenance=method)


def _w_family(q: Potential, k: int) -> WFunction:
    from . import integral_op

    if q.family is None:
        raise SupportMismatch("family route needs a family-built potential")
    spec = q.family
    grid = q.grid
    alpha = q.alpha
    e_flat = spec.e.flat_values()
    Me = integral_op.apply_M(spec.h, spec.e, spec.K_h).flat_values()
    sign = -1.0 if k == 0 else 1.0
    dtype = np.result_type(q.fn.dtype, float)
    bounds, vals = [], []
    for (lo, hi), v in zip(q.fn.seg_bounds, q.fn.seg_values):
        if hi <= grid.idx_a:
            continue
        bounds.append((lo, hi))
        if (lo, hi) == (grid.idx_3a2, grid.idx_pi_a):
            vals.append(alpha * (e_flat + sign * Me).astype(dtype))
        elif (lo, hi) == (grid.idx_2a, grid.idx_pi_a2):
            idx = np.arange(lo, hi + 1)
            kv = spec.K_h.sample_flat(idx + grid.shift_half)
            cv = spec.cum_e.sample_flat(idx - grid.shift_half)
            vals.append(v + alpha * kv * cv)
        else:
            vals.append(v.astype(dtype))
    return WFunction(k=k, w=PiecewiseFn(grid, bounds, vals),
                     provenance="family")


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharFnEval:
    """Evaluator bundle for delta_0/1 and theta_0/1 at complex lambda.

    Two omega values are carried.  ``omega`` is the verbatim potential
    integral over (a, pi) and feeds the theta functions, where the omega
    term is a genuine feature.  ``omega_w0`` is the discrete integral of
    w_0; the delta functions use it in both evaluation paths so that the
    small-rho rearrangement (which eliminates omega through the w_0
    integral) is an exact discrete identity.  The two values agree to
    quadrature accuracy (checked by the acceptance suite).
    """

    grid: Grid
    a: float
    w0: WFunction
    w1: WFunction
    omega: complex                 # integral of the potential over (a, pi)
    omega_w0: complex              # discrete integral of w_0 over (a, pi)
    Q: tuple[PiecewiseFn, PiecewiseFn] = field(repr=False, default=None)  # reordered
    _x: np.ndarray = field(repr=False, default=None)
    _wt0: np.ndarray = field(repr=False, default=None)  # weights * w0 samples
    _wt1: np.ndarray = field(repr=False, default=None)
    _fold0: np.ndarray = field(repr=False, default=None)  # _fold of _wt0
    _fold1: np.ndarray = field(repr=False, default=None)

    @property
    def rho_trust(self) -> tuple[float, float]:
        return self.grid.rho_trust


def _concat_weighted(w: PiecewiseFn) -> tuple[np.ndarray, np.ndarray]:
    """(node indices, quadrature weights * samples) over w's segments; the
    shared endpoint of adjacent segments appears once per segment."""
    idx, wts = [], []
    for (lo, hi), v in zip(w.seg_bounds, w.seg_values):
        if hi == lo:
            continue
        idx.append(np.arange(lo, hi + 1))
        wts.append(segment_weights(hi - lo, w.grid.step) * v)
    return np.concatenate(idx), np.concatenate(wts)


def _fold(grid: Grid, idx: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """Fold node weights onto the centred lattice and block them.

    The phase p = pi + a - 2x vanishes at node c = N/2 + a/(2h) and the
    nodes idx_a..N sit symmetrically at c -/+ k, k = 0..K, with p = +/-2hk.
    Returns shape (2, C, B): [0] holds the even weights W_{c-k} + W_{c+k}
    (W_c alone at k = 0), [1] the odd weights W_{c-k} - W_{c+k}, both
    zero-padded and laid out as k = b*B + r with B = ceil(sqrt(K+1)).
    """
    K = grid.n_panels // 2 - grid.shift_half
    lattice = np.zeros(2 * K + 1, dtype=wt.dtype)
    np.add.at(lattice, idx - grid.idx_a, wt)
    left, right = lattice[K::-1], lattice[K:]          # W_{c-k}, W_{c+k}
    even = left + right
    even[0] = lattice[K]
    B = math.isqrt(K) + 1                              # ceil(sqrt(K+1))
    C = -(-(K + 1) // B)
    out = np.zeros((2, C * B), dtype=wt.dtype)
    out[0, :K + 1] = even
    out[1, :K + 1] = left - right
    return out.reshape(2, C, B)


def make_evaluator(q: Potential) -> CharFnEval:
    """Build the characteristic-function evaluator for a potential from the
    reordered route for w_0 and w_1; ``Q`` holds that route's (Q_0, Q_1)."""
    x_idx, Qv = _Q_values(q, "reordered")
    w0 = _w_from_Q(q, 0, x_idx, Qv[0], provenance="reordered")
    w1 = _w_from_Q(q, 1, x_idx, Qv[1], provenance="reordered")
    idx, wt0 = _concat_weighted(w0.w)
    _, wt1 = _concat_weighted(w1.w)

    def _tidy(z: complex) -> complex:
        z = complex(z)
        return z.real if abs(z.imag) < 1e-14 * (1 + abs(z.real)) else z

    om_w0 = _tidy(wt0.sum())
    om_q = _tidy(q.fn.integrate(q.grid.x(q.grid.idx_a), PI))
    return CharFnEval(grid=q.grid, a=q.a, w0=w0, w1=w1, omega=om_q,
                      omega_w0=om_w0, Q=_Q_pair(q.grid, x_idx, Qv),
                      _x=idx * q.grid.step, _wt0=wt0, _wt1=wt1,
                      _fold0=_fold(q.grid, idx, wt0),
                      _fold1=_fold(q.grid, idx, wt1))


def _rho_of(ev: CharFnEval, lam: np.ndarray) -> np.ndarray:
    rho = np.sqrt(lam.astype(complex))
    re_max, im_max = ev.rho_trust
    if (np.abs(rho.real) > re_max).any() or (np.abs(rho.imag) > im_max).any():
        raise GridTooCoarseForRho(
            f"|Re rho| <= {re_max:.3g}, |Im rho| <= {im_max:.3g} required at "
            f"{ev.grid.n_panels} panels; refine the grid")
    return rho


def _osc_integral(ev: CharFnEval, fold: np.ndarray, rho: np.ndarray,
                  kind: str) -> np.ndarray:
    """sum_k W_k trig(rho p_k), p_k = pi + a - 2x_k, from the folded weights.

    On the centred lattice the sum is sum_k We_k cos(t k) (cos) or
    sum_k Wo_k sin(t k) (sin) with t = 2 rho h.  Writing k = b*B + r, angle
    addition splits each trig term into cos/sin(t r) times cos/sin(t B b):
    two (M x B)(B x C) products and a row dot, with O(sqrt(K)) trig calls
    per point instead of one per node.
    """
    n_blocks, B = fold.shape[1:]
    t = (2.0 * ev.grid.step) * rho.reshape(-1, 1)
    tr = t * np.arange(B)
    tb = t * (B * np.arange(n_blocks))
    cr, sr, cb, sb = np.cos(tr), np.sin(tr), np.cos(tb), np.sin(tb)
    if kind == "cos":
        w = fold[0].T
        out = (cb * (cr @ w)).sum(axis=1) - (sb * (sr @ w)).sum(axis=1)
    else:
        w = fold[1].T
        out = (sb * (cr @ w)).sum(axis=1) + (cb * (sr @ w)).sum(axis=1)
    return out.reshape(rho.shape)


def _eval(ev: CharFnEval, which: str, j: int, lam, path: str = "auto"):
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    if path not in ("auto", "large", "small"):
        raise ValueError(f"unknown path {path!r}")
    scalar = np.ndim(lam) == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    rho = _rho_of(ev, lam_arr)
    if path == "auto":
        small = np.abs(rho) <= SMALL_RHO
        out = np.empty(lam_arr.shape, dtype=complex)
        if small.any():
            out[small] = _eval_path(ev, which, j, lam_arr[small], rho[small], "small")
        if (~small).any():
            out[~small] = _eval_path(ev, which, j, lam_arr[~small], rho[~small], "large")
    else:
        out = _eval_path(ev, which, j, lam_arr, rho, path)
    return out[0] if scalar else out


def _eval_path(ev, which, j, lam, rho, path):
    a = ev.a
    om = ev.omega
    if which == "delta":
        om = ev.omega_w0
        wt, fold = ev._wt0, ev._fold0
        if path == "large":
            if j == 0:
                ic = _osc_integral(ev, fold, rho, "cos")
                return (np.sin(rho * PI) / rho
                        - om * np.cos(rho * (PI - a)) / (2 * rho**2)
                        + ic / (2 * rho**2))
            isn = _osc_integral(ev, fold, rho, "sin")
            return (np.cos(rho * PI) + om * np.sin(rho * (PI - a)) / (2 * rho)
                    - isn / (2 * rho))
        # singularity-free rearrangement (uses omega = int w0 exactly)
        x = ev._x
        if j == 0:
            ker = ((PI - x)[None, :] * (x - a)[None, :]
                   * sinc(rho[:, None] * (PI - x)[None, :])
                   * sinc(rho[:, None] * (x - a)[None, :]))
            return PI * sinc(rho * PI) + ker @ wt
        ker = ((x - a)[None, :] * np.cos(rho[:, None] * (PI - x)[None, :])
               * sinc(rho[:, None] * (x - a)[None, :]))
        return np.cos(rho * PI) + ker @ wt

    wt, fold = ev._wt1, ev._fold1
    if j == 0:
        if path == "large":
            js = _osc_integral(ev, fold, rho, "sin")
            return (np.cos(rho * PI) + om * np.sin(rho * (PI - a)) / (2 * rho)
                    + js / (2 * rho))
        x = ev._x
        phase = PI - 2.0 * x + a
        ker = (phase[None, :] / 2.0) * sinc(rho[:, None] * phase[None, :])
        return (np.cos(rho * PI)
                + om * ((PI - a) / 2.0) * sinc(rho * (PI - a))
                + ker @ wt)
    jc = _osc_integral(ev, fold, rho, "cos")
    if path == "large":
        head = -rho * np.sin(rho * PI)
    else:
        head = -lam * PI * sinc(rho * PI)
    return head + (om / 2.0) * np.cos(rho * (PI - a)) + jc / 2.0


def eval_delta(ev: CharFnEval, j: int, lam, path: str = "auto"):
    """Dirichlet-side characteristic function delta_j at lambda = rho^2."""
    return _eval(ev, "delta", j, lam, path)


def eval_theta(ev: CharFnEval, j: int, lam, path: str = "auto"):
    """Robin-side characteristic function theta_j at lambda = rho^2."""
    return _eval(ev, "theta", j, lam, path)
