"""Discretization of the delay-convolution integral operator on L2(3a/2, pi-a).

The operator maps f to

    (M_h f)(x) = integral over t in (3a/2, pi - x + a/2) of
                 K_h(x + t - a/2) * f(t) dt,
    K_h(x) = integral of h over (x, pi),

for a seed function h supported on (5a/2, pi).  Two discretizations are
used:

* ``build_nystrom``: a standalone uniform-node trapezoid Nystrom matrix
  with the moving cut-off imposed by zeroing past-the-line entries and
  halving the boundary entry.  Its weight-symmetrized form is exactly
  symmetric, which makes the dense symmetric eigensolve robust.  Accuracy
  is second order -- good enough for a starting guess.

* the working-grid operator (``apply_M`` / ``operator_matrix``): rows are
  the grid's variable-upper-limit rule (unit weights plus end corrections,
  ``grid.rule_corrections``), the rule the transformed potential's H term
  integrates with.  Eigenpairs from the coarse solve are refined against
  this matrix by Rayleigh-quotient inverse iteration, so the eigen-relation
  M_h e = eta e holds at roundoff level on the working grid.  That exact
  discrete relation is what makes the family cancellations land at 1e-14
  instead of at quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, SupportMismatch, ZeroOperator
from .grid import PI, Grid, PiecewiseFn, norm_l2, rule_corrections


def _check_h(h: PiecewiseFn) -> Grid:
    grid = h.grid
    if (h.i_lo, h.i_hi) != (grid.idx_5a2, grid.n_panels):
        raise SupportMismatch("h must be supported on (5a/2, pi)")
    return grid


def operator_matrix(h: PiecewiseFn, K_h: PiecewiseFn | None = None) -> np.ndarray:
    """Working-grid matrix B with (B f)_i = quadrature of K_h(x_i+t-a/2) f(t).

    Row i integrates over t-nodes of [3a/2, pi - x_i + a/2] with
    ``rule_corrections``; the Hankel samples K_h(x_i + t_j - a/2) are exact
    on the aligned grid and vanish past the cut, where unit weights remain.
    """
    grid = _check_h(h)
    K = K_h if K_h is not None else h.antiderivative_from_right()
    i0, i1 = grid.idx_3a2, grid.idx_pi_a
    m = i1 - i0
    i = np.arange(m + 1)
    off, coef = rule_corrections(m - i)            # row i -> m-i panels
    W = np.ones((m + 1, m + 1))
    np.add.at(W, (i[:, None], off), coef)
    return (W * grid.step) * K.sample_flat(2 * i0 - grid.shift_half
                                           + i[:, None] + i[None, :])


def apply_M(h: PiecewiseFn, f: PiecewiseFn,
            K_h: PiecewiseFn | None = None) -> PiecewiseFn:
    """Apply the integral operator to f sampled on (3a/2, pi-a)."""
    grid = _check_h(h)
    if f.grid != grid or (f.i_lo, f.i_hi) != (grid.idx_3a2, grid.idx_pi_a):
        raise SupportMismatch("f must be supported on (3a/2, pi-a) of h's grid")
    B = operator_matrix(h, K_h)
    g = B @ f.flat_values()
    return PiecewiseFn.from_flat(grid, grid.idx_3a2, grid.idx_pi_a, g)


@dataclass(frozen=True)
class NystromOperator:
    """Trapezoid Nystrom matrix on its own uniform nodes in [3a/2, pi-a]."""

    a: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    kernel: np.ndarray        # cut-off kernel values kappa(x_i, t_j)
    matrix: np.ndarray        # kernel * weights[None, :]
    h: PiecewiseFn
    K_h: PiecewiseFn

    def symmetrized(self) -> np.ndarray:
        s = np.sqrt(self.weights)
        return self.kernel * np.outer(s, s)

    def symmetry_defect(self) -> float:
        S = self.symmetrized()
        return float(np.abs(S - S.T).max())


def build_nystrom(h: PiecewiseFn, n: int = 256) -> NystromOperator:
    """Assemble the trapezoid Nystrom matrix with n panels.

    The cut-off t <= pi - x + a/2 is on the anti-diagonal of the node
    square: entries beyond it are zeroed and the boundary-node entry is
    halved (trapezoid treatment of the moving endpoint, where the kernel
    vanishes anyway).
    """
    if n < 8:
        raise ValueError(f"n={n} too small for the Nystrom build (need >= 8)")
    grid = _check_h(h)
    K = h.antiderivative_from_right()
    lo, hi = grid.x(grid.idx_3a2), grid.x(grid.idx_pi_a)
    nodes = lo + (hi - lo) * np.arange(n + 1) / n
    hstep = (hi - lo) / n
    weights = np.full(n + 1, hstep)
    weights[0] = weights[-1] = hstep / 2
    args = np.minimum(nodes[:, None] + nodes[None, :] - grid.a / 2, PI)
    kernel = np.asarray(K.eval(args.ravel())).reshape(args.shape).astype(float)
    i = np.arange(n + 1)
    cut = i[:, None] + i[None, :]
    kernel = np.where(cut > n, 0.0, kernel)
    kernel = np.where(cut == n, 0.5 * kernel, kernel)
    return NystromOperator(a=grid.a, n=n, nodes=nodes, weights=weights,
                           kernel=kernel, matrix=kernel * weights[None, :],
                           h=h, K_h=K)


@dataclass(frozen=True)
class Eigenpair:
    eta: float
    e: PiecewiseFn            # L2-normalized, sign-fixed
    residual: float           # ||M_h e - eta e||_L2 / ||e||_L2
    coarse_eta: float
    iterations: int


def _select(evals: np.ndarray, which) -> int:
    order = np.argsort(-np.abs(evals))
    if which == "largest":
        return int(order[0])
    if which == "smallest":
        return int(order[-1])
    if isinstance(which, int):
        return int(order[which])
    raise ValueError(f"which={which!r} must be 'largest', 'smallest' or an index")


def leading_real_eigenpair(op: NystromOperator, which="largest",
                           refine: bool = True,
                           residual_tol: float = 1e-8,
                           max_iter: int = 40) -> Eigenpair:
    """Real eigenpair of the operator, refined on the working grid.

    The symmetric eigensolve on the coarse Nystrom matrix provides the
    starting pair; inverse iteration against the working-grid matrix then
    drives the discrete residual to roundoff.
    """
    if np.abs(op.matrix).max() <= 1e-14:
        raise ZeroOperator("integral operator is numerically zero (h == 0?)")
    S = op.symmetrized()
    S = 0.5 * (S + S.T)
    evals, evecs = np.linalg.eigh(S)
    pick = _select(evals, which)
    eta0 = float(evals[pick])
    v_coarse = evecs[:, pick] / np.sqrt(op.weights)

    grid = op.h.grid
    i0, i1 = grid.idx_3a2, grid.idx_pi_a
    xw = grid.x_nodes(i0, i1)
    v = np.interp(xw, op.nodes, v_coarse)
    eta = eta0
    iterations = 0
    if refine:
        B = operator_matrix(op.h, op.K_h)
        ident = np.eye(B.shape[0])
        scale = np.abs(B).sum(axis=1).max()
        for iterations in range(1, max_iter + 1):
            try:
                z = np.linalg.solve(B - eta * ident, v)
            except np.linalg.LinAlgError:
                # shift hit an eigenvalue exactly; nudge off it
                z = np.linalg.solve(B - (eta * (1 + 1e-12) + 1e-300) * ident, v)
            z /= np.linalg.norm(z)
            Bz = B @ z
            eta_new = float(z @ Bz) / float(z @ z)
            res = np.linalg.norm(Bz - eta_new * z)
            v, eta = z, eta_new
            if res <= 1e-13 * max(scale, abs(eta)):
                break
        if abs(eta - eta0) > 0.5 * max(abs(eta0), 1e-30):
            raise ConvergenceFailure(
                f"refined eigenvalue {eta:.6g} drifted from coarse {eta0:.6g}")

    e = PiecewiseFn.from_flat(grid, i0, i1, v)
    nrm = norm_l2(e)
    if nrm == 0:
        raise ConvergenceFailure("eigenvector collapsed to zero")
    e = e * (1.0 / nrm)
    # deterministic sign: nonnegative integral, first-node tiebreak
    total = float(np.real(e.integrate()))
    if abs(total) > 1e-12:
        if total < 0:
            e = -e
    else:
        flat = e.flat_values()
        nz = np.nonzero(np.abs(flat) > 1e-12 * np.abs(flat).max())[0]
        if nz.size and flat[nz[0]] < 0:
            e = -e
    residual = norm_l2(apply_M(op.h, e, op.K_h) - e * eta)
    if refine and residual > residual_tol:
        raise ConvergenceFailure(
            f"eigenpair residual {residual:.3e} above {residual_tol:.1e}")
    return Eigenpair(eta=eta, e=e, residual=residual, coarse_eta=eta0,
                     iterations=iterations)


def normalize_family(h: PiecewiseFn, pair: Eigenpair,
                     target: int) -> tuple[PiecewiseFn, PiecewiseFn]:
    """Rescale h so the chosen eigenvalue becomes target (+1 or -1).

    M is linear in h, so h -> (target/eta) h turns M_h e = eta e into
    M_h' e = target e with the same eigenfunction.
    """
    if target not in (+1, -1):
        raise ValueError("target must be +1 or -1")
    if pair.eta == 0:
        raise ZeroOperator("cannot normalize with a zero eigenvalue")
    h_scaled = h * (target / pair.eta)
    resid = norm_l2(apply_M(h_scaled, pair.e) - pair.e * float(target))
    if resid > 1e-7:
        raise ConvergenceFailure(
            f"normalized family residual {resid:.3e} exceeds 1e-7")
    return h_scaled, pair.e


def eig_report(op: NystromOperator, pair: Eigenpair,
               include_matrix: bool = True) -> dict:
    """JSON-ready dump of the kernel matrix and eigenpair."""
    rep = {
        "a": op.a,
        "n": op.n,
        "eta": pair.eta,
        "coarse_eta": pair.coarse_eta,
        "residual": pair.residual,
        "nodes": op.nodes.tolist(),
        "e_values": pair.e.flat_values().tolist(),
        "symmetry_defect": op.symmetry_defect(),
    }
    if include_matrix:
        rep["kernel_matrix"] = op.matrix.tolist()
    return rep
