"""Zeros of the characteristic functions: seeding, Newton, certification.

Roots are located in the rho = sqrt(lambda) plane where they are
asymptotically unit-spaced (see ``_OFFSETS``).  ``find_spectrum`` makes
one pass over a sweep rectangle cut into strips midway between
consecutive asymptotic roots: Newton from every asymptotic root, one
argument-principle count per strip (Delves & Lyness, Math. Comp. 21,
1967), and a dense hunt only in a strip that holds fewer distinct roots
than its count.  A strip whose count equals its distinct roots certifies
them: k distinct zeros in a region of winding number k are all simple and
none is missing.  Strong potentials shift the low-lying roots by O(1) in
rho, so the counts rather than seed quality guarantee completeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import CharFnEval, eval_delta, eval_theta
from .errors import ContourThroughZero, LeftTrustRegion, NoConvergence
from .grid import PI

_FUNCS = {"delta": eval_delta, "theta": eval_theta}


# rho_n ~ n - offset for the n-th zero of the free limits delta_0 ~
# sin(rho pi)/rho, delta_1 ~ cos(rho pi), theta_0 ~ cos(rho pi) and
# theta_1 ~ -rho sin(rho pi).
_OFFSETS = {("delta", 0): 0.0, ("delta", 1): 0.5,
            ("theta", 0): 0.5, ("theta", 1): 1.0}

# Growth in |lambda| of the residual accepted at a zero.  theta_0 tends to
# cos(rho pi), which is O(1), so it shares the sqrt scale of delta_1.
_RESIDUAL_SCALES = {("delta", 0): lambda m: m, ("delta", 1): math.sqrt,
                    ("theta", 0): math.sqrt, ("theta", 1): math.sqrt}


def residual_bound(j: int, lam: complex, tol: float = 1e-9,
                   which: str = "delta") -> float:
    """Admissible |char fn| at a reported zero, scaled to the leading term."""
    return tol * max(1.0, _RESIDUAL_SCALES[(which, j)](abs(lam)))


def seeds(j: int, n_max: int, which: str = "delta") -> list[float]:
    """Asymptotic rho positions of the first n_max zeros."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    off = _OFFSETS[(which, j)]
    return [n - off for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the rho plane."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def corners(self) -> list[complex]:
        return [complex(self.re_lo, self.im_lo), complex(self.re_hi, self.im_lo),
                complex(self.re_hi, self.im_hi), complex(self.re_lo, self.im_hi)]

    def shifted(self, d: complex) -> "Rect":
        return Rect(self.re_lo + d.real, self.re_hi + d.real,
                    self.im_lo + d.imag, self.im_hi + d.imag)


def _eval_rho(ev: CharFnEval, j: int, rho: np.ndarray, which: str) -> np.ndarray:
    return _FUNCS[which](ev, j, np.asarray(rho) ** 2)


def refine(ev: CharFnEval, j: int, seed: complex, which: str = "delta",
           max_iter: int = 50, tol: float = 1e-9) -> complex:
    """Newton in rho from a seed; returns lambda = rho^2.

    The derivative is a central difference with step 1e-6 (1 + |rho|).
    Convergence requires both the residual bound and a final step below
    1e-10.
    """
    rho = complex(seed)
    re_max, im_max = ev.rho_trust
    f = _FUNCS[which]
    for _ in range(max_iter):
        if abs(rho.real) > re_max or abs(rho.imag) > im_max:
            raise LeftTrustRegion(f"iterate rho={rho:.4g} left the trusted region")
        hstep = 1e-6 * (1.0 + abs(rho))
        vals = f(ev, j, np.array([rho, rho + hstep, rho - hstep]) ** 2)
        val, vp, vm = vals
        deriv = (vp - vm) / (2 * hstep)
        if deriv == 0:
            raise NoConvergence(f"zero derivative at rho={rho:.4g}")
        step = val / deriv
        rho = rho - step
        bound = residual_bound(j, rho * rho, tol, which)
        if abs(step) < 1e-10 and abs(val) <= bound:
            return rho * rho
    raise NoConvergence(f"no convergence from seed {seed:.4g} after {max_iter} its")


def count_zeros(ev: CharFnEval, j: int, rect: Rect, which: str = "delta",
                clearance: float = 1e-12, max_retries: int = 5) -> int:
    """Argument-principle zero count of the characteristic function over a
    rho-rectangle: trapezoid phase accumulation with adaptive edge bisection
    until every increment is below pi/2."""
    for attempt in range(max_retries + 1):
        r = rect if attempt == 0 else rect.shifted(attempt * (1e-4 + 1e-4j))
        try:
            return _winding(ev, j, r, which, clearance)
        except ContourThroughZero:
            if attempt == max_retries:
                raise
    raise ContourThroughZero("unreachable")


def _winding(ev: CharFnEval, j: int, rect: Rect, which: str,
             clearance: float) -> int:
    corners = rect.corners()
    total = 0.0
    for k in range(4):
        z0, z1 = corners[k], corners[(k + 1) % 4]
        n0 = max(8, int(abs(z1 - z0) * 16))
        pts = z0 + (z1 - z0) * np.linspace(0.0, 1.0, n0 + 1)
        vals = _eval_rho(ev, j, pts, which)
        for _ in range(40):
            if np.abs(vals).min() <= clearance:
                zmin = pts[np.abs(vals).argmin()]
                raise ContourThroughZero(
                    f"|f| <= {clearance} on the contour near rho={zmin:.4g}")
            dphi = np.angle(vals[1:] / vals[:-1])
            bad = np.nonzero(np.abs(dphi) >= 0.5 * np.pi)[0]
            if bad.size == 0:
                total += dphi.sum()
                break
            mids = 0.5 * (pts[bad] + pts[bad + 1])
            mvals = _eval_rho(ev, j, mids, which)
            pts = np.insert(pts, bad + 1, mids)
            vals = np.insert(vals, bad + 1, mvals)
        else:
            raise ContourThroughZero("phase increments did not settle below pi/2")
    w = total / (2 * PI)
    n = round(w)
    if abs(w - n) > 0.1:
        raise ContourThroughZero(f"non-integer winding {w:.3f}")
    return int(n)


@dataclass(frozen=True)
class Spectrum:
    """Ordered zeros of one characteristic function with certificates.

    ``complete`` means every strip of the sweep rectangle holds exactly as
    many distinct roots as its winding count, so no zero there is missing.
    """

    j: int
    which: str
    eigenvalues: tuple[complex, ...]
    residuals: tuple[float, ...]
    certified: tuple[bool, ...]
    sweep_rect: Rect
    sweep_count: int
    complete: bool
    lambda_zero_value: complex | None = None

    def to_records(self) -> list[dict]:
        return [{
            "j": self.j, "n": n + 1,
            "re_lambda": lam.real, "im_lambda": lam.imag,
            "residual": res, "certified": cert,
        } for n, (lam, res, cert) in enumerate(
            zip(self.eigenvalues, self.residuals, self.certified))]


def _order_lams(lams: list[complex], tol: float = 1e-6) -> list[complex]:
    """Order by real part, then imaginary part, treating real parts closer
    than tol as ties -- stable against roundoff in conjugate pairs."""
    lams = sorted(lams, key=lambda z: z.real)
    out: list[complex] = []
    i = 0
    while i < len(lams):
        k = i
        while k + 1 < len(lams) and lams[k + 1].real - lams[k].real <= tol:
            k += 1
        out.extend(sorted(lams[i:k + 1], key=lambda z: z.imag))
        i = k + 1
    return out


def find_spectrum(ev: CharFnEval, j: int, n_eigs: int, which: str = "delta",
                  im_halfwidth: float = 2.0, tol: float = 1e-9) -> Spectrum:
    """Locate the first n_eigs zeros (ordered by Re lambda, then Im).

    The sweep rectangle 0.05 <= Re rho <= n_eigs + 3/4 (j = 0) or + 1/4
    (j = 1), |Im rho| <= im_halfwidth, is cut into strips midway between
    consecutive asymptotic roots.  Newton runs from every asymptotic root
    in the sweep and each root found is filed under its strip; each strip
    is counted once by the argument principle, and a strip short of its
    count is hunted once by Newton from a dense 41 x 33 grid, smallest |f|
    first.  A root is certified when its strip holds exactly its count of
    distinct roots; ``sweep_count`` is the sum of the strip counts.
    """
    rho_lo, rho_hi = 0.05, n_eigs + (0.25 if j == 1 else 0.75)
    sweep = Rect(rho_lo, rho_hi, -im_halfwidth, im_halfwidth)
    starts = [s for s in seeds(j, n_eigs + 1, which) if rho_lo < s < rho_hi]
    cuts = [s + 0.5 for s in starts[:-1]]
    strips = [Rect(lo, hi, -im_halfwidth, im_halfwidth)
              for lo, hi in zip([rho_lo, *cuts], [*cuts, rho_hi])]
    found: list[list[complex]] = [[] for _ in strips]

    def polish(seed: complex) -> None:
        """Newton from seed; file a new root in the sweep under its strip."""
        try:
            lam = complex(refine(ev, j, seed, which, tol=tol))
        except (NoConvergence, LeftTrustRegion):
            return
        rho = complex(np.sqrt(lam))
        if (rho_lo <= rho.real <= rho_hi and abs(rho.imag) <= im_halfwidth
                and all(abs(lam - z) > 1e-6 for zs in found for z in zs)):
            found[int(np.searchsorted(cuts, rho.real))].append(lam)

    for s in starts:
        polish(s)
    counts = [count_zeros(ev, j, strip, which) for strip in strips]
    for strip, roots, count in zip(strips, found, counts):
        if len(roots) >= count:
            continue
        re = np.linspace(strip.re_lo, strip.re_hi, 41)
        im = np.linspace(strip.im_lo, strip.im_hi, 33)
        grid_pts = (re[:, None] + 1j * im[None, :]).ravel()
        for idx in np.argsort(np.abs(_eval_rho(ev, j, grid_pts, which))):
            if len(roots) >= count:
                break
            polish(grid_pts[idx])

    exact = [len(roots) == count for roots, count in zip(found, counts)]
    cert = {z: ok for roots, ok in zip(found, exact) for z in roots}
    lams = _order_lams(list(cert))[:n_eigs]
    f = _FUNCS[which]
    lam0 = complex(f(ev, j, 0.0))
    return Spectrum(j=j, which=which, eigenvalues=tuple(lams),
                    residuals=tuple(float(abs(f(ev, j, z))) for z in lams),
                    certified=tuple(cert[z] for z in lams),
                    sweep_rect=sweep, sweep_count=sum(counts),
                    complete=all(exact),
                    lambda_zero_value=lam0 if abs(lam0) < 1e-6 else None)
