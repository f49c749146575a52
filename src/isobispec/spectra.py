"""Zeros of the characteristic functions: contour counts, Newton, certification.

Roots are located in the rho = sqrt(lambda) plane where they are
asymptotically unit-spaced (see ``_OFFSETS``).  ``find_spectrum`` makes
one pass over a sweep rectangle cut into strips midway between
consecutive asymptotic roots.  One contour walk per strip gives both its
argument-principle count and, from the contour moments of log f, an
estimate of each zero (Delves & Lyness, Math. Comp. 21, 1967; Kravanja &
Van Barel, LNM 1727, 2000); Newton polishes the estimates.  A strip whose
count equals its distinct roots certifies them: k distinct zeros in a
region of winding number k are all simple and none is missing.  Strong
potentials shift the low-lying roots by O(1) in rho, so the counts rather
than the asymptotics guarantee completeness.
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
                clearance: float = 1e-12, max_retries: int = 5
                ) -> tuple[int, np.ndarray]:
    """Argument-principle zero count of the characteristic function over a
    rho-rectangle, with its zeros' rho estimated from the contour moments:
    trapezoid phase accumulation with adaptive edge bisection until every
    increment is below pi/2."""
    for attempt in range(max_retries):
        try:
            return _winding(ev, j, rect.shifted(attempt * (1e-4 + 1e-4j)),
                            which, clearance)
        except ContourThroughZero:
            pass
    return _winding(ev, j, rect.shifted(max_retries * (1e-4 + 1e-4j)),
                    which, clearance)


def _winding(ev: CharFnEval, j: int, rect: Rect, which: str,
             clearance: float) -> tuple[int, np.ndarray]:
    f_lam = _FUNCS[which]
    corners = rect.corners()
    edges_z, edges_f = [], []
    for k in range(4):
        z0, z1 = corners[k], corners[(k + 1) % 4]
        n0 = max(8, int(abs(z1 - z0) * 16))
        pts = z0 + (z1 - z0) * np.linspace(0.0, 1.0, n0 + 1)
        vals = f_lam(ev, j, pts ** 2)
        for _ in range(40):
            if np.abs(vals).min() <= clearance:
                zmin = pts[np.abs(vals).argmin()]
                raise ContourThroughZero(
                    f"|f| <= {clearance} on the contour near rho={zmin:.4g}")
            dphi = np.angle(vals[1:] / vals[:-1])
            bad = np.nonzero(np.abs(dphi) >= 0.5 * np.pi)[0]
            if bad.size == 0:
                edges_z.append(pts)
                edges_f.append(vals)
                break
            mids = 0.5 * (pts[bad] + pts[bad + 1])
            mvals = f_lam(ev, j, mids ** 2)
            pts = np.insert(pts, bad + 1, mids)
            vals = np.insert(vals, bad + 1, mvals)
        else:
            raise ContourThroughZero("phase increments did not settle below pi/2")
    # the edges chain corner to corner and the last one ends at z_0
    z = np.concatenate(edges_z)
    f = np.concatenate(edges_f)
    phase = np.concatenate([[0.0], np.cumsum(np.angle(f[1:] / f[:-1]))])
    w = phase[-1] / (2 * PI)
    n = int(round(w))
    if abs(w - n) > 0.1:
        raise ContourThroughZero(f"non-integer winding {w:.3f}")
    log_f = np.log(np.abs(f)) + 1j * (np.angle(f[0]) + phase)
    centre = complex(0.5 * (rect.re_lo + rect.re_hi),
                     0.5 * (rect.im_lo + rect.im_hi))
    return n, _moment_roots(z - centre, log_f, n) + centre


def _moment_roots(zc: np.ndarray, log_f: np.ndarray, k: int) -> np.ndarray:
    """The k zeros, relative to the centre c, inside the closed contour
    zc = z - c, along which log f, continuous from zc[0], rises by 2 pi i k.

    Integrating (z - c)^p f'/f by parts gives their power sums
    s_p = k zc[0]^p - (p / 2 pi i) oint (z - c)^(p-1) log f dz (trapezoid
    rule on the contour points); Newton's identities turn these into the
    monic polynomial whose roots are returned."""
    dz = np.diff(zc)
    coef = [1.0 + 0j]
    s = []
    for p in range(1, k + 1):
        g = zc ** (p - 1) * log_f
        s.append(k * zc[0] ** p
                 - p * np.sum(0.5 * (g[1:] + g[:-1]) * dz) / (2j * PI))
        coef.append(-sum(coef[i] * s[p - 1 - i] for i in range(p)) / p)
    return np.roots(coef)


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
    consecutive asymptotic roots.  One contour walk per strip gives its
    winding count and an estimate of each zero; Newton polishes every
    estimate, and a polished root is filed under the strip only if it lies
    inside it.  A root is certified when its strip holds exactly its count
    of distinct roots; ``sweep_count`` is the sum of the strip counts.
    """
    rho_lo, rho_hi = 0.05, n_eigs + (0.25 if j == 1 else 0.75)
    sweep = Rect(rho_lo, rho_hi, -im_halfwidth, im_halfwidth)
    starts = [s for s in seeds(j, n_eigs + 1, which) if rho_lo < s < rho_hi]
    cuts = [s + 0.5 for s in starts[:-1]]
    strips = [Rect(lo, hi, -im_halfwidth, im_halfwidth)
              for lo, hi in zip([rho_lo, *cuts], [*cuts, rho_hi])]
    counts, cert = [], {}
    for strip in strips:
        count, estimates = count_zeros(ev, j, strip, which)
        roots: list[complex] = []
        for est in estimates:
            try:
                lam = complex(refine(ev, j, est, which, tol=tol))
            except (NoConvergence, LeftTrustRegion):
                continue
            rho = complex(np.sqrt(lam))
            if (strip.re_lo <= rho.real <= strip.re_hi
                    and abs(rho.imag) <= im_halfwidth
                    and all(abs(lam - z) > 1e-6 for z in roots)):
                roots.append(lam)
        counts.append(count)
        cert.update(dict.fromkeys(roots, len(roots) == count))

    lams = _order_lams(list(cert))[:n_eigs]
    f = _FUNCS[which]
    lam0 = complex(f(ev, j, 0.0))
    return Spectrum(j=j, which=which, eigenvalues=tuple(lams),
                    residuals=tuple(float(abs(f(ev, j, z))) for z in lams),
                    certified=tuple(cert[z] for z in lams),
                    sweep_rect=sweep, sweep_count=sum(counts),
                    # a strip yields at most its count of roots
                    complete=len(cert) == sum(counts),
                    lambda_zero_value=lam0 if abs(lam0) < 1e-6 else None)
