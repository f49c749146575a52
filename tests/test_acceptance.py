"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Everything runs on the reference fixture: a = 0.35 pi,
h == 1 on (5a/2, pi), largest-|eta| eigenpair, 2048-panel grid request
(snapped to 2080).
"""

import time

import numpy as np
import pytest

from isobispec.charfn import compute_Q, eval_delta, eval_theta, make_evaluator
from isobispec.grid import PI, norm_l2
from isobispec.potential import (build_potential, make_family, omega,
                                 potential_from_callable, zero_potential)
from isobispec.shooting import char_values_array
from isobispec.spectra import find_spectrum

ALPHAS_NONZERO = (1, -2, 0.5 + 1.5j)
ALPHAS_ALL = (0,) + ALPHAS_NONZERO

_cache: dict = {}


def _report(crit: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {crit}: {'PASS' if ok else 'FAIL'} ({detail})")


def lambda_grid() -> np.ndarray:
    return np.concatenate([np.linspace(-5.0, 120.0, 38),
                           np.array([3 + 4j, -2 - 7j])]).astype(complex)


@pytest.fixture(scope="module")
def evaluators(family_default):
    pots = {a: build_potential(family_default, a) for a in ALPHAS_ALL}
    evs = {a: make_evaluator(pots[a]) for a in ALPHAS_ALL}
    return pots, evs


def _spectra(evs):
    if "spectra" not in _cache:
        t0 = time.perf_counter()
        res = {(a, j): find_spectrum(evs[a], j, 15)
               for a in ALPHAS_ALL for j in (0, 1)}
        _cache["spectra"] = (res, time.perf_counter() - t0)
    return _cache["spectra"]


def test_criterion_01_eigenpair_residual():
    t0 = time.perf_counter()
    fam = make_family(grid_n=2048)
    elapsed = time.perf_counter() - t0
    ok = fam.eig_residual <= 1e-7 and elapsed <= 5.0
    _report("1 eigenpair residual",
            ok, f"residual={fam.eig_residual:.3e} <= 1e-7, {elapsed:.2f}s <= 5s")
    assert fam.eig_residual <= 1e-7
    assert elapsed <= 5.0


def test_criterion_02_delta_function_invariance(family_default, evaluators):
    _, evs = evaluators
    t0 = time.perf_counter()
    lams = lambda_grid()
    base = {j: eval_delta(evs[0], j, lams) for j in (0, 1)}
    worst = 0.0
    for a in ALPHAS_NONZERO:
        for j in (0, 1):
            va = eval_delta(evs[a], j, lams)
            dev = np.abs(va - base[j]) / (
                1.0 + np.maximum(np.abs(va), np.abs(base[j])))
            worst = max(worst, float(dev.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed <= 30.0
    _report("2 delta invariance", ok,
            f"max rel dev={worst:.3e} <= 1e-7, {elapsed:.2f}s <= 30s")
    assert worst <= 1e-7
    assert elapsed <= 30.0


def test_criterion_03_spectrum_invariance(evaluators):
    _, evs = evaluators
    res, elapsed = _spectra(evs)
    worst = 0.0
    for j in (0, 1):
        ref = res[(0, j)].eigenvalues
        for a in ALPHAS_NONZERO:
            got = res[(a, j)].eigenvalues
            assert len(got) == 15 and len(ref) == 15
            assert all(res[(a, j)].certified)
            worst = max(worst, max(abs(x - y) for x, y in zip(got, ref)))
    ok = worst <= 1e-7 and elapsed <= 120.0
    _report("3 spectrum invariance", ok,
            f"max |dlambda|={worst:.3e} <= 1e-7, {elapsed:.1f}s <= 120s")
    assert worst <= 1e-7
    assert elapsed <= 120.0


def test_criterion_04_w0_structural_identity(family_default, evaluators):
    _, evs = evaluators
    g = family_default.grid
    h = family_default.h
    worst_zero = worst_right = 0.0
    for a in ALPHAS_ALL:
        w0 = evs[a].w0.w
        worst_zero = max(worst_zero,
                         norm_l2(w0, g.x(g.idx_a), g.x(g.idx_5a2)))
        tail = w0.restrict(g.idx_5a2, g.n_panels)
        worst_right = max(worst_right, norm_l2(tail - h))
    ok = worst_zero <= 1e-7 and worst_right <= 1e-7
    _report("4 w0 structural identity", ok,
            f"||w0||_(a,5a/2)={worst_zero:.3e}, ||w0-h||_(5a/2,pi)="
            f"{worst_right:.3e}, both <= 1e-7")
    assert worst_zero <= 1e-7
    assert worst_right <= 1e-7


def test_criterion_05_omega_equals_int_w0(family_default, evaluators,
                                          grid_default):
    pots, evs = evaluators
    worst = 0.0
    for a in ALPHAS_ALL:
        worst = max(worst, abs(complex(evs[a].omega_w0)
                               - complex(omega(pots[a]))))
    rng = np.random.default_rng(314)
    c = rng.normal(size=4)
    q_rand = potential_from_callable(
        grid_default,
        lambda x: c[0] * np.sin(x) + c[1] * np.cos(2 * x)
        + c[2] * np.sin(4 * x + 0.7) + c[3])
    ev_rand = make_evaluator(q_rand)
    rand_dev = abs(complex(ev_rand.omega_w0) - complex(omega(q_rand)))
    worst = max(worst, rand_dev)
    ok = worst <= 1e-7
    _report("5 omega identity", ok,
            f"max |omega - int w0|={worst:.3e} <= 1e-7 "
            f"(incl. random non-family q: {rand_dev:.3e})")
    assert worst <= 1e-7


def test_criterion_06_Q_route_equivalence(evaluators):
    pots, _ = evaluators
    q = pots[1]
    worst = 0.0
    q_re, q_orig = compute_Q(q, "reordered"), compute_Q(q, "original")
    for k in (0, 1):
        worst = max(worst, norm_l2(q_re[k] - q_orig[k]))
    ok = worst <= 1e-6
    _report("6 Q route equivalence", ok, f"L2 dev={worst:.3e} <= 1e-6")
    assert worst <= 1e-6


def test_criterion_07_closed_form_vs_shooting(evaluators):
    pots, evs = evaluators
    q, ev = pots[1], evs[1]
    lams = lambda_grid()
    sh = char_values_array(q, lams)
    cf = np.stack([eval_delta(ev, 0, lams), eval_delta(ev, 1, lams),
                   eval_theta(ev, 0, lams), eval_theta(ev, 1, lams)], axis=1)
    worst = (np.abs(sh - cf)
             / np.maximum(1.0, np.maximum(np.abs(sh), np.abs(cf)))).max()
    ok = worst <= 1e-7
    _report("7 closed form vs shooting", ok,
            f"max rel dev={worst:.3e} <= 1e-7 (incl. complex lambda)")
    assert worst <= 1e-7


def test_criterion_08_zero_potential_exactness(grid_default):
    ev = make_evaluator(zero_potential(grid_default))
    worst = 0.0
    sp0 = find_spectrum(ev, 0, 15)
    for n, lam in enumerate(sp0.eigenvalues, start=1):
        worst = max(worst, abs(lam - n * n))
    sp1 = find_spectrum(ev, 1, 15)
    for n, lam in enumerate(sp1.eigenvalues, start=1):
        worst = max(worst, abs(lam - (n - 0.5) ** 2))
    d0_at_0 = abs(eval_delta(ev, 0, 0.0) - PI)
    ok = worst <= 1e-10 and d0_at_0 <= 1e-10
    _report("8 zero-potential exactness", ok,
            f"max |dlambda|={worst:.3e} <= 1e-10, |delta0(0)-pi|="
            f"{d0_at_0:.3e} <= 1e-10")
    assert worst <= 1e-10
    assert d0_at_0 <= 1e-10


def test_criterion_09_remark2_discrimination(family_b1_default):
    fam = family_b1_default
    pots = {a: build_potential(fam, a) for a in (0, 1, -1)}
    evs = {a: make_evaluator(pots[a]) for a in (0, 1, -1)}

    w1_dev = max(norm_l2(evs[a].w1.w - evs[0].w1.w) for a in (1, -1))
    slope_dev = abs(omega(pots[1]) - omega(pots[-1]) - 4.0 * fam.int_e)

    lams = lambda_grid()
    rho = np.sqrt(lams)
    dw = complex(omega(pots[1]) - omega(pots[-1]))
    lhs = eval_theta(evs[1], 0, lams) - eval_theta(evs[-1], 0, lams)
    rhs = dw * np.sin(rho * (PI - fam.a)) / (2 * rho)
    theta_dev = float(np.abs(lhs - rhs).max())

    if fam.degenerate:
        _report("9 remark-2 discrimination", True,
                f"DEGENERATE int e={fam.int_e:.3e}; omega channel vanishes "
                "(reported, not asserted)")
        assert w1_dev <= 1e-7
        return

    ok = w1_dev <= 1e-7 and slope_dev <= 1e-8 and theta_dev <= 1e-8
    _report("9 remark-2 discrimination", ok,
            f"w1 inv={w1_dev:.3e} <= 1e-7, slope dev={slope_dev:.3e} <= 1e-8,"
            f" theta0 identity={theta_dev:.3e} <= 1e-8")
    assert w1_dev <= 1e-7
    assert slope_dev <= 1e-8
    assert theta_dev <= 1e-8


def test_criterion_10_negative_control():
    fam_raw = make_family(grid_n=2048, skip_normalize=True)
    pots = {a: build_potential(fam_raw, a) for a in (0, 1)}
    evs = {a: make_evaluator(pots[a]) for a in (0, 1)}
    lams = lambda_grid()
    worst = 0.0
    for j in (0, 1):
        v1 = eval_delta(evs[1], j, lams)
        v0 = eval_delta(evs[0], j, lams)
        dev = np.abs(v1 - v0) / (1.0 + np.maximum(np.abs(v1), np.abs(v0)))
        worst = max(worst, float(dev.max()))
    ok = worst >= 1e-3
    _report("10 negative control", ok,
            f"un-normalized family breaks invariance by {worst:.3e} >= 1e-3")
    assert worst >= 1e-3


def test_criterion_11_certification_completeness(evaluators):
    _, evs = evaluators
    res, _ = _spectra(evs)
    ok = True
    detail = []
    for j in (0, 1):
        sp = res[(1, j)]
        ok &= sp.sweep_count == len(sp.eigenvalues) == 15
        ok &= all(sp.certified)
        detail.append(f"j={j}: sweep={sp.sweep_count}, found="
                      f"{len(sp.eigenvalues)}, certified={all(sp.certified)}")
    _report("11 certification completeness", ok, "; ".join(detail))
    for j in (0, 1):
        sp = res[(1, j)]
        assert sp.sweep_count == len(sp.eigenvalues) == 15
        assert all(sp.certified)
