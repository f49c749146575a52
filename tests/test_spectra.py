"""Zero finding: seeds, Newton refinement, argument-principle certification."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import isobispec.spectra as spectra_mod
from isobispec.charfn import make_evaluator
from isobispec.errors import LeftTrustRegion, NoConvergence
from isobispec.potential import build_potential, make_family
from isobispec.spectra import (Rect, count_zeros, find_spectrum, refine,
                               residual_bound, seeds)


class TestSeeds:
    def test_values(self):
        assert seeds(0, 3) == [1.0, 2.0, 3.0]
        assert seeds(1, 3) == [0.5, 1.5, 2.5]
        assert seeds(0, 3, "theta") == [0.5, 1.5, 2.5]
        assert seeds(1, 3, "theta") == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError):
            seeds(0, 0)


class TestRefine:
    def test_zero_potential_exact(self, q_zero):
        ev = make_evaluator(q_zero)
        assert abs(refine(ev, 0, 2.0) - 4.0) <= 1e-10
        assert abs(refine(ev, 1, 2.5) - 6.25) <= 1e-10

    def test_converges_quickly_from_good_seed(self, q_zero, monkeypatch):
        # three Newton iterations at most from the asymptotic seed
        calls = {"n": 0}
        ev = make_evaluator(q_zero)
        orig = spectra_mod._FUNCS["delta"]

        def counting(ev_, j_, lam_):
            calls["n"] += 1
            return orig(ev_, j_, lam_)

        monkeypatch.setitem(spectra_mod._FUNCS, "delta", counting)
        lam = refine(ev, 0, 3.0)
        assert abs(lam - 9.0) <= 1e-10
        assert calls["n"] <= 4          # one batched eval per iteration

    def test_leaves_trust_region(self, q_zero):
        ev = make_evaluator(q_zero)
        re_max, _ = ev.rho_trust
        with pytest.raises(LeftTrustRegion):
            refine(ev, 0, re_max * 1.05)


class TestCountZeros:
    def test_zero_potential_rects(self, q_zero):
        ev = make_evaluator(q_zero)
        assert count_zeros(ev, 0, Rect(0.5, 3.5, -0.5, 0.5))[0] == 3
        assert count_zeros(ev, 1, Rect(0.6, 3.6, -0.5, 0.5))[0] == 3

    def test_empty_rect(self, q_zero):
        ev = make_evaluator(q_zero)
        count, est = count_zeros(ev, 0, Rect(0.2, 0.8, -0.3, 0.3))
        assert count == 0 and est.size == 0

    def test_contour_through_zero_retries(self, q_zero):
        # right edge sits exactly on the root rho = 2; the retry shift
        # (1e-4 + 1e-4i) deterministically moves it inside.  Strips sharing
        # a cut shift the same way, which keeps strip counts additive.
        ev = make_evaluator(q_zero)
        assert count_zeros(ev, 0, Rect(1.5, 2.0, -0.5, 0.5))[0] == 1

    @pytest.mark.parametrize("which,j,off",
                             [("delta", 0, 0.0), ("delta", 1, 0.5),
                              ("theta", 0, 0.5), ("theta", 1, 0.0)])
    def test_estimates_near_free_roots(self, q_zero, which, j, off):
        # a strip of the sweep's height, 1.25 <= Re rho <= 3.25, holding two
        # free roots n - off
        ev = make_evaluator(q_zero)
        count, est = count_zeros(ev, j, Rect(1.25, 3.25, -2.0, 2.0), which)
        free = [n - off for n in range(1, 6) if 1.25 < n - off < 3.25]
        assert count == len(est) == len(free)
        for rho in free:
            assert np.abs(est - rho).min() <= 0.05


class TestFindSpectrum:
    def test_zero_potential_exactness(self, q_zero):
        # free zeros (n - offset)^2, n >= 1; theta_1's zero at rho = 0 lies
        # left of the sweep and is reported as lambda_zero_value instead
        ev = make_evaluator(q_zero)
        for which, j, off in (("delta", 0, 0.0), ("delta", 1, 0.5),
                              ("theta", 0, 0.5), ("theta", 1, 0.0)):
            sp = find_spectrum(ev, j, 15, which)
            assert len(sp.eigenvalues) == 15
            for n, lam in enumerate(sp.eigenvalues, start=1):
                assert abs(lam - (n - off) ** 2) <= 1e-10
            assert sp.complete
            assert (sp.lambda_zero_value is not None) == (
                (which, j) == ("theta", 1))

    def test_residual_bounds(self, q_zero):
        ev = make_evaluator(q_zero)
        for j in (0, 1):
            sp = find_spectrum(ev, j, 10)
            for lam, res in zip(sp.eigenvalues, sp.residuals):
                assert res <= residual_bound(j, lam)

    def test_theta0_residual_scale(self, q_alpha1):
        # theta_0 tends to cos(rho pi), which is O(1), so its bound grows
        # like sqrt|lambda| (as delta_1's), not like |lambda| (as delta_0's)
        assert residual_bound(0, 1e4, which="theta") == pytest.approx(1e-7)
        assert residual_bound(0, 1e4) == pytest.approx(1e-5)
        ev = make_evaluator(q_alpha1)
        for j in (0, 1):
            sp = find_spectrum(ev, j, 8, "theta")
            assert len(sp.eigenvalues) == 8 and sp.complete
            for lam, res in zip(sp.eigenvalues, sp.residuals):
                assert res <= residual_bound(j, lam, which="theta")

    def test_fixture_twenty_distinct_certified(self, q_alpha1):
        ev = make_evaluator(q_alpha1)
        sp = find_spectrum(ev, 0, 20)
        assert len(sp.eigenvalues) == 20
        assert all(sp.certified)
        assert sp.sweep_count == 20
        lams = np.array(sp.eigenvalues)
        d = np.abs(lams[:, None] - lams[None, :]) + np.eye(20)
        assert d.min() > 1e-6

    def test_fixture_alpha_invariance(self, family_default, q_alpha0):
        ev0 = make_evaluator(q_alpha0)
        ev2 = make_evaluator(build_potential(family_default, 2))
        for j in (0, 1):
            s0 = find_spectrum(ev0, j, 10)
            s2 = find_spectrum(ev2, j, 10)
            assert len(s0.eigenvalues) == len(s2.eigenvalues)
            for a, b in zip(s0.eigenvalues, s2.eigenvalues):
                assert abs(a - b) <= 1e-7

    def test_records(self, q_zero):
        ev = make_evaluator(q_zero)
        sp = find_spectrum(ev, 0, 3)
        recs = sp.to_records()
        assert [r["n"] for r in recs] == [1, 2, 3]
        assert all(r["certified"] for r in recs)
        assert sp.lambda_zero_value is None     # delta_0(0) = pi != 0

    @pytest.mark.parametrize("which,j,n_eigs",
                             [("delta", 0, 15), ("delta", 1, 15),
                              ("theta", 0, 8)])
    def test_strip_counts_tile_the_sweep(self, q_alpha1, which, j, n_eigs):
        ev = make_evaluator(q_alpha1)
        sp = find_spectrum(ev, j, n_eigs, which)
        assert sp.complete
        assert sp.sweep_count == count_zeros(ev, j, sp.sweep_rect, which)[0]

    def test_one_refine_per_counted_root(self, q_alpha1, monkeypatch):
        # every root comes from its strip's contour estimate: no Newton from
        # asymptotic seeds and no hunt
        ev = make_evaluator(q_alpha1)
        calls = {"n": 0}
        real_refine = spectra_mod.refine

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real_refine(*args, **kwargs)

        monkeypatch.setattr(spectra_mod, "refine", counting)
        for j in (0, 1):
            calls["n"] = 0
            sp = find_spectrum(ev, j, 15)
            assert sp.complete and all(sp.certified)
            assert calls["n"] == sp.sweep_count

    def test_unreachable_pair_is_not_certified(self, q_alpha1, monkeypatch):
        # Newton refusing complex seeds cannot reach the complex pair
        # (delta_0: rho ~ 2.42 +- 0.41i, delta_1: rho ~ 1.74 +- 1.10i); the
        # pair's strip stays short and only its own roots lose the
        # certificate.  Estimates of real roots carry roundoff imaginary
        # parts, hence the 0.1 threshold.
        ev = make_evaluator(q_alpha1)
        real_refine = spectra_mod.refine

        def refine_real_seeds(ev_, j_, seed, *args, **kwargs):
            if abs(complex(seed).imag) > 0.1:
                raise NoConvergence("complex seed")
            return real_refine(ev_, j_, seed, *args, **kwargs)

        monkeypatch.setattr(spectra_mod, "refine", refine_real_seeds)
        for j, (lo, hi) in ((0, (1.5, 2.5)), (1, (1.0, 2.0))):
            sp = find_spectrum(ev, j, 15)
            assert sp.sweep_count == 15
            assert len(sp.eigenvalues) == 13
            assert not sp.complete
            assert count_zeros(ev, j, Rect(lo, hi, -2.0, 2.0))[0] == 2 + sum(
                lo < np.sqrt(z).real <= hi for z in sp.eigenvalues)
            for lam, cert in zip(sp.eigenvalues, sp.certified):
                assert abs(lam.imag) <= 1e-12
                assert cert == (not lo < np.sqrt(lam).real <= hi)


@settings(max_examples=5, deadline=None)
@given(a_frac=st.fractions(Fraction(1, 3), Fraction(2, 5), max_denominator=50)
       .filter(lambda f: f < Fraction(2, 5)),
       re=st.floats(-2, 2), im=st.floats(0.25, 2))
@example(a_frac=Fraction(1, 3), re=0.5, im=1.5)
def test_spectra_certified_across_delays(a_frac, re, im):
    # delays across [1/3, 2/5), including the node coincidence at pi/3
    fam = make_family(a_frac=a_frac, grid_n=1024)
    ev0 = make_evaluator(build_potential(fam, 0))
    ev = make_evaluator(build_potential(fam, complex(re, im)))
    for which in ("delta", "theta"):
        for j in (0, 1):
            sp = find_spectrum(ev, j, 6, which)
            assert sp.complete and all(sp.certified)
            if which == "delta":
                ref = find_spectrum(ev0, j, 6)
                assert len(ref.eigenvalues) == len(sp.eigenvalues)
                for z0, z in zip(ref.eigenvalues, sp.eigenvalues):
                    assert abs(z - z0) <= 1e-7
