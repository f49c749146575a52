"""Transformed potentials and characteristic-function evaluation."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isobispec.charfn import (_eval_path, _h_values, _osc_integral, compute_Q,
                              compute_w, eval_delta, eval_theta,
                              make_evaluator, sinc)
from isobispec.errors import GridTooCoarseForRho
from isobispec.grid import PI, Grid, norm_l2, segment_weights
from isobispec.integral_op import operator_matrix
from isobispec.potential import (build_potential, make_family, omega,
                                 potential_from_callable)

ALPHAS = (0, 1, -2, 0.5 + 1.5j)


class TestSinc:
    def test_matches_direct_at_moderate_args(self):
        z = np.array([0.5, 2.0, -3.0, 1 + 1j, -2 - 0.5j])
        assert_allclose(sinc(z), np.sin(z) / z, rtol=1e-15)

    def test_taylor_window_continuity(self):
        for z in (9.9e-5, 1.01e-4, (7e-5) * (1 + 1j)):
            z = complex(z)
            ref = complex(np.sin(complex(z, 0) if z.imag == 0 else z) / z)
            assert abs(complex(sinc(np.array(z))) - ref) < 1e-15

    def test_at_zero(self):
        assert sinc(np.array(0.0)) == 1.0


class TestComputeQ:
    def test_zero_potential(self, q_zero):
        for Q in compute_Q(q_zero):
            assert norm_l2(Q) == 0.0

    def test_routes_agree(self, q_alpha1):
        q_re = compute_Q(q_alpha1, "reordered")
        q_orig = compute_Q(q_alpha1, "original")
        for k in (0, 1):
            assert norm_l2(q_re[k] - q_orig[k]) <= 1e-6

    def test_routes_agree_general_q(self, grid_default):
        rng = np.random.default_rng(42)
        c = rng.normal(size=4)
        q = potential_from_callable(
            grid_default,
            lambda x: c[0] * np.sin(x) + c[1] * np.cos(2 * x)
            + c[2] * np.sin(3 * x + 0.3) + c[3])
        q_re = compute_Q(q, "reordered")
        q_orig = compute_Q(q, "original")
        for k in (0, 1):
            assert norm_l2(q_re[k] - q_orig[k]) <= 1e-6

    def test_family_structure(self, family_default, q_alpha1):
        # on (pi-a, 2a) the correction vanishes; on (3a/2, pi-a) it equals
        # -(-1)^k alpha eigsign e
        g = family_default.grid
        e = family_default.e
        for k, Q in enumerate(compute_Q(q_alpha1)):
            assert norm_l2(Q, g.x(g.idx_pi_a), g.x(g.idx_2a)) <= 1e-12
            expect = e * (-((-1.0) ** k) * 1.0 * family_default.eigsign)
            mid = Q.restrict(g.idx_3a2, g.idx_pi_a)
            assert norm_l2(mid - expect) <= 1e-7

    def test_method_validation(self, q_zero):
        with pytest.raises(ValueError):
            compute_Q(q_zero, "nested")
        with pytest.raises(ValueError):
            compute_w(q_zero, 0, "nested")
        with pytest.raises(ValueError):
            compute_w(q_zero, 2)

    def test_evaluator_carries_reordered_pair(self, q_alpha1):
        ev = make_evaluator(q_alpha1)
        for Q_ev, Q in zip(ev.Q, compute_Q(q_alpha1)):
            assert np.array_equal(Q_ev.flat_values(), Q.flat_values())


class TestComputeW:
    def test_family_B_w0_collapses(self, family_default):
        g = family_default.grid
        for alpha in ALPHAS:
            q = build_potential(family_default, alpha)
            w0 = compute_w(q, 0).w
            assert norm_l2(w0, g.x(g.idx_a), g.x(g.idx_5a2)) <= 1e-7
            h_tail = w0.seg_values[-1] - family_default.h.seg_values[-1]
            assert np.abs(h_tail).max() <= 1e-7

    def test_family_B1_w1_invariant(self, family_b1_default):
        base = compute_w(build_potential(family_b1_default, 0), 1).w
        for alpha in (1, -1, 2, 0.5 + 1.5j):
            w1 = compute_w(build_potential(family_b1_default, alpha), 1).w
            assert norm_l2(w1 - base) <= 1e-7

    def test_family_B_w1_depends_on_alpha(self, family_default, q_alpha1,
                                          q_alpha0):
        # sign-specific cancellation: for k=1 the correction doubles instead
        w1 = compute_w(q_alpha1, 1).w
        w0 = compute_w(q_alpha0, 1).w
        assert norm_l2(w1 - w0) >= 0.1 * 1.0 * norm_l2(family_default.e)
        # the difference is exactly 2 alpha e on (3a/2, pi-a)
        g = family_default.grid
        diff = (w1 - w0).restrict(g.idx_3a2, g.idx_pi_a)
        assert norm_l2(diff - family_default.e * 2.0) <= 1e-7

    def test_family_route_matches_reordered(self, q_alpha1):
        for k in (0, 1):
            wr = compute_w(q_alpha1, k, "reordered").w
            wf = compute_w(q_alpha1, k, "family").w
            assert norm_l2(wr - wf) <= 1e-12

    def test_w_equals_q_outside_correction_zone(self, q_alpha1):
        g = q_alpha1.grid
        w = compute_w(q_alpha1, 0).w
        # (a, 3a/2) and (pi-a/2, pi): w == q exactly
        assert np.array_equal(w.seg_values[0], q_alpha1.fn.seg_values[1])
        assert np.array_equal(w.seg_values[-2], q_alpha1.fn.seg_values[-2])
        assert np.array_equal(w.seg_values[-1], q_alpha1.fn.seg_values[-1])


class TestOmegaIdentity:
    def test_family_members(self, family_default):
        for alpha in ALPHAS:
            q = build_potential(family_default, alpha)
            ev = make_evaluator(q)
            assert abs(complex(ev.omega_w0) - complex(omega(q))) <= 1e-7

    def test_random_smooth_q(self, grid_default):
        rng = np.random.default_rng(2024)
        for _ in range(3):
            c = rng.normal(size=4)
            q = potential_from_callable(
                grid_default,
                lambda x: c[0] * np.sin(x) + c[1] * np.cos(2 * x)
                + c[2] * np.sin(5 * x) + c[3])
            ev = make_evaluator(q)
            assert abs(complex(ev.omega_w0) - complex(omega(q))) <= 1e-7


class TestZeroPotentialForms:
    def test_delta(self, q_zero):
        ev = make_evaluator(q_zero)
        for lam in (1.0, 2.25, -4.0, 3 + 4j):
            rho = complex(np.sqrt(complex(lam)))
            assert abs(eval_delta(ev, 0, lam) - np.sin(rho * PI) / rho) < 1e-12
            assert abs(eval_delta(ev, 1, lam) - np.cos(rho * PI)) < 1e-12

    def test_delta0_at_zero_is_pi(self, q_zero):
        ev = make_evaluator(q_zero)
        assert abs(eval_delta(ev, 0, 0.0) - PI) < 1e-12

    def test_theta(self, q_zero):
        ev = make_evaluator(q_zero)
        for lam in (1.0, 6.25, -1.0):
            rho = complex(np.sqrt(complex(lam)))
            assert abs(eval_theta(ev, 0, lam) - np.cos(rho * PI)) < 1e-12
            assert abs(eval_theta(ev, 1, lam) + rho * np.sin(rho * PI)) < 1e-12


class TestEvaluationPaths:
    def test_consistency_in_annulus(self, q_alpha1):
        ev = make_evaluator(q_alpha1)
        rng = np.random.default_rng(7)
        rhos = np.array([r * np.exp(1j * ph)
                         for r in (1.5e-3, 3e-3, 5e-3, 9.9e-3)
                         for ph in rng.uniform(0, 2 * PI, 5)])
        lams = rhos ** 2
        for fn in (eval_delta, eval_theta):
            for j in (0, 1):
                big = fn(ev, j, lams, path="large")
                small = fn(ev, j, lams, path="small")
                rel = np.abs(big - small) / (
                    1.0 + np.maximum(np.abs(big), np.abs(small)))
                assert rel.max() <= 1e-10

    def test_entirety_proxy_at_zero(self, q_alpha1):
        # the large-rho path extrapolated along lambda -> 0 matches the
        # small-rho value at 0
        ev = make_evaluator(q_alpha1)
        at0 = eval_delta(ev, 0, 0.0)
        lams = np.array([1e-4, 5e-5, 2.5e-5])
        vals = eval_delta(ev, 0, lams, path="large")
        # Richardson: vals ~ at0 + c*lam  (delta_0 analytic in lambda)
        extr = vals[2] + (vals[2] - vals[1])
        assert abs(extr - at0) <= 1e-8 * (1 + abs(at0))

    def test_evenness_in_rho(self, q_alpha1):
        ev = make_evaluator(q_alpha1)
        rng = np.random.default_rng(31)
        rhos = rng.uniform(0.3, 6, 20) + 1j * rng.uniform(-2, 2, 20)
        for which in ("delta", "theta"):
            for j in (0, 1):
                vp = _eval_path(ev, which, j, rhos**2, rhos, "large")
                vm = _eval_path(ev, which, j, rhos**2, -rhos, "large")
                assert (np.abs(vp - vm) <= 1e-12 * (1 + np.abs(vp))).all()

    def test_auto_path_dispatch(self, q_alpha1):
        ev = make_evaluator(q_alpha1)
        lams = np.array([1e-8, 4.0])       # one below SMALL_RHO^2, one above
        out = eval_delta(ev, 0, lams)
        assert abs(out[0] - eval_delta(ev, 0, 1e-8, path="small")) == 0.0
        assert abs(out[1] - eval_delta(ev, 0, 4.0, path="large")) == 0.0

    def test_unknown_path_rejected(self, q_alpha1):
        ev = make_evaluator(q_alpha1)
        for fn in (eval_delta, eval_theta):
            with pytest.raises(ValueError):
                fn(ev, 0, 4.0, path="lareg")


def _direct_osc(ev, wt, rho, kind):
    """sum of wt * trig(rho (pi + a - 2x)) term by term: the kernel's oracle."""
    phase = PI - 2.0 * ev._x + ev.a
    fn = np.cos if kind == "cos" else np.sin
    return fn(rho[:, None] * phase[None, :]) @ wt


class TestOscKernel:
    """The folded, blocked oscillatory kernel against the direct sum."""

    @pytest.mark.parametrize("grid_n", [160, 2080])
    @pytest.mark.parametrize("a_frac", ["1/3", "7/20", "3/8", "19/50"])
    def test_matches_direct_sum(self, a_frac, grid_n):
        fam = make_family(a_frac=Fraction(a_frac), grid_n=grid_n)
        # a family member's w_0 nearly vanishes at most breakpoints; the
        # non-family q has weight on both sides of every duplicated node
        q_gen = potential_from_callable(
            fam.grid, lambda x: 1.0 + np.sin(3 * x) + 0.5j * np.cos(x),
            dtype=complex)
        for q in (build_potential(fam, 0.5 + 1.5j), q_gen):
            self._check(make_evaluator(q))

    @staticmethod
    def _check(ev):
        re_max, im_max = ev.rho_trust
        # find_spectrum's sweep rectangle (n_eigs = 15), clipped to the trust
        # region, plus the trust-region corners and a few small rho
        re = np.linspace(0.05, min(15.75, re_max), 24)
        im = np.linspace(-min(2.0, im_max), min(2.0, im_max), 7)
        corners = np.array([re_max + 1j * im_max, re_max - 1j * im_max,
                            -re_max + 1j * im_max, 1j * im_max, re_max])
        rho = np.concatenate([(re[:, None] + 1j * im[None, :]).ravel(),
                              corners, [0.0, 1e-3, 2e-3j]])
        phase = PI - 2.0 * ev._x + ev.a
        for wt, fold in ((ev._wt0, ev._fold0), (ev._wt1, ev._fold1)):
            scale = np.cosh(np.abs(rho.imag)[:, None] * np.abs(phase)) @ np.abs(wt)
            for kind in ("cos", "sin"):
                fast = _osc_integral(ev, fold, rho, kind)
                direct = _direct_osc(ev, wt, rho, kind)
                assert (np.abs(fast - direct) <= 1e-13 * scale).all()
            assert abs(fold[0].sum() - wt.sum()) <= 1e-14 * np.abs(wt).sum()


class TestInvariance:
    def test_delta_grid_invariance(self, family_default, q_alpha0):
        lams = np.concatenate([np.linspace(-5, 120, 38),
                               np.array([3 + 4j, -2 - 7j])])
        ev0 = make_evaluator(q_alpha0)
        for alpha in (1, -2, 0.5 + 1.5j):
            ev = make_evaluator(build_potential(family_default, alpha))
            for j in (0, 1):
                va = eval_delta(ev, j, lams)
                v0 = eval_delta(ev0, j, lams)
                rel = np.abs(va - v0) / (1 + np.maximum(np.abs(va), np.abs(v0)))
                assert rel.max() <= 1e-7


class TestTrustRegion:
    def test_rejects_large_rho(self, q_zero):
        ev = make_evaluator(q_zero)
        re_max, im_max = ev.rho_trust
        with pytest.raises(GridTooCoarseForRho):
            eval_delta(ev, 0, (re_max * 1.1) ** 2)
        with pytest.raises(GridTooCoarseForRho):
            eval_delta(ev, 0, -(im_max * 1.1) ** 2)

    def test_trust_scales_with_grid(self, grid_small, grid_default):
        assert grid_default.rho_trust[0] > 10 * grid_small.rho_trust[0]


class TestCutoffRule:
    """H and the operator matrix against the per-row composite rule.

    The oracle integrates each row up to its cut-off with the full rule over
    the panels it covers, ``segment_weights(k)``, rather than with unit
    weights plus end corrections.
    """

    @pytest.mark.parametrize("grid_n", [160, 2080])
    @pytest.mark.parametrize("a_frac", ["1/3", "7/20", "3/8", "19/50", "19/48"])
    def test_matches_per_row_rule(self, a_frac, grid_n):
        fam = make_family(a_frac=Fraction(a_frac), grid_n=grid_n)
        q_gen = potential_from_callable(
            fam.grid, lambda x: 1.0 + np.sin(3 * x) + 0.5j * np.cos(x),
            dtype=complex)
        for q in (build_potential(fam, 0.5 + 1.5j), q_gen):
            ref, scale, cut_panels = self._h_rows(q)
            assert (np.abs(_h_values(q) - ref) <= 1e-13 * scale).all()
            # rows whose upper limit lies 1-6 panels into a segment take the
            # short rules
            assert set(range(1, 7)) <= cut_panels
        ref, scale = self._operator_rows(fam)
        assert (np.abs(operator_matrix(fam.h) - ref)
                <= 1e-13 * scale[:, None]).all()

    @staticmethod
    def _h_rows(q):
        grid = q.grid
        s, N, step = grid.shift_half, grid.n_panels, grid.step
        cum = q.fn.cumulative().flat_values()
        k_all = cum[-1] - cum
        x_idx = np.arange(grid.idx_3a2, grid.idx_pi_a2 + 1)
        ref = np.zeros(x_idx.shape, dtype=complex)
        scale = np.zeros(x_idx.shape)
        cut_panels = set()
        for r, x in enumerate(x_idx):
            u = N + s - x                      # cut-off node, K_q(x_N) = 0
            for (lo, hi), qv in zip(q.fn.seg_bounds, q.fn.seg_values):
                end = min(u, hi)
                if hi <= grid.idx_a or end <= lo:
                    continue
                k = end - lo
                terms = (segment_weights(k, step) * qv[:k + 1]
                         * k_all[x + np.arange(lo, end + 1) - s])
                ref[r] += terms.sum()
                scale[r] += np.abs(terms).sum()
                if u < hi:
                    cut_panels.add(k)
        return ref, scale, cut_panels

    @staticmethod
    def _operator_rows(fam):
        grid = fam.grid
        i0, m = grid.idx_3a2, grid.idx_pi_a - grid.idx_3a2
        ref = np.zeros((m + 1, m + 1))
        for i in range(m + 1):
            k = m - i                           # panels up to the cut
            arg = 2 * i0 - grid.shift_half + i + np.arange(k + 1)
            ref[i, :k + 1] = (segment_weights(k, grid.step)
                              * fam.K_h.sample_flat(arg))
        return ref, np.abs(ref).sum(axis=1)


def test_evaluator_memory_grows_subquadratically():
    """Building an evaluator keeps no per-row weight tables: quadrupling the
    panel count must not multiply its peak memory by 16."""
    peaks = []
    for n in (2080, 8200):
        q = potential_from_callable(
            Grid(Fraction(7, 20), n),
            lambda x: 1.0 + np.sin(3 * x) + 0.5j * np.cos(x), dtype=complex)
        tracemalloc.start()
        try:
            make_evaluator(q)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 6 * peaks[0]
