"""Potential family assembly: branch structure, omega, structural report."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from isobispec.errors import SupportMismatch
from isobispec.grid import PI, PiecewiseFn, norm_l2
from isobispec.potential import (build_potential, family_spec, make_family,
                                 omega, potential_from_callable,
                                 structural_report, zero_potential)

ALPHAS = (0, 1, -2, 0.5 + 1.5j)

# frozen structural baselines, reference fixture (alpha = 1, 2080 panels)
BRANCH3_NORM = 0.8689554812197637
BRANCH_H_NORM = 14.28765397568606
MAX_ABS = 22.799797034587176


class TestBuildPotential:
    def test_alpha_zero_is_h_only(self, family_default, q_alpha0):
        g = family_default.grid
        assert norm_l2(q_alpha0.fn, 0, g.x(g.idx_5a2)) == 0.0
        tail = q_alpha0.fn.seg_values[-1]
        assert np.array_equal(tail, family_default.h.seg_values[-1])

    def test_zero_branches_exact(self, family_default):
        g = family_default.grid
        for alpha in ALPHAS:
            q = build_potential(family_default, alpha)
            assert norm_l2(q.fn, 0, g.x(g.idx_3a2)) == 0.0
            assert norm_l2(q.fn, g.x(g.idx_pi_a), g.x(g.idx_2a)) == 0.0
            assert norm_l2(q.fn, g.x(g.idx_pi_a2), g.x(g.idx_5a2)) == 0.0

    def test_difference_support(self, family_default, q_alpha0):
        g = family_default.grid
        for alpha in (1, -2, 0.5 + 1.5j):
            d = build_potential(family_default, alpha).fn - q_alpha0.fn
            assert norm_l2(d, 0, g.x(g.idx_3a2)) == 0.0
            assert norm_l2(d, g.x(g.idx_pi_a2), PI) == 0.0
            assert norm_l2(d, g.x(g.idx_3a2), g.x(g.idx_pi_a2)) > 0.1

    def test_branch2_is_alpha_e(self, family_default):
        q = build_potential(family_default, -2)
        seg = q.fn.seg_values[2]
        assert np.array_equal(seg, -2.0 * family_default.e.flat_values())

    def test_linear_in_alpha(self, family_default, q_alpha0):
        qa = build_potential(family_default, 0.7)
        qb = build_potential(family_default, -1.3)
        qs = build_potential(family_default, 0.7 - 1.3)
        for va, vb, vs, v0 in zip(qa.fn.seg_values, qb.fn.seg_values,
                                  qs.fn.seg_values, q_alpha0.fn.seg_values):
            scale = 1 + np.abs(vs).max()
            assert np.abs(va + vb - vs - v0).max() <= 1e-13 * scale

    def test_complex_alpha_dtype(self, family_default):
        assert build_potential(family_default, 0.5 + 1.5j).is_complex
        assert not build_potential(family_default, 2.0).is_complex

    def test_empty_branches_at_pi_third(self):
        fam = make_family(a_frac=Fraction(1, 3), grid_n=480, nystrom_n=64)
        q = build_potential(fam, 1)
        counts = [hi - lo for lo, hi in q.fn.seg_bounds]
        assert counts[3] == 0 and counts[5] == 0
        # coarse grid here: invariance at quadrature accuracy only
        assert omega(q) == pytest.approx(omega(build_potential(fam, 2)),
                                         abs=1e-7)


_family_cache = {}


def _small_family():
    if "fam" not in _family_cache:
        _family_cache["fam"] = make_family(grid_n=320, nystrom_n=64)
    return _family_cache["fam"]


@settings(max_examples=20, deadline=None)
@given(re1=st.floats(-2, 2), im1=st.floats(-2, 2),
       re2=st.floats(-2, 2), im2=st.floats(-2, 2))
def test_alpha_linearity_complex(re1, im1, re2, im2):
    fam = _small_family()
    a1, a2 = complex(re1, im1), complex(re2, im2)
    qa = build_potential(fam, a1)
    qb = build_potential(fam, a2)
    qs = build_potential(fam, a1 + a2)
    q0 = build_potential(fam, 0)
    for va, vb, vs, v0 in zip(qa.fn.seg_values, qb.fn.seg_values,
                              qs.fn.seg_values, q0.fn.seg_values):
        scale = 1 + np.abs(vs).max()
        assert np.abs(va + vb - vs - v0).max() <= 1e-13 * scale


class TestOmega:
    def test_zero_potential(self, q_zero):
        assert omega(q_zero) == 0.0

    def test_family_B_invariance(self, family_default):
        base = omega(build_potential(family_default, 0))
        assert base == pytest.approx(float(family_default.h.integrate()),
                                     abs=1e-12)
        for alpha in ALPHAS:
            q = build_potential(family_default, alpha)
            assert abs(omega(q) - base) <= 1e-8

    def test_fubini_oracle(self, family_default):
        # independent check of the third-branch integral against a fully
        # external route: fine-sampled K_h and cumulative of e via scipy
        fam = family_default
        g = fam.grid
        a = g.a
        xs = np.linspace(2 * a, PI - a / 2, 4097)
        te = np.linspace(g.x(g.idx_3a2), g.x(g.idx_pi_a), 4097)
        e_vals = np.asarray(fam.e.eval(te))
        h_grid = np.linspace(g.x(g.idx_5a2), PI, 4097)
        h_vals = np.asarray(fam.h.eval(h_grid))

        def K_h(u):
            mask = h_grid >= u - 1e-12
            return simpson(h_vals[mask], x=h_grid[mask]) if mask.sum() > 2 else 0.0

        def cum_e(t):
            mask = te <= t + 1e-12
            return simpson(e_vals[mask], x=te[mask]) if mask.sum() > 2 else 0.0

        branch3 = np.array([-K_h(x + a / 2) * cum_e(x - a / 2) for x in xs])
        oracle = simpson(branch3, x=xs)          # = -eigsign * int e
        assert abs(oracle - (-fam.eigsign * fam.int_e)) < 1e-6
        q = build_potential(fam, 1)
        lib = q.fn.integrate(2 * a, PI - a / 2)
        assert abs(lib - oracle) < 1e-6

    def test_family_B1_slope(self, family_b1_default):
        fam = family_b1_default
        oms = {al: omega(build_potential(fam, al)) for al in (0, 1, -1, 2)}
        slope = 2 * fam.int_e
        for al in (1, -1, 2):
            assert abs(oms[al] - oms[0] - al * slope) <= 1e-8
        # affine fit
        A = np.array([[1.0, al] for al in (0, 1, -1, 2)])
        y = np.array([oms[al] for al in (0, 1, -1, 2)], dtype=float)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert np.abs(A @ coef - y).max() <= 1e-10


class TestStructuralReport:
    def test_alpha_zero_all_but_h_zero(self, q_alpha0):
        rep = structural_report(q_alpha0)
        for b in rep["branches"][:-1]:
            assert b["l2_norm"] == 0.0
        assert rep["branches"][-1]["l2_norm"] > 1.0

    def test_norm_scaling_in_alpha(self, family_default):
        r1 = structural_report(build_potential(family_default, 1))
        r2 = structural_report(build_potential(family_default, 2))
        for b1, b2 in zip(r1["branches"][2:5], r2["branches"][2:5]):
            if b1["l2_norm"] == 0.0:
                assert b2["l2_norm"] == 0.0
            else:
                assert abs(b2["l2_norm"] / b1["l2_norm"] - 2.0) <= 1e-10

    def test_frozen_baselines(self, family_default, family_mid):
        rep = structural_report(build_potential(family_default, 1))
        norms = [b["l2_norm"] for b in rep["branches"]]
        assert norms[2] == pytest.approx(1.0, abs=1e-12)     # ||alpha e|| = 1
        assert norms[4] == pytest.approx(BRANCH3_NORM, rel=1e-6)
        assert norms[6] == pytest.approx(BRANCH_H_NORM, rel=1e-6)
        assert rep["max_abs"] == pytest.approx(MAX_ABS, rel=1e-6)
        # grid-size drift stays within the same tolerance
        rep_mid = structural_report(build_potential(family_mid, 1))
        for k in (2, 4, 6):
            assert rep_mid["branches"][k]["l2_norm"] == pytest.approx(
                norms[k], rel=1e-6)

    def test_json_serializable(self, q_alpha1):
        import json

        json.dumps(structural_report(q_alpha1))


class TestGeneralPotentials:
    def test_vanishes_below_a(self, grid_default):
        q = potential_from_callable(grid_default, lambda x: np.sin(x) + 2)
        g = grid_default
        assert norm_l2(q.fn, 0, g.x(g.idx_a)) == 0.0
        assert abs(omega(q) - (np.cos(g.a) + 1 + 2 * (PI - g.a))) < 1e-9

    def test_zero_potential(self, grid_default):
        q = zero_potential(grid_default)
        assert norm_l2(q.fn) == 0.0


class TestFamilySpec:
    def test_validation_rejects_mismatched_pair(self, family_default):
        g = family_default.grid
        bad_e = PiecewiseFn.from_callable(g, g.idx_3a2, g.idx_pi_a,
                                          lambda x: np.sin(x))
        with pytest.raises(SupportMismatch):
            family_spec(g, family_default.h, bad_e, +1)

    def test_degenerate_flag(self, family_default):
        fam = family_default
        assert not fam.degenerate
        # hand-built spec with a zero-integral eigenfunction
        g = fam.grid
        mid = 0.5 * (g.x(g.idx_3a2) + g.x(g.idx_pi_a))
        odd = PiecewiseFn.from_callable(g, g.idx_3a2, g.idx_pi_a,
                                        lambda x: x - mid)
        spec = family_spec(g, fam.h, odd, +1, validate=False)
        assert spec.degenerate
