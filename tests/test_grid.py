"""Grid, breakpoint and quadrature behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from isobispec.errors import DelayOutOfRange, OutOfSupport, SupportMismatch
from isobispec.grid import (PI, Grid, PiecewiseFn, norm_l2, read_xy_csv,
                            write_csv)

A35 = 0.35 * PI


class TestBreakpoints:
    """The breakpoint table of Grid: node positions and the delay range."""

    def test_nominal_nodes(self):
        g = Grid(Fraction(7, 20), 2048)
        assert_allclose(g.x(np.array(g.bp_idx)), np.array(
            [0, 0.35, 0.525, 0.65, 0.7, 0.825, 0.875, 1.0]) * PI, rtol=1e-14)
        assert g.x(g.idx_a) == pytest.approx(A35, rel=1e-14)
        assert all(hi > lo for lo, hi in g.seg_bounds)

    def test_equality_case_pi_third(self):
        g = Grid(Fraction(1, 3), 120)
        # pi - a == 2a and pi - a/2 == 5a/2 coincide on the same nodes
        assert g.idx_pi_a == g.idx_2a
        assert g.idx_pi_a2 == g.idx_5a2

    def test_out_of_range_rejected(self):
        for f in (Fraction(3, 10), Fraction(9, 20), Fraction(0),
                  Fraction(-7, 20), Fraction(-1, 3)):
            with pytest.raises(DelayOutOfRange):
                Grid(f, 120)


class TestGrid:
    def test_snapping_and_alignment(self):
        g = Grid(Fraction(7, 20), 2048)
        assert g.n_panels == 2080
        assert g.n_panels % 40 == 0
        assert g.bp_idx == (0, 728, 1092, 1352, 1456, 1716, 1820, 2080)
        assert g.shift_a == 2 * g.shift_half

    def test_empty_segments_kept_at_pi_third(self):
        g = Grid(Fraction(1, 3), 120)
        counts = [b - a for a, b in g.seg_bounds]
        assert len(counts) == 7
        assert counts[3] == 0 and counts[5] == 0
        assert all(c == 0 or c >= 4 for c in counts)

    def test_range_check(self):
        with pytest.raises(DelayOutOfRange):
            Grid(Fraction(2, 5), 100)
        assert Grid(Fraction(1, 3), 100).a_frac == Fraction(1, 3)


class TestIntegrate:
    def test_constant_on_h_support(self, grid_small):
        g = grid_small
        f = PiecewiseFn.constant(g, g.idx_5a2, g.n_panels, 1.0)
        assert abs(f.integrate() - 0.125 * PI) < 1e-14

    def test_linear_exact(self, grid_small):
        g = grid_small
        f = PiecewiseFn.from_callable(g, 0, g.n_panels, lambda x: x)
        assert abs(f.integrate() - PI**2 / 2) < 1e-12

    def test_sin_at_512(self):
        g = Grid(Fraction(7, 20), 512)
        f = PiecewiseFn.from_callable(g, 0, g.n_panels, np.sin)
        val = f.integrate()
        assert abs(val - 2.0) < 1e-9
        g_ref = Grid(Fraction(7, 20), 4096)
        ref = PiecewiseFn.from_callable(g_ref, 0, g_ref.n_panels, np.sin).integrate()
        assert abs(val - ref) < 1e-9

    def test_out_of_support(self, grid_small):
        g = grid_small
        f = PiecewiseFn.constant(g, g.idx_5a2, g.n_panels, 1.0)
        with pytest.raises(OutOfSupport):
            f.integrate(0.0, 1.0)
        with pytest.raises(OutOfSupport):
            f.integrate(3.0, 2.9)
        with pytest.raises(OutOfSupport):
            f.integrate(g.x(g.n_panels), g.x(g.idx_5a2))

    def test_off_node_bound_rejected(self, grid_small):
        g = grid_small
        f = PiecewiseFn.from_callable(g, 0, g.n_panels, lambda x: x)
        for lo, hi in ((0.1234, PI), (0.0, 2.87654321),
                       (g.x(3) + 0.5 * g.step, g.x(4))):
            with pytest.raises(SupportMismatch):
                f.integrate(lo, hi)
        # node bounds given as computed floats still resolve
        lo, hi = 2 * g.a, PI - g.a / 2
        assert f.integrate(lo, hi) == pytest.approx((hi**2 - lo**2) / 2,
                                                    abs=1e-13)

    def test_halving_convergence(self):
        # composite-rule error drops by >= 8x per halving until the floor
        errs = []
        for n in (80, 160, 320, 640):
            g = Grid(Fraction(7, 20), n)
            f = PiecewiseFn.from_callable(g, 0, g.n_panels,
                                          lambda x: np.exp(np.sin(2 * x)))
            ref = 3.977463260506423    # scipy.quad reference, frozen
            errs.append(abs(f.integrate() - ref))
        for e1, e2 in zip(errs, errs[1:]):
            if e1 < 1e-12:
                break
            assert e1 / e2 >= 8.0

    def test_vs_scipy_simpson(self, grid_small):
        # independent composite rule; both are O(h^4), ours pays one-sided
        # stencils at the 7 segment boundaries
        g = grid_small
        f = PiecewiseFn.from_callable(g, 0, g.n_panels,
                                      lambda x: np.cos(3 * x) + x)
        xs = g.x_nodes(0, g.n_panels)
        assert abs(f.integrate() - simpson(np.cos(3 * xs) + xs, x=xs)) < 5e-8


class TestAntiderivative:
    def test_const_one(self, grid_small):
        g = grid_small
        h = PiecewiseFn.constant(g, g.idx_5a2, g.n_panels, 1.0)
        K = h.antiderivative_from_right()
        xs = g.x_nodes(g.idx_5a2, g.n_panels)
        assert np.abs(K.flat_values() - (PI - xs)).max() < 1e-13
        # constant extension below support
        assert abs(K.eval(0.1) - K.flat_values()[0]) < 1e-14

    def test_zero(self, grid_small):
        g = grid_small
        h = PiecewiseFn.zeros(g, g.idx_5a2, g.n_panels)
        K = h.antiderivative_from_right()
        assert np.abs(K.flat_values()).max() == 0.0

    def test_cos_vs_quadrature(self, grid_small):
        g = grid_small
        f = PiecewiseFn.from_callable(g, 0, g.n_panels, np.cos)
        K = f.antiderivative_from_right()
        rng = np.random.default_rng(3)
        nodes = rng.choice(np.arange(0, g.n_panels), size=10, replace=False)
        for i in nodes:
            x = g.x(int(i))
            assert abs(K.eval(x) - f.integrate(x, PI)) < 1e-13
            assert abs(K.eval(x) - (-np.sin(x))) < 1e-8

    def test_derivative_recovers_integrand(self, grid_small):
        g = grid_small
        f = PiecewiseFn.from_callable(g, 0, g.n_panels,
                                      lambda x: np.sin(2 * x) + 0.5 * x)
        K = f.antiderivative_from_right().flat_values()
        xs = g.x_nodes(0, g.n_panels)
        dK = (K[2:] - K[:-2]) / (2 * g.step)     # central differences
        resid = np.abs(-dK - f.flat_values()[1:-1]).max()
        assert resid < 4.0 * g.step**2


@settings(max_examples=25, deadline=None)
@given(split=st.integers(1, 159),
       coeffs=st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)))
def test_additivity(split, coeffs):
    g = Grid(Fraction(7, 20), 160)
    c0, c1, c2 = coeffs
    f = PiecewiseFn.from_callable(g, 0, g.n_panels,
                                  lambda x: c0 + c1 * np.sin(x) + c2 * x**2)
    mid = g.x(split)
    total = f.integrate()
    parts = f.integrate(0, mid) + f.integrate(mid, PI)
    assert abs(parts - total) <= 1e-13 * (1 + abs(total))


@settings(max_examples=25, deadline=None)
@given(c=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
                   st.floats(-3, 3)))
def test_cubic_exactness(c):
    g = Grid(Fraction(7, 20), 160)
    f = PiecewiseFn.from_callable(
        g, 0, g.n_panels,
        lambda x: c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3)
    exact = (c[0] * PI + c[1] * PI**2 / 2 + c[2] * PI**3 / 3 + c[3] * PI**4 / 4)
    assert abs(f.integrate() - exact) <= 1e-12 * (1 + abs(exact))


class TestPiecewiseFn:
    def test_eval_linear_interp(self, grid_small):
        g = grid_small
        f = PiecewiseFn.from_callable(g, 0, g.n_panels, lambda x: 2 * x + 1)
        xq = np.array([0.001, 0.5, 1.7, PI - 1e-9])
        assert_allclose(f.eval(xq), 2 * xq + 1, rtol=1e-9)

    def test_eval_right_limit_at_jump(self, grid_small):
        g = grid_small
        vals = [np.zeros(b - a + 1) for a, b in g.seg_bounds]
        vals[-1][:] = 1.0
        f = PiecewiseFn(g, g.seg_bounds, vals)
        x52 = g.x(g.idx_5a2)
        assert f.eval(x52) == 1.0
        assert f.eval(x52 - 1e-9) == 0.0

    def test_eval_out_of_support(self, grid_small):
        g = grid_small
        f = PiecewiseFn.constant(g, g.idx_5a2, g.n_panels, 1.0)
        with pytest.raises(OutOfSupport):
            f.eval(0.3)

    def test_algebra_mismatch(self, grid_small):
        g = grid_small
        f = PiecewiseFn.constant(g, g.idx_5a2, g.n_panels, 1.0)
        h = PiecewiseFn.constant(g, g.idx_3a2, g.idx_pi_a, 1.0)
        with pytest.raises(SupportMismatch):
            _ = f + h

    def test_values_immutable(self, grid_small):
        g = grid_small
        f = PiecewiseFn.constant(g, 0, g.n_panels, 1.0)
        with pytest.raises(ValueError):
            f.seg_values[0][0] = 2.0

    def test_csv_roundtrip(self, grid_small, tmp_path):
        g = grid_small
        f = PiecewiseFn.from_callable(g, g.idx_5a2, g.n_panels,
                                      lambda x: np.sin(x) + 1j * x)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        xs, vals = read_xy_csv(path)
        assert np.all(np.diff(xs) > 0)
        assert_allclose(vals, f.flat_values(), rtol=0, atol=1e-16)

    def test_norm_l2(self, grid_small):
        g = grid_small
        f = PiecewiseFn.from_callable(g, 0, g.n_panels, np.sin)
        assert abs(norm_l2(f) - math.sqrt(PI / 2)) < 1e-8
