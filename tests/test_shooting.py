"""Shooting oracle: free-solution exactness, superposition, cross-validation."""

import numpy as np
import pytest

from isobispec.charfn import eval_delta, eval_theta, make_evaluator
from isobispec.errors import GridTooCoarseForRho
from isobispec.harness import lambda_validation_grid, rel_dev
from isobispec.potential import build_potential, make_family
from isobispec.shooting import (char_values, char_values_array, shoot,
                                shoot_general)


def _closed_forms(ev, lams):
    return np.stack([eval_delta(ev, 0, lams), eval_delta(ev, 1, lams),
                     eval_theta(ev, 0, lams), eval_theta(ev, 1, lams)], axis=1)


class TestFreeEquation:
    def test_S_is_sinc(self, q_zero):
        sol = shoot(q_zero, 4.0, "S")
        g = q_zero.grid
        xs = g.x_nodes(0, g.n_panels)
        assert np.abs(sol.y.flat_values() - np.sin(2 * xs) / 2).max() <= 1e-10
        assert np.abs(sol.yprime.flat_values() - np.cos(2 * xs)).max() <= 1e-10

    def test_lambda_zero(self, q_zero):
        g = q_zero.grid
        xs = g.x_nodes(0, g.n_panels)
        s = shoot(q_zero, 0.0, "S")
        c = shoot(q_zero, 0.0, "C")
        assert np.abs(s.y.flat_values() - xs).max() <= 1e-12
        assert np.abs(c.y.flat_values() - 1.0).max() <= 1e-12

    def test_char_values_at_one(self, q_zero):
        vals = char_values(q_zero, 1.0)
        expect = (0.0, -1.0, -1.0, 0.0)
        for v, e in zip(vals, expect):
            assert abs(v - e) <= 1e-10

    def test_wronskian_no_delay_active(self, q_zero):
        # only asserted for the free equation; no Wronskian identity is
        # claimed for a > 0 with q != 0
        for lam in (2.0, -3.0, 5 + 1j):
            d0, d1, t0, t1 = char_values(q_zero, lam)
            assert abs(t0 * d1 - t1 * d0 - 1.0) <= 1e-9


class TestSuperposition:
    def test_general_init_is_combination(self, q_alpha1):
        rng = np.random.default_rng(17)
        lam = 7.3
        s = shoot(q_alpha1, lam, "S")
        c = shoot(q_alpha1, lam, "C")
        for _ in range(3):
            c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            gen = shoot_general(q_alpha1, lam, c1, c2)
            ref = c.y * c1 + s.y * c2
            scale = np.abs(ref.flat_values()).max()
            diff = np.abs(gen.y.flat_values() - ref.flat_values()).max()
            assert diff <= 1e-10 * (1 + scale)


class TestConvergence:
    def test_step_halving_order(self):
        vals = []
        for n in (640, 1280, 2560):
            fam = make_family(grid_n=n)
            q = build_potential(fam, 1)
            vals.append(shoot(q, 10.0, "S").value_at_pi)
        e1 = abs(vals[0] - vals[1])
        e2 = abs(vals[1] - vals[2])
        assert np.log2(e1 / e2) >= 2.0

    def test_restarted_to_trust_edge(self, q_alpha1):
        # the restarted march stays stable out to |Im rho| = 15, where an
        # expansion about x = 0 would cancel like exp(2 |Im rho| pi)
        rhos = np.array([3 + 4j, 5 + 8j, 3 + 14.9j, 14.9j, 39 + 14.9j])
        _, im_max = q_alpha1.grid.rho_trust
        assert np.abs(rhos.imag).max() <= im_max
        ev = make_evaluator(q_alpha1)
        lams = rhos ** 2
        assert rel_dev(char_values_array(q_alpha1, lams),
                       _closed_forms(ev, lams)).max() <= 1e-7


class TestCrossValidation:
    def test_fixture_lambda_10(self, q_alpha1):
        ev = make_evaluator(q_alpha1)
        d0 = shoot(q_alpha1, 10.0, "S").value_at_pi
        c0 = eval_delta(ev, 0, 10.0)
        assert abs(d0 - c0) / max(1.0, abs(d0)) <= 1e-7

    def test_full_grid_all_four(self, q_alpha1):
        ev = make_evaluator(q_alpha1)
        lams = lambda_validation_grid()
        assert rel_dev(char_values_array(q_alpha1, lams),
                       _closed_forms(ev, lams)).max() <= 1e-7

    def test_covers_find_spectrum_sweep(self, q_alpha1):
        # find_spectrum's n_eigs = 15 sweep: Re rho in [0.05, 15.75],
        # |Im rho| <= 2, at the crosscheck tolerance
        rho = (np.linspace(0.05, 15.75, 30)[:, None]
               + 1j * np.linspace(-2.0, 2.0, 5)[None, :]).ravel()
        lams = rho ** 2
        ev = make_evaluator(q_alpha1)
        assert rel_dev(char_values_array(q_alpha1, lams),
                       _closed_forms(ev, lams)).max() <= 1e-7

    def test_batch_matches_scalar(self, q_alpha1):
        # a lambda's block partition depends on its own rho only
        lams = lambda_validation_grid()
        batch = char_values_array(q_alpha1, lams)
        for lam, row in zip(lams, batch):
            assert np.array_equal(row, char_values(q_alpha1, lam))

    def test_deviation_shrinks_with_refinement(self, family_mid,
                                               family_default):
        # order-2+ convergence of the mutual deviation
        devs = []
        for fam in (family_mid, family_default):
            q = build_potential(fam, 1)
            ev = make_evaluator(q)
            lam = 60.0
            a = char_values(q, lam)[0]
            b = eval_delta(ev, 0, lam)
            devs.append(abs(a - b))
        assert devs[1] <= devs[0] / 3.5


class TestGuards:
    def test_trust_region(self, q_zero):
        re_max, _ = q_zero.grid.rho_trust
        with pytest.raises(GridTooCoarseForRho):
            shoot(q_zero, (re_max * 1.2) ** 2, "S")

    def test_mixed_batch_outside_trust(self, q_zero):
        _, im_max = q_zero.grid.rho_trust
        lams = np.array([1.0, 10.0, (1j * im_max * 1.1) ** 2, 4.0])
        with pytest.raises(GridTooCoarseForRho):
            char_values_array(q_zero, lams)

    def test_bad_kind(self, q_zero):
        with pytest.raises(ValueError):
            shoot(q_zero, 1.0, "X")
