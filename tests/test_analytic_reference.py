import math

import numpy as np
import pytest
from scipy.integrate import quad

from memwave import Grid1D, MemoryOrder, heat_solution, resolvent_apply, wave_solution


class TestHeatSolution:
    def test_initial_time_recovers_datum(self):
        x = np.linspace(-5, 5, 11)
        assert np.allclose(heat_solution(x, 0.0, 2.0), np.exp(-(x**2) / 4.0))

    def test_hand_values(self):
        assert heat_solution(0.0, 2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert heat_solution(3.0, 2.0, 1.0) == pytest.approx(math.exp(-1.0) / 3.0, abs=1e-15)

    def test_scalar_in_float_out(self):
        out = heat_solution(1.5, 0.7, 2.0)
        assert isinstance(out, float)

    def test_matches_quadrature_of_kernel(self):
        # independent route: integrate the Gaussian kernel against the datum
        sigma, t = 2.0, 1.5
        for x in (0.0, 1.0, 3.5):
            val, err = quad(
                lambda y: math.exp(-((x - y) ** 2) / (4.0 * t))
                / math.sqrt(4.0 * math.pi * t)
                * math.exp(-(y**2) / sigma**2),
                -40.0, 40.0,
            )
            assert err < 1e-8
            assert heat_solution(x, t, sigma) == pytest.approx(val, abs=1e-10)

    def test_parabolic_scaling(self):
        # x -> cx, t -> c^2 t, sigma -> c sigma leaves the profile value fixed
        c = 4.0
        x = np.linspace(-3, 3, 13)
        assert np.allclose(heat_solution(c * x, c**2 * 2.0, c * 1.0),
                           heat_solution(x, 2.0, 1.0), atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            heat_solution(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            heat_solution(0.0, -0.1, 1.0)


class TestWaveSolution:
    def test_initial_time_recovers_datum(self):
        g = lambda x: np.exp(-(np.asarray(x) ** 2))
        x = np.linspace(-5, 5, 11)
        assert np.allclose(wave_solution(x, 0.0, g), g(x))

    def test_hand_values(self):
        g = lambda x: np.exp(-(np.asarray(x) ** 2))
        assert wave_solution(6.0, 6.0, g) == pytest.approx(
            0.5 * (1.0 + math.exp(-144.0)), abs=1e-16
        )
        assert wave_solution(0.0, 6.0, g) == pytest.approx(math.exp(-36.0), rel=1e-15)

    def test_two_separated_bumps(self):
        g = lambda x: np.exp(-((np.asarray(x)) ** 2) / 0.25)
        x = np.linspace(-10, 10, 201)
        vals = wave_solution(x, 5.0, g)
        i_left = np.argmin(np.abs(x + 5.0))
        i_right = np.argmin(np.abs(x - 5.0))
        assert vals[i_left] == pytest.approx(0.5, abs=1e-9)
        assert vals[i_right] == pytest.approx(0.5, abs=1e-9)
        assert abs(vals[100]) < 1e-9


class TestResolventApply:
    def grid(self, m=301):
        return Grid1D(-15.0, 15.0, m)

    def gaussian(self, grid, sigma=1.0):
        return np.exp(-(grid.points**2) / sigma**2)

    def test_zero_time_is_identity_copy(self):
        grid = self.grid()
        f = self.gaussian(grid)
        out = resolvent_apply(1, 0.0, f, grid)
        assert np.array_equal(out, f)
        assert out is not f

    def test_heat_action_matches_closed_form(self):
        grid = self.grid()
        f = self.gaussian(grid, sigma=1.0)
        out = resolvent_apply(1, 1.0, f, grid)
        assert np.max(np.abs(out - heat_solution(grid.points, 1.0, 1.0))) < 1e-12

    def test_wave_action_exact_on_aligned_shift(self):
        grid = self.grid()  # h = 0.1
        f = self.gaussian(grid, sigma=2.0)
        out = resolvent_apply(2, 2.0, f, grid)
        x = grid.points
        g = lambda y: np.where(np.abs(y) <= 15.0, np.exp(-(y**2) / 4.0), 0.0)
        assert np.allclose(out, 0.5 * (g(x - 2.0) + g(x + 2.0)), atol=1e-15)

    def test_heat_semigroup_composition(self):
        grid = self.grid()
        f = self.gaussian(grid, sigma=1.0)
        two_step = resolvent_apply(1, 0.75, resolvent_apply(1, 0.5, f, grid), grid)
        one_step = resolvent_apply(1, 1.25, f, grid)
        assert np.max(np.abs(two_step - one_step)) < 1e-10

    def test_wave_cosine_identity(self):
        # 2 S(t) S(s) = S(t+s) + S(t-s) for the shift-average family
        grid = self.grid()
        f = self.gaussian(grid, sigma=2.0)
        lhs = 2.0 * resolvent_apply(2, 1.0, resolvent_apply(2, 1.0, f, grid), grid)
        rhs = resolvent_apply(2, 2.0, f, grid) + f
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_heat_mass_conservation(self):
        grid = self.grid()
        f = self.gaussian(grid, sigma=1.0)
        out = resolvent_apply(1, 1.0, f, grid)
        assert grid.h * out.sum() == pytest.approx(grid.h * f.sum(), rel=1e-10)

    def test_fractional_order_rejected(self):
        grid = self.grid(31)
        with pytest.raises(ValueError):
            resolvent_apply(1.5, 1.0, np.zeros(31), grid)
        with pytest.raises(ValueError):
            resolvent_apply(3, 1.0, np.zeros(31), grid)

    def test_memory_order_accepted(self):
        grid = self.grid()
        f = self.gaussian(grid)
        out = resolvent_apply(MemoryOrder(2.0), 1.0, f, grid)
        assert np.array_equal(out, resolvent_apply(2, 1.0, f, grid))

    def test_fractional_memory_order_rejected(self):
        grid = self.grid(31)
        with pytest.raises(ValueError):
            resolvent_apply(MemoryOrder(1.5), 1.0, np.zeros(31), grid)

    def test_negative_time_rejected(self):
        grid = self.grid(31)
        with pytest.raises(ValueError):
            resolvent_apply(1, -1.0, np.zeros(31), grid)

    def test_shape_mismatch_rejected(self):
        grid = self.grid(31)
        with pytest.raises(ValueError):
            resolvent_apply(1, 1.0, np.zeros(30), grid)

    def test_edge_warning_on_nondecaying_input(self):
        grid = self.grid(31)
        with pytest.warns(UserWarning, match="grid edge"):
            resolvent_apply(1, 0.5, np.ones(31), grid)

    def test_edge_warning_when_mass_reaches_boundary(self):
        grid = Grid1D(-2.0, 2.0, 41)
        f = np.exp(-(grid.points**2) / 0.04)
        with pytest.warns(UserWarning, match="mass is leaving"):
            resolvent_apply(1, 1.0, f, grid)
