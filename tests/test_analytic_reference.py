import math
import warnings

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
        with pytest.raises(ValueError, match="t must be non-negative"):
            heat_solution(0.0, math.nan, 1.0)
        for sigma in (math.nan, math.inf, 1e160, 1e-300):
            with pytest.raises(ValueError, match="sigma must be positive"):
                heat_solution(0.0, 1.0, sigma)

    @pytest.mark.parametrize("t", [0.0, 1e-300, 1.0])
    def test_narrowest_accepted_width_stays_finite(self, t):
        # sigma^2 = 2.25e-308: x^2 / sigma^2 overflows for |x| > 1.4, where the Gaussian is 0
        x = np.linspace(-3.0, 3.0, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = heat_solution(x, t, 1.5e-154)
        assert np.all(np.isfinite(out))
        if t == 0.0:
            assert np.array_equal(out, x == 0.0)


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

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_time(self, t):
        # nan once returned nan, where heat_solution refuses it
        g = lambda x: np.exp(-(np.asarray(x) ** 2))
        with pytest.raises(ValueError, match="t must be finite"):
            wave_solution(np.linspace(-5, 5, 11), t, g)


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

    def test_wave_shift_past_an_edge_falls_to_a_zero_ghost_node(self):
        # h = 0.25 and t = 3.25 h are exact: n = 3 whole cells, theta = 1/4.  Only the
        # edge nodes are nonzero, so each output is one tap on one edge value.
        grid = Grid1D(-5.0, 5.0, 41)
        m, left, right = grid.m, 0.3, -0.7
        f = np.zeros(m)
        f[0], f[-1] = left, right
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = resolvent_apply(2, 3.25 * grid.h, f, grid)
            # a shift of m cells or more carries every point past the ghost node
            beyond = [resolvent_apply(2, t, f + 1.0, grid) for t in (m * grid.h, 1.5 * m, 1e20)]
        expected = np.zeros(m)
        # x_3 - t lies a quarter cell beyond the left edge: 0.5 (1 - theta) f_0, not 0
        expected[3], expected[4] = 0.5 * 0.75 * left, 0.5 * 0.25 * left
        expected[m - 4], expected[m - 5] = 0.5 * 0.75 * right, 0.5 * 0.25 * right
        assert np.array_equal(out, expected)
        for far in beyond:
            assert np.array_equal(far, np.zeros(m))

    def test_wave_action_continuous_in_t(self):
        # at h = 30/172, 7h / h rounds one ulp below 7 cells and the pairwise loop's
        # lag 9h - 2h one ulp above; the last t with x_7 - t on the left edge node and
        # the next float, whose x_7 - t lies beyond it.  Each pair differs by O(ulp |f|).
        grid = Grid1D(-15.0, 15.0, 173)
        h, x = grid.h, grid.points
        assert 7 * h / h < 7 < (9 * h - 2 * h) / h
        on_edge = x[7] - x[0]
        while x[7] - np.nextafter(on_edge, np.inf) >= x[0]:
            on_edge = np.nextafter(on_edge, np.inf)
        f = np.random.default_rng(4).standard_normal(grid.m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for pair in ((7 * h, 9 * h - 2 * h), (on_edge, np.nextafter(on_edge, np.inf))):
                below, above = (resolvent_apply(2, t, f, grid) for t in pair)
                assert np.max(np.abs(below - above)) <= 1e-14 * np.max(np.abs(f))

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
        # NaN has neither a shift (alpha = 2) nor a kernel window (alpha = 1)
        for alpha in (1, 2):
            with pytest.raises(ValueError, match="t must be non-negative"):
                resolvent_apply(alpha, math.nan, np.zeros(31), grid)

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
