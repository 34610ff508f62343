import ast
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from memwave import (EdgeWarning, Grid1D, InitialField1D, MemoryOrder, NoiseModel,
                     TimePartition, analytic_reference, heat_solution, resolvent_apply,
                     simulate_trajectory, wave_solution)
from memwave.analytic_reference import _heat_window, _weights
from memwave.solver_1d import boundary_magnitude


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


class TestResolventApplyBatch:
    """An array of times gives one row per time, each the scalar call at its own time."""

    # (m, I, T, span): span 30 at T = 60 clips late heat windows at m - 1 and carries late
    # wave shifts past the whole grid; one step gives a batch of two, t = 0 and t = T
    @example(m=151, I=30, T=60.0, span=30.0, seed=0)
    @example(m=3, I=1, T=0.5, span=1.0, seed=1)
    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(3, 401), I=st.integers(1, 400),
           T=st.floats(1e-3, 100.0), span=st.floats(1.0, 40.0), seed=st.integers(0, 2**16))
    def test_rows_equal_scalar_calls(self, m, I, T, span, seed):
        grid = Grid1D(-span / 2, span / 2, m)
        f = np.random.default_rng(seed).standard_normal(m)
        tau = T / I
        times = np.arange(I + 1) * tau
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EdgeWarning)
            for alpha in (1, 2):
                rows = resolvent_apply(alpha, times, f, grid)
                assert rows.shape == (I + 1, m)
                for k in range(I + 1):
                    assert np.array_equal(rows[k], resolvent_apply(alpha, k * tau, f, grid))

    def test_scalar_and_empty_shapes(self):
        grid = Grid1D(-15.0, 15.0, 61)
        f = np.exp(-grid.points**2)
        assert resolvent_apply(1, 0.5, f, grid).shape == (61,)
        assert resolvent_apply(2, np.array([0.5]), f, grid).shape == (1, 61)
        assert resolvent_apply(1, np.array([]), f, grid).shape == (0, 61)

    def test_zero_time_rows_are_copies_of_the_input(self):
        grid = Grid1D(-15.0, 15.0, 61)
        f = np.exp(-grid.points**2)
        for alpha in (1, 2):
            rows = resolvent_apply(alpha, [0.0, 1.0, 0.0], f, grid)
            assert np.array_equal(rows[0], f) and np.array_equal(rows[2], f)
            rows[0, 30] = 7.0
            assert f[30] == 1.0

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_an_array_with_a_bad_time_is_refused(self, bad):
        grid = Grid1D(-5.0, 5.0, 21)
        for alpha in (1, 2):
            with pytest.raises(ValueError, match="t must be non-negative"):
                resolvent_apply(alpha, np.array([0.0, 1.0, bad, 2.0]), np.zeros(21), grid)

    def test_a_two_dimensional_time_is_refused(self):
        grid = Grid1D(-5.0, 5.0, 21)
        with pytest.raises(ValueError, match="1-D array of times"):
            resolvent_apply(1, np.ones((2, 2)), np.zeros(21), grid)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_one_warning_carries_the_largest_face_value(self, alpha):
        # a bump 3 units left of centre: S(t) moves or spreads it onto the left face at
        # some times and not others, and the warning reports the largest of all rows
        grid = Grid1D(-5.0, 5.0, 101)
        f = np.exp(-((grid.points + 3.0) ** 2) / 0.1)
        times = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = resolvent_apply(alpha, times, f, grid)
        edges = [w for w in caught if w.category is EdgeWarning]
        assert len(edges) == 1
        largest = max(boundary_magnitude(f), *(boundary_magnitude(row) for row in rows))
        assert largest > max(boundary_magnitude(rows[1]), boundary_magnitude(f))
        assert f"{largest:.2e} at the grid edge" in str(edges[0].message)


class TestResolventWeights:
    """_weights, the one place the resolvent's grid weights are formed (action and noise sum)."""

    grid = Grid1D(-15.0, 15.0, 151)  # h = 0.2
    g = InitialField1D.gaussian(1.0)  # exp(-x^2), with max |g''| = 2

    @pytest.mark.parametrize("t", [0.2**2 / 20, 0.2**2 / 200], ids=["h2/20", "h2/200"])
    def test_heat_action_below_h_squared_has_unit_mass(self, t):
        # S(t) g - g is t g'' + O(t^2); the trapezoid kernel's own mass, h/sqrt(4 pi t) at
        # these times, would put the action 0.28 and 2.99 away from the closed form
        out = resolvent_apply(1, t, self.g.evaluate(self.grid.points), self.grid)
        assert np.max(np.abs(out - heat_solution(self.grid.points, t, 1.0))) <= 2 * t * 2.0

    def test_first_step_of_a_fine_trajectory_has_unit_mass(self):
        part = TimePartition(6.0, 3000)  # tau = h^2 / 20
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EdgeWarning)
            traj = simulate_trajectory(1, self.g, NoiseModel(strength=0.0), part, self.grid)
        exact = heat_solution(self.grid.points, part.tau, 1.0)
        assert np.max(np.abs(traj.fields[1] - exact)) <= 2 * part.tau * 2.0

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_huge_times_give_zeros_without_overflow(self, alpha):
        # the suite raises numpy's overflow RuntimeWarning as an error
        f = self.g.evaluate(self.grid.points)
        times = np.array([1e300, 1.3e306, 1e307, 1.7e308, sys.float_info.max])
        assert np.array_equal(resolvent_apply(alpha, times, f, self.grid), np.zeros((5, 151)))
        for t in times:
            assert np.array_equal(resolvent_apply(alpha, t, f, self.grid), np.zeros(151))
        traj = simulate_trajectory(alpha, self.g, NoiseModel(), TimePartition(1.7e308, 3),
                                   self.grid)
        assert np.array_equal(traj.fields[1:], np.zeros((3, 151)))

    @pytest.mark.parametrize("tau", [0.2, 0.05, 0.07])
    def test_wave_row_squares_match_the_two_tap_closed_form(self, tau):
        # lag j of the noise sum adds C^2 tau sum_d W[j, d]^2 to the variance at a point
        times = np.arange(1, 31) * tau
        r = times / self.grid.h
        theta = r - np.floor(r)
        # below one cell the two near taps coincide at offset 0 with weight 1 - theta
        expected = np.where(r >= 1, 0.5 * ((1 - theta) ** 2 + theta**2),
                            (1 - theta) ** 2 + 0.5 * theta**2)
        squares = np.sum(_weights(2, times, self.grid) ** 2, axis=1)
        assert np.allclose(squares, expected, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("tau", [0.2, 0.05])
    def test_heat_row_squares_match_the_continuum_integral(self, tau):
        # h sum_d (h G(t, d h))^2 against h int G^2 = h / sqrt(8 pi t); by Poisson summation
        # the lattice sum of the Gaussian G^2 (variance t) is off by 2 exp(-2 pi^2 t / h^2)
        h = self.grid.h
        times = np.arange(1, 31) * tau
        assert times[0] >= h**2 and _heat_window(times[-1], h) <= self.grid.m - 1
        squares = np.sum(_weights(1, times, self.grid) ** 2, axis=1)
        relative = np.abs(squares / (h / np.sqrt(8 * np.pi * times)) - 1)
        assert np.all(relative <= 2 * np.exp(-2 * np.pi**2 * times / h**2)
                      + 16 * np.finfo(float).eps)


def test_only_analytic_reference_forms_resolvent_weights():
    # the heat kernel's window and truncation and the shift's taps are decided in one
    # module; every other module reads them through _weights alone
    package = Path(analytic_reference.__file__).parent
    piece = re.compile(r"_\w*(kernel|taps|table|window|weights)$")
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "analytic_reference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names if a.name.startswith("_") and
                         node.module == "analytic_reference" and a.name != "_weights"]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name] if piece.fullmatch(node.name) else []
            else:
                names = []
            found += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert found == [], f"resolvent weight pieces outside analytic_reference: {found}"
