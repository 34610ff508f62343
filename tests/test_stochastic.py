import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memwave import (
    EdgeWarning,
    Grid1D,
    InitialField1D,
    MemoryOrder,
    NoiseModel,
    TimePartition,
    default_partition,
    resolvent_apply,
    sample_increments,
    simulate_trajectory,
    stochastic_convolution,
)
from memwave import stochastic
from memwave.analytic_reference import _weights
from memwave.stochastic import _add_noise, _fft_shape


class TestNoiseModel:
    def test_defaults(self):
        model = NoiseModel()
        assert model.strength == 0.1
        assert model.spatial_mode == "per-node"
        assert model.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(strength=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(spatial_mode="rough")
        with pytest.raises(ValueError):
            NoiseModel(correlation_length=0.0)
        # an infinite strength or length has no finite increments or kernel
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="noise strength"):
                NoiseModel(strength=bad)
            with pytest.raises(ValueError, match="correlation length"):
                NoiseModel(correlation_length=bad)
        with pytest.raises(ValueError):
            NoiseModel(seed=-1)
        with pytest.raises(ValueError):
            NoiseModel(seed=1.5)


class TestTimePartition:
    def test_tau_and_nodes(self):
        part = TimePartition(6.0, 30)
        assert part.tau == pytest.approx(0.2)
        nodes = part.nodes
        assert nodes.shape == (31,)
        assert nodes[0] == 0.0 and nodes[-1] == 6.0
        assert np.allclose(np.diff(nodes), part.tau)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimePartition(0.0, 10)
        with pytest.raises(ValueError):
            TimePartition(1.0, 0)
        with pytest.raises(ValueError):
            TimePartition(1.0, 2.5)

    def test_rejects_infinite_final_time(self):
        with pytest.raises(ValueError, match="final time"):
            TimePartition(np.inf, 3)
        with pytest.raises(ValueError, match="final time"):
            default_partition(np.inf, Grid1D(-15.0, 15.0, 151))

    def test_default_partition_no_coarser_than_grid(self):
        grid = Grid1D(-15.0, 15.0, 151)  # h = 0.2
        for t in (6.0, 6.1, 0.05, 1.0):
            part = default_partition(t, grid)
            assert part.tau <= grid.h + 1e-15
            assert part.t_final == t


class TestSampleIncrements:
    grid = Grid1D(-15.0, 15.0, 101)

    def test_zero_strength_exact_zeros(self):
        part = TimePartition(1.0, 10)
        for seed in (0, 7):
            out = sample_increments(NoiseModel(strength=0.0, seed=seed), self.grid, part)
            assert out.shape == (10, 101)
            assert np.array_equal(out, np.zeros((10, 101)))

    def test_reproducible_per_seed_and_index(self):
        part = TimePartition(1.0, 5)
        model = NoiseModel(strength=0.3, seed=42)
        a = sample_increments(model, self.grid, part, trajectory_index=3)
        b = sample_increments(model, self.grid, part, trajectory_index=3)
        assert np.array_equal(a, b)
        c = sample_increments(model, self.grid, part, trajectory_index=4)
        assert not np.array_equal(a, c)
        d = sample_increments(NoiseModel(strength=0.3, seed=43), self.grid, part,
                              trajectory_index=3)
        assert not np.array_equal(a, d)

    def test_per_node_moments(self):
        # N(0, C^2 tau) per node: check mean and variance over ~10^5 draws
        C = 0.7
        part = TimePartition(1.0, 1000)
        draws = sample_increments(NoiseModel(strength=C, seed=9), self.grid, part)
        n_samples = draws.size
        target_var = C**2 * part.tau
        se_mean = C * np.sqrt(part.tau) / np.sqrt(n_samples)
        se_var = target_var * np.sqrt(2.0 / n_samples)
        assert abs(draws.mean()) < 5.0 * se_mean
        assert abs(draws.var() - target_var) < 5.0 * se_var

    def test_smooth_mode_correlates_neighbors(self):
        part = TimePartition(1.0, 2000)
        model = NoiseModel(strength=0.5, spatial_mode="smooth", correlation_length=1.0, seed=5)
        draws = sample_increments(model, self.grid, part)
        assert draws.shape == (2000, 101)
        mid = draws[:, 50]
        near = draws[:, 51]
        far = draws[:, 90]
        corr_near = np.corrcoef(mid, near)[0, 1]
        corr_far = np.corrcoef(mid, far)[0, 1]
        assert corr_near > 0.9
        assert abs(corr_far) < 0.1

    @pytest.mark.parametrize("ell", [1.0, 40.0])  # a kernel narrower and wider than the grid
    def test_smooth_mode_smooths_the_per_node_draws(self, ell):
        # one batched convolution equals the per-row np.convolve of the same draws
        part, h = TimePartition(1.0, 30), self.grid.h
        raw = sample_increments(NoiseModel(strength=0.5, seed=5), self.grid, part)
        smooth = sample_increments(
            NoiseModel(strength=0.5, spatial_mode="smooth", correlation_length=ell, seed=5),
            self.grid, part,
        )
        w = int(np.ceil(5.0 * ell / h))
        kernel = np.exp(-((h * np.arange(-w, w + 1)) ** 2) / (2.0 * ell**2))
        kernel /= h * kernel.sum()
        rows = [h * np.convolve(row, kernel, mode="full")[w : w + self.grid.m] for row in raw]
        assert np.max(np.abs(smooth - np.array(rows))) <= 1e-14 * np.max(np.abs(smooth))

    @pytest.mark.parametrize("ell", [1e-3, 1e-160, 1e-300])
    def test_narrow_smooth_kernel_is_the_per_node_limit(self, ell):
        # below h/40 the kernel is [0, 1, 0], with no division by a zero or subnormal 2 ell^2
        part = TimePartition(1.0, 30)
        raw = sample_increments(NoiseModel(strength=0.5, seed=5), self.grid, part)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            smooth = sample_increments(
                NoiseModel(strength=0.5, spatial_mode="smooth", correlation_length=ell, seed=5),
                self.grid, part,
            )
        assert np.max(np.abs(smooth - raw)) <= 1e-15

    @pytest.mark.parametrize("ell", [1e6, 1e300])
    def test_smoothing_wider_than_the_cap_is_refused_before_drawing(self, ell, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the size check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        model = NoiseModel(strength=0.5, spatial_mode="smooth", correlation_length=ell)
        with pytest.raises(ValueError, match="exceeds the cap of"):
            sample_increments(model, self.grid, TimePartition(1.0, 30))

    def test_smooth_mode_reduces_variance(self):
        part = TimePartition(1.0, 2000)
        raw = sample_increments(NoiseModel(strength=0.5, seed=5), self.grid, part)
        smooth = sample_increments(
            NoiseModel(strength=0.5, spatial_mode="smooth", correlation_length=1.0, seed=5),
            self.grid, part,
        )
        assert smooth[:, 50].var() < 0.5 * raw[:, 50].var()


class TestStochasticConvolution:
    def test_zero_increments_zero_output(self):
        grid = Grid1D(-10.0, 10.0, 201)
        part = TimePartition(2.0, 20)
        out = stochastic_convolution(2, part, np.zeros((20, 201)), grid)
        assert np.array_equal(out, np.zeros(201))

    def test_single_spike_wave_split(self):
        # one increment, a unit spike at x=0, shifted by t=1 into two halves
        grid = Grid1D(-10.0, 10.0, 201)  # h = 0.1
        part = TimePartition(1.0, 1)
        inc = np.zeros((1, 201))
        inc[0, 100] = 1.0
        out = stochastic_convolution(2, part, inc, grid)
        expected = np.zeros(201)
        expected[90] = 0.5
        expected[110] = 0.5
        # off-grid landings one ulp from a node leak ~1e-14 of spike weight
        assert np.allclose(out, expected, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        grid = Grid1D(-10.0, 10.0, 201)
        part = TimePartition(1.0, 10)
        with pytest.raises(ValueError):
            stochastic_convolution(2, part, np.zeros((10, 200)), grid)

    def test_fractional_order_refused_with_zero_increments(self):
        # the order is checked even when every increment row is zero and skipped
        grid = Grid1D(-10.0, 10.0, 21)
        part = TimePartition(1.0, 4)
        with pytest.raises(ValueError, match="alpha in"):
            stochastic_convolution(1.5, part, np.zeros((4, 21)), grid)

    def test_left_endpoint_rule_first_order(self):
        # deterministic forcing phi(x) cos(2 s): the convolution sum is a
        # left-endpoint Riemann approximation, so the error scales like tau
        grid = Grid1D(-15.0, 15.0, 151)
        phi = np.exp(-(grid.points**2))

        def conv(I):
            part = TimePartition(2.0, I)
            s = part.nodes[:-1]
            inc = np.cos(2.0 * s)[:, None] * phi[None, :] * part.tau
            return stochastic_convolution(1, part, inc, grid)

        ref = conv(3200)
        err_100 = np.max(np.abs(conv(100) - ref))
        err_400 = np.max(np.abs(conv(400) - ref))
        ratio = err_100 / err_400
        assert 3.0 < ratio < 6.5

    def test_noise_applies_do_not_warn(self):
        grid = Grid1D(-10.0, 10.0, 101)
        part = TimePartition(1.0, 5)
        inc = sample_increments(NoiseModel(strength=0.5, seed=1), grid, part)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stochastic_convolution(2, part, inc, grid)


class TestSimulateTrajectory:
    grid = Grid1D(-15.0, 15.0, 151)
    g = InitialField1D.gaussian(1.0)

    def test_zero_noise_equals_resolvent_path(self):
        part = TimePartition(1.5, 10)
        gvals = self.g.evaluate(self.grid.points)
        for alpha in (1, 2):
            traj = simulate_trajectory(alpha, self.g, NoiseModel(strength=0.0), part, self.grid)
            assert np.array_equal(traj.times, part.nodes)
            for k, s_k in enumerate(part.nodes):
                assert np.array_equal(traj.fields[k],
                                      resolvent_apply(alpha, k * part.tau, gvals, self.grid))
            assert np.array_equal(traj.final_field, traj.fields[-1])

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_one_resolvent_call_per_trajectory(self, alpha, monkeypatch):
        calls, apply = [], stochastic.resolvent_apply

        def counted(*args):
            calls.append(args[1])
            return apply(*args)

        monkeypatch.setattr(stochastic, "resolvent_apply", counted)
        part = TimePartition(1.5, 10)
        simulate_trajectory(alpha, self.g, NoiseModel(0.1, seed=5), part, self.grid)
        assert len(calls) == 1
        assert np.array_equal(calls[0], [k * part.tau for k in range(part.I + 1)])

    def test_non_finite_initial_data_is_refused(self):
        # g reaches the grid through the solver's sampling gate
        g = InitialField1D(lambda x: np.where(x == 0.0, np.nan, 0.0), "nan at 0")
        with pytest.raises(ValueError, match="not finite on the grid"):
            simulate_trajectory(2, g, NoiseModel(), TimePartition(1.0, 4), Grid1D(-10.0, 10.0, 21))

    def test_bit_reproducible(self):
        part = TimePartition(2.0, 10)
        model = NoiseModel(strength=0.2, seed=77)
        a = simulate_trajectory(2, self.g, model, part, self.grid, trajectory_index=4)
        b = simulate_trajectory(2, self.g, model, part, self.grid, trajectory_index=4)
        assert np.array_equal(a.fields, b.fields)
        assert np.array_equal(a.increments, b.increments)

    def test_memory_order_matches_bare_float(self):
        part = TimePartition(2.0, 10)
        model = NoiseModel(strength=0.2, seed=77)
        a = simulate_trajectory(MemoryOrder(2.0), self.g, model, part, self.grid)
        b = simulate_trajectory(2.0, self.g, model, part, self.grid)
        assert np.array_equal(a.fields, b.fields)

    @pytest.mark.parametrize("alpha", [2, 2.0, MemoryOrder(2.0)], ids=["int", "float", "order"])
    def test_alpha_is_the_endpoint_order(self, alpha):
        traj = simulate_trajectory(alpha, self.g, NoiseModel(strength=0.0), TimePartition(1.0, 4),
                                   self.grid)
        assert traj.alpha == 2 and type(traj.alpha) is int

    def test_noise_enters_linearly(self):
        # doubling C doubles the deviation from the deterministic path
        part = TimePartition(2.0, 10)
        base = simulate_trajectory(2, self.g, NoiseModel(strength=0.0, seed=3),
                                   part, self.grid).fields
        d1 = simulate_trajectory(2, self.g, NoiseModel(strength=0.1, seed=3),
                                 part, self.grid).fields - base
        d2 = simulate_trajectory(2, self.g, NoiseModel(strength=0.2, seed=3),
                                 part, self.grid).fields - base
        assert np.allclose(d2, 2.0 * d1, atol=1e-13)

    def test_indices_give_independent_noise(self):
        part = TimePartition(1.0, 5)
        model = NoiseModel(strength=0.2, seed=8)
        a = simulate_trajectory(2, self.g, model, part, self.grid, trajectory_index=0)
        b = simulate_trajectory(2, self.g, model, part, self.grid, trajectory_index=1)
        assert not np.array_equal(a.increments, b.increments)

    def test_ensemble_mean_tracks_deterministic_path(self):
        # E f = S(t) g since the noise is centered; 100 members, 4 sigma band
        grid = Grid1D(-12.0, 12.0, 61)
        part = TimePartition(2.0, 10)
        model = NoiseModel(strength=0.2, seed=123)
        finals = np.array([
            simulate_trajectory(2, self.g, model, part, grid, trajectory_index=i).final_field
            for i in range(100)
        ])
        det = simulate_trajectory(2, self.g, NoiseModel(strength=0.0), part, grid).final_field
        dev = np.abs(finals.mean(axis=0) - det)
        band = 4.0 * finals.std(axis=0, ddof=1) / np.sqrt(100)
        assert np.all(dev <= band)


def pairwise_fields(alpha, g, part, grid, increments):
    """The mild solution summed one (s_k, s_i) pair at a time through resolvent_apply."""
    gvals = g.evaluate(grid.points)
    tau = part.tau
    fields = np.empty((part.I + 1, grid.m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(part.I + 1):
            s_k = k * tau
            field = resolvent_apply(alpha, s_k, gvals, grid)
            for i in range(k):
                field = field + resolvent_apply(alpha, s_k - i * tau, increments[i], grid)
            fields[k] = field
    return fields


def quiet_trajectory(alpha, g, model, part, grid, index=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate_trajectory(alpha, g, model, part, grid, trajectory_index=index)


# tau = h, where the alpha = 2 shifts land on grid nodes: at h = 0.2 every j tau / h
# rounds to j or above, at h = 30/172 the quotient for j = 7 rounds one ulp below 7;
# and tau != h
SHAPES = [(TimePartition(6.0, 30), Grid1D(-15.0, 15.0, 151)),
          (TimePartition(16 * 30 / 172, 16), Grid1D(-15.0, 15.0, 173)),
          (TimePartition(3.0, 17), Grid1D(-10.0, 10.0, 101))]


class TestBatchedNoiseSum:
    g = InitialField1D.gaussian(1.0)

    @pytest.mark.parametrize("shape", SHAPES, ids=["tau=h", "tau=h-below-node", "tau!=h"])
    @pytest.mark.parametrize("mode", ["per-node", "smooth"])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_matches_pairwise_sum(self, alpha, mode, shape):
        part, grid = shape
        model = NoiseModel(strength=0.1, spatial_mode=mode, seed=31)
        traj = quiet_trajectory(alpha, self.g, model, part, grid, 5)
        ref = pairwise_fields(alpha, self.g, part, grid, traj.increments)
        assert np.max(np.abs(traj.fields - ref)) <= 1e-12
        assert np.array_equal(traj.fields[0], self.g.evaluate(grid.points))

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.sampled_from([1, 2]), mode=st.sampled_from(["per-node", "smooth"]),
           I=st.integers(1, 40), m=st.integers(3, 201),
           # tau / h exact, where the alpha = 2 shifts land on nodes, or anywhere up to
           # 4 cells, where late lags carry the shifted points past the whole grid
           ratio=st.one_of(st.sampled_from([1.0, 0.5, 2.0]), st.floats(0.05, 4.0)),
           index=st.integers(0, 2**20))
    def test_property_matches_pairwise_sum(self, alpha, mode, I, m, ratio, index):
        grid = Grid1D(-15.0, 15.0, m)
        part = TimePartition(I * ratio * grid.h, I)
        model = NoiseModel(strength=0.1, spatial_mode=mode, seed=17)
        traj = quiet_trajectory(alpha, self.g, model, part, grid, index)
        ref = pairwise_fields(alpha, self.g, part, grid, traj.increments)
        assert np.max(np.abs(traj.fields - ref)) <= 1e-12
        # no increment acts at s_0, so the first field is the datum itself, not within rounding
        assert np.array_equal(traj.fields[0], self.g.evaluate(grid.points))

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_one_nonzero_increment_row(self, alpha, monkeypatch):
        # only dW_12 is nonzero: steps 0..12 keep S(s_k) g, later ones add S((k - 12) tau) dW_12
        part, grid = SHAPES[0]
        row = 0.05 * np.random.default_rng(2).standard_normal(grid.m)
        increments = np.zeros((part.I, grid.m))
        increments[12] = row
        monkeypatch.setattr(stochastic, "sample_increments", lambda *args: increments)
        traj = quiet_trajectory(alpha, self.g, NoiseModel(strength=0.1), part, grid)
        ref = pairwise_fields(alpha, self.g, part, grid, increments)
        assert np.max(np.abs(traj.fields - ref)) <= 1e-12

    # tau = h, where 11 lags reach the grid, and tau = h / 1000, where all 3000 do and
    # I (I + 1) / 2 = 4.5M (row, step) pairs land within the grid
    @pytest.mark.parametrize("ratio", [1.0, 1e-3], ids=["tau=h", "tau=h/1000"])
    def test_many_steps_keep_memory_linear(self, ratio):
        grid = Grid1D(-5.0, 5.0, 11)
        part = TimePartition(3000 * ratio * grid.h, 3000)
        increments = sample_increments(NoiseModel(strength=0.1, seed=9), grid, part, 0)
        noise = np.zeros((part.I + 1, grid.m))
        tracemalloc.start()
        try:
            _add_noise(noise, 2, increments, part.tau, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the FFT work arrays, about 16 fields arrays at both ratios; one value per
        # (row, step) pair and point would take 11 x 4.5M
        assert peak <= 32 * noise.nbytes
        tau = part.tau
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in (1, 11, 12, 1500, 3000):
                ref = sum(resolvent_apply(2, k * tau - i * tau, increments[i], grid)
                          for i in range(k))
                assert np.max(np.abs(noise[k] - ref)) <= 1e-12

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_lag_far_past_the_grid(self, alpha):
        # tau = 1e20: every shifted point lies beyond the grid, and the shift in cells
        # overflows an integer
        part, grid = TimePartition(3e20, 3), Grid1D(-15.0, 15.0, 151)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.simplefilter("error", RuntimeWarning)
            traj = simulate_trajectory(alpha, self.g, NoiseModel(strength=0.1, seed=8), part,
                                       grid)
        ref = pairwise_fields(alpha, self.g, part, grid, traj.increments)
        assert np.max(np.abs(traj.fields - ref)) <= 1e-12

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_final_field_is_mild_solution(self, alpha):
        part, grid = SHAPES[0]
        model = NoiseModel(strength=0.1, seed=12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = simulate_trajectory(alpha, self.g, model, part, grid, trajectory_index=3)
            mild = (resolvent_apply(alpha, part.t_final, self.g.evaluate(grid.points), grid)
                    + stochastic_convolution(alpha, part, traj.increments, grid))
        assert np.max(np.abs(traj.final_field - mild)) <= 1e-12

    # (lag j of the table row, lag given to resolvent_apply); 29 tau - 22 tau is the
    # pairwise loop's lag for j = 7, one ulp away from 7 tau at tau = 0.2
    @pytest.mark.parametrize("j, lag", [(1, 0.2), (30, 6.0), (7, 29 * 0.2 - 22 * 0.2)],
                             ids=["h", "30h", "lag-one-ulp-off"])
    def test_heat_table_rows_are_resolvent_apply(self, j, lag):
        part, grid = SHAPES[0]
        t = j * part.tau
        assert abs(lag - t) <= np.spacing(t)
        row = _weights(1, np.arange(1, part.I + 1) * part.tau, grid)[j - 1]
        # entry (p, y) of S(t) weighs f_y at x_p: table column m - 1 + p - y
        offsets = np.subtract.outer(np.arange(grid.m), np.arange(grid.m))
        matrix = row[grid.m - 1 + offsets]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            columns = np.column_stack([resolvent_apply(1, lag, e, grid) for e in np.eye(grid.m)])
        assert np.max(np.abs(matrix - columns)) <= 1e-15

    def test_fft_work_array_over_the_cap_is_refused_before_sampling(self, monkeypatch):
        part, grid = SHAPES[0]
        padded = np.prod(_fft_shape(part.I, grid.m))
        assert (part.I + 1) * grid.m < padded - 1
        monkeypatch.setattr(stochastic, "MAX_NNZ", padded - 1)

        def no_sampling(*args):
            raise AssertionError("sampled before the size check")

        monkeypatch.setattr(stochastic, "sample_increments", no_sampling)
        with pytest.raises(ValueError, match=f"exceeds the cap of {padded - 1} values"):
            simulate_trajectory(1, self.g, NoiseModel(), part, grid)


class TestEdgeWarning:
    grid = Grid1D(-15.0, 15.0, 151)
    g = InitialField1D.gaussian(1.0)

    def edge_warnings(self, alpha):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate_trajectory(alpha, self.g, NoiseModel(), TimePartition(6.0, 30), self.grid)
        return [str(w.message) for w in caught if "mass is leaving the grid" in str(w.message)]

    def test_one_warning_counts_the_steps(self):
        messages = self.edge_warnings(1)
        assert len(messages) == 1
        assert "21 of 31 steps" in messages[0]

    def test_wave_trajectory_does_not_warn(self):
        assert self.edge_warnings(2) == []

    def test_other_warnings_reach_the_caller_once_with_their_category(self, monkeypatch):
        class Marker(UserWarning):
            pass

        part, apply = TimePartition(6.0, 30), stochastic.resolvent_apply

        def marked(alpha, t, f, grid):
            # a trajectory passes every step time in one call
            if 2 * part.tau in np.atleast_1d(t):
                warnings.warn("marked step", Marker)
            return apply(alpha, t, f, grid)

        monkeypatch.setattr(stochastic, "resolvent_apply", marked)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate_trajectory(1, self.g, NoiseModel(), part, self.grid)
        assert [(w.category, str(w.message)) for w in caught if w.category is not EdgeWarning] \
            == [(Marker, "marked step")]
        assert sum(w.category is EdgeWarning for w in caught) == 1
