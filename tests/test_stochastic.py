import warnings

import numpy as np
import pytest

from memwave import (
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
from memwave.analytic_reference import heat_matrix, shift_average


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


def pairwise_fields(alpha, g, model, part, grid, index):
    """The mild solution summed one (s_k, s_i) pair at a time through resolvent_apply."""
    increments = sample_increments(model, grid, part, index)
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


# tau = h, where the alpha = 2 shifts land on grid nodes, and tau != h
SHAPES = [(TimePartition(6.0, 30), Grid1D(-15.0, 15.0, 151)),
          (TimePartition(3.0, 17), Grid1D(-10.0, 10.0, 101))]


class TestBatchedNoiseSum:
    g = InitialField1D.gaussian(1.0)

    @pytest.mark.parametrize("shape", SHAPES, ids=["tau=h", "tau!=h"])
    @pytest.mark.parametrize("mode", ["per-node", "smooth"])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_matches_pairwise_sum(self, alpha, mode, shape):
        part, grid = shape
        model = NoiseModel(strength=0.1, spatial_mode=mode, seed=31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = simulate_trajectory(alpha, self.g, model, part, grid, trajectory_index=5)
        ref = pairwise_fields(alpha, self.g, model, part, grid, 5)
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

    # (t of the matrix, lag given to resolvent_apply); 29 tau - 22 tau is the
    # pairwise loop's lag for j = 7, one ulp away from 7 tau at tau = 0.2
    @pytest.mark.parametrize("t, lag", [(0.2, 0.2), (6.0, 6.0), (7 * 0.2, 29 * 0.2 - 22 * 0.2)],
                             ids=["h", "30h", "lag-one-ulp-off"])
    def test_heat_matrix_columns_are_resolvent_apply(self, t, lag):
        grid = SHAPES[0][1]
        assert abs(lag - t) <= np.spacing(t)
        matrix = heat_matrix(t, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            columns = np.column_stack([resolvent_apply(1, lag, e, grid) for e in np.eye(grid.m)])
        assert np.max(np.abs(matrix - columns)) <= 1e-15

    def test_shift_average_rows_are_resolvent_apply(self):
        part, grid = SHAPES[0]
        fields = 0.05 * np.random.default_rng(4).standard_normal((7, grid.m))
        # no shift, the pairwise lag one ulp off 7 tau, off-grid, the whole
        # domain (one node left), beyond it
        shifts = np.array([0.0, 29 * part.tau - 22 * part.tau, 7 * part.tau, 1.234,
                           29.9, 30.0, 45.0])
        rows = shift_average(fields, shifts, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = np.array([resolvent_apply(2, t, f, grid) for t, f in zip(shifts, fields)])
        assert np.max(np.abs(rows - ref)) <= 1e-14
        assert np.array_equal(rows[-1], np.zeros(grid.m))


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
