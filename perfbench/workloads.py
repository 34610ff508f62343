"""The three workloads: inputs made from the seed, one op, and the checks on it.

Every workload hands out its inputs in passes (one full sweep, one alpha
cycle, one block of four trajectories) and a run always ends on a pass
boundary, so every run sees the same mix of cases in a seed-dependent
order.  Library calls go through the module attributes, never through
names bound at import, so the traced run sees them.

An op that raises one of the library's errors, or whose CLI run exits
non-zero, is a failed op.  An op that returns output failing a check is a
failed op and also makes the run incorrect: a wrong answer is worse than a
refused one.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np
from scipy.special import erf

import hostspeed
import memwave.cli
from memwave import analytic_reference, solver_1d, stochastic
from memwave import Grid1D, InitialField1D, MemoryOrder, NoiseModel, TimePartition

# Default tolerance of solve_1d / solve_2d; the residual check uses the same value.
SOLVE_TOL = 1e-10


class OpFailure(RuntimeError):
    """The program refused an op (non-zero CLI exit)."""


# Largest sup error accepted, as a share of max|oracle|.  The baseline stays
# below 0.11 wherever the basis resolves the solution, so a field that is off
# by a quarter of its size fails.
ORACLE_SHARE = 0.25


def _oracle_problem(err: float, oracle: np.ndarray, share: float = ORACLE_SHARE) -> list[str]:
    scale = float(np.max(np.abs(oracle)))
    if err < share * scale:
        return []
    return [f"sup error {err:.3e} is not below {share:g} x max|closed form| = {share * scale:.3e}"]


class Sweep1D:
    """Closed-loop alpha x T x n sweep through solve_1d, seeded order per pass."""

    name = "sweep1d"
    ALPHAS = (1.0, 1.25, 1.5, 1.75, 2.0)
    HORIZONS = (3.0, 6.0, 12.0)
    SIZES = (8, 18, 32)
    HOST_SPEED = hostspeed.QuadratureAndLU
    HOST_SPEED_EVERY = 0.25  # seconds between host-speed samples
    expected_layers = (
        "solver_1d.solve_1d", "time_basis.coupling_matrix", "solver_1d.assemble_1d",
        "sparse_linalg.lu_solve", "sparse_linalg.matvec", "time_basis.reconstruct",
    )

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.cases = [(a, T, n) for T in self.HORIZONS for n in self.SIZES for a in self.ALPHAS]
        self.g = InitialField1D.gaussian(1.0)
        # criterion 1/3 shapes: [-15, 15] with m = 151 up to T = 6, [-20, 20] with m = 201 beyond
        self.grids = {T: Grid1D(-15.0, 15.0, 151) if T <= 6 else Grid1D(-20.0, 20.0, 201)
                      for T in self.HORIZONS}

    def warm_up(self) -> None:
        field = solver_1d.solve_1d(MemoryOrder(1.5), 1.0, 4, Grid1D(-8.0, 8.0, 41), self.g)
        solver_1d.sup_error(field, 1.0, field.reconstruct(1.0))

    def passes(self):
        while True:
            yield [self.cases[i] for i in self.rng.permutation(len(self.cases))]

    def coupling_key(self, case):
        alpha, _, n = case
        return (n, alpha)

    def _oracle(self, alpha: float, T: float):
        if alpha == 1.0:
            return lambda x: analytic_reference.heat_solution(x, T, 1.0)
        if alpha == 2.0:
            return lambda x: analytic_reference.wave_solution(x, T, self.g.evaluate)
        return None

    def op(self, case):
        alpha, T, n = case
        field = solver_1d.solve_1d(MemoryOrder(alpha), T, n, self.grids[T], self.g)
        profiles = [field.reconstruct(t) for t in (T / 4, T / 2, 3 * T / 4, T)]
        oracle = self._oracle(alpha, T)
        err = solver_1d.sup_error(field, T, oracle) if oracle is not None else None
        return field, profiles, err

    def check(self, case, result):
        """Returns (oracle error or None, list of problems, extra counts)."""
        alpha, T, n = case
        field, profiles, err = result
        problems = []
        if not all(np.all(np.isfinite(p)) for p in profiles):
            problems.append("non-finite field")
        report = field.report
        if not (report.converged and report.residual <= SOLVE_TOL):
            problems.append(f"relative residual {report.residual:.3e} above {SOLVE_TOL:g}")
        if err is not None:
            # n=8 does not resolve T=12 (its wave error there is 0.89 of the
            # signal), so it only has to beat a field of zeros.
            share = ORACLE_SHARE if n >= 18 else 1.0
            problems += _oracle_problem(err, self._oracle(alpha, T)(field.grid.points), share)
        return err, problems, {}

    def finish(self):
        return [], []


class Field2D:
    """Closed-loop ``memwave solve2d`` runs in-process, alpha cycling 1, 1.5, 2."""

    name = "field2d"
    ALPHAS = (1.0, 1.5, 2.0)
    M, N_BASIS, T, SIGMA = 101, 8, 6.0, 2.0
    # alpha = 1.5 converges in 286 iterations and alpha = 1 in 199; alpha = 2
    # stagnates near 2.5e-10, so the cap makes that op fail in bounded time.
    MAX_ITER = 400
    # ops take seconds, so the host speed is sampled between every two ops
    HOST_SPEED = hostspeed.KroneckerIterations
    HOST_SPEED_EVERY = 0.0
    expected_layers = (
        "cli.main", "solver_2d.solve_2d", "time_basis.coupling_matrix", "solver_2d.assemble_2d",
        "sparse_linalg.build_preconditioner", "sparse_linalg.bicg_solve",
        "sparse_linalg.matvec", "sparse_linalg.rmatvec", "time_basis.reconstruct",
    )

    def __init__(self, seed: int, out_dir: Path):
        start = int(np.random.default_rng(seed).integers(len(self.ALPHAS)))
        self.order = self.ALPHAS[start:] + self.ALPHAS[:start]
        self.out_dir = out_dir / "field2d"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # the CLI's default domain [-15, 15]
        self.points = np.linspace(-15.0, 15.0, self.M)

    def _solve2d(self, alpha, path, *extra) -> tuple[int, str]:
        argv = ["solve2d", "--alpha", repr(alpha), "--T", repr(self.T), "--n", str(self.N_BASIS),
                "--m", str(self.M), "--sigma", repr(self.SIGMA), "-o", str(path), *extra]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = memwave.cli.main(argv)
        return code, stderr.getvalue().strip()

    def warm_up(self) -> None:
        # Full shape, stopped after two iterations: the first allocation of the
        # 39 MB matrix and the solver vectors is paid here, not by the first op.
        code, message = self._solve2d(1.0, self.out_dir / "warm_up.csv", "--max-iter", "2")
        if code not in (0, 2):
            raise OpFailure(f"warm-up solve2d exit {code}: {message}")

    def passes(self):
        while True:
            yield list(self.order)

    def coupling_key(self, alpha):
        return (self.N_BASIS, alpha)

    def _path(self, alpha) -> Path:
        return self.out_dir / f"alpha{alpha}.csv"

    def op(self, alpha):
        code, message = self._solve2d(alpha, self._path(alpha), "--max-iter", str(self.MAX_ITER))
        if code != 0:
            raise OpFailure(f"memwave solve2d exit {code}: {message}")
        return self._path(alpha)

    def check(self, alpha, path):
        lines = path.read_text().splitlines()
        meta = [line for line in lines if line.startswith("#")]
        problems = []
        report = next((line for line in meta if line.startswith("# report:")), "")
        fields = dict(item.split("=", 1) for item in report.split()[2:])
        residual = float(fields.get("residual", "nan"))
        if not (fields.get("converged") == "True" and residual <= SOLVE_TOL):
            problems.append(f"CSV report line {report!r} shows no converged solve")
        data = np.loadtxt(lines[len(meta) + 1:], delimiter=",", ndmin=2)
        section = path.with_name(path.stem + "_section.csv")
        if data.shape != (self.M * self.M, 3) or not section.is_file():
            problems.append(f"CSV holds {data.shape} values, expected {(self.M * self.M, 3)}")
            return None, problems, {}
        values = data[:, 2].reshape(self.M, self.M)
        if not np.all(np.isfinite(values)):
            problems.append("non-finite field")
        err = None
        if alpha == 1.0:
            # radial Gaussian = product of 1D Gaussians, and the heat flow is separable
            h = analytic_reference.heat_solution(self.points, self.T, self.SIGMA)
            oracle = np.outer(h, h)
            err = float(np.max(np.abs(values - oracle)))
            problems += _oracle_problem(err, oracle)
        return err, problems, {"output_bytes": path.stat().st_size + section.stat().st_size}

    def finish(self):
        return [], []


class Ensemble:
    """Closed loop of simulate_trajectory over seeded trajectory indices."""

    name = "ensemble"
    COMBOS = ((1, "per-node"), (1, "smooth"), (2, "per-node"), (2, "smooth"))
    STRENGTH = 0.1
    HOST_SPEED = hostspeed.SmallArrays
    HOST_SPEED_EVERY = 0.2
    expected_layers = (
        "stochastic.simulate_trajectory", "stochastic.sample_increments",
        "analytic_reference.resolvent_apply",
    )

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.master = int(self.rng.integers(2**31))
        self.next_index = int(self.rng.integers(2**20))
        self.grid = Grid1D(-15.0, 15.0, 151)
        self.g = InitialField1D.gaussian(1.0)
        self.gvals = self.g.evaluate(self.grid.points)
        self.partition = TimePartition(6.0, 30)
        self.models = {mode: NoiseModel(self.STRENGTH, mode, 1.0, self.master)
                       for _, mode in self.COMBOS}
        self.first = None

    def warm_up(self) -> None:
        short = TimePartition(0.4, 2)
        for alpha, mode in self.COMBOS:
            stochastic.simulate_trajectory(alpha, self.g, self.models[mode], short, self.grid,
                                           self.next_index + 2**30)

    def passes(self):
        # each block of four holds every (alpha, noise mode) once, in seeded order
        while True:
            block = []
            for i in self.rng.permutation(len(self.COMBOS)):
                block.append((*self.COMBOS[i], self.next_index))
                self.next_index += 1
            yield block

    def coupling_key(self, item):
        return None

    def _simulate(self, alpha, model, index):
        return stochastic.simulate_trajectory(alpha, self.g, model, self.partition, self.grid, index)

    def op(self, item):
        alpha, mode, index = item
        return self._simulate(alpha, self.models[mode], index)

    def check(self, item, traj):
        alpha, mode, index = item
        problems = []
        if not np.all(np.isfinite(traj.fields)):
            problems.append("non-finite trajectory")
        if not np.array_equal(traj.fields[0], self.gvals):
            problems.append("first field differs from the initial datum")
        expected = stochastic.sample_increments(self.models[mode], self.grid, self.partition, index)
        if not np.array_equal(traj.increments, expected):
            problems.append("increments are not the (seed, index) stream")
        mild = (analytic_reference.resolvent_apply(alpha, self.partition.t_final, self.gvals,
                                                   self.grid)
                + stochastic.stochastic_convolution(alpha, self.partition, traj.increments,
                                                    self.grid))
        if not np.max(np.abs(traj.fields[-1] - mild)) <= 1e-12:
            problems.append("final field differs from S(T) g + stochastic convolution")
        if self.first is None:
            self.first = (item, traj.fields.copy())
        return None, problems, {}

    def finish(self):
        """Run-level checks: returns (oracle errors, problems)."""
        problems = []
        tau = self.partition.tau
        quiet = NoiseModel(0.0, seed=self.master)
        for alpha in (1, 2):
            traj = self._simulate(alpha, quiet, self.next_index)
            for k, field in enumerate(traj.fields):
                exact = analytic_reference.resolvent_apply(alpha, k * tau, self.gvals, self.grid)
                if not np.array_equal(field, exact):
                    problems.append(f"C=0 trajectory at alpha={alpha} differs from S(t) g at step {k}")
                    break
        if self.first is not None:
            (alpha, mode, index), fields = self.first
            again = self._simulate(alpha, self.models[mode], index)
            if not np.array_equal(again.fields, fields):
                problems.append(f"re-simulated trajectory {index} is not bit-identical")
        # Left-endpoint sum with the deterministic increments tau*g at alpha = 2
        # against its closed form (sqrt(pi)/4)(erf(x + t) - erf(x - t)) for sigma = 1:
        # the time-discretisation error the ensemble's convolution sum carries.
        x, t = self.grid.points, self.partition.t_final
        increments = np.tile(tau * self.gvals, (self.partition.I, 1))
        summed = stochastic.stochastic_convolution(2, self.partition, increments, self.grid)
        oracle = np.sqrt(np.pi) / 4.0 * (erf(x + t) - erf(x - t))
        err = float(np.max(np.abs(summed - oracle)))
        problems += _oracle_problem(err, oracle)
        return [err], problems


WORKLOADS = {w.name: w for w in (Sweep1D, Field2D, Ensemble)}
