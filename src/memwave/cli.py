"""Command-line front end.

Subcommands: solve1d (field curves at listed times), solve2d (full field
plus the y=0 section), stochastic (trajectory time table) and validate
(numeric vs analytic error table at the endpoint orders).

All outputs are CSV with '#'-prefixed metadata lines carrying the full
configuration echo and the solver report, so a run is reproducible from
its own output file.  Floats are printed with repr, which round-trips
exactly.  Exit codes: 0 success, 1 invalid configuration, 2 solver
failure (non-convergence or a singular system), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .analytic_reference import heat_solution, wave_solution
from .memory_kernel import MemoryOrder
from .solver_1d import Grid1D, InitialField1D, SolverConvergenceError, assemble_1d, solve_1d
from .solver_2d import Grid2D, InitialField2D, solve_2d
from .sparse_linalg import DEFAULT_MAX_ITER, DEFAULT_TOL, SingularMatrixError, write_matrix_market
from .stochastic import NoiseModel, TimePartition, default_partition, simulate_trajectory
from .time_basis import build_basis, coupling_matrix, source_weights

# not called here; perfbench's tracer wraps them (SITES in perfbench/harness.py)
from .solver_1d import sup_error  # noqa: F401
from .solver_2d import assemble_2d  # noqa: F401
from .sparse_linalg import bicg_solve, build_preconditioner  # noqa: F401

__all__ = ["RunConfig", "ConfigError", "run", "main"]

OUTPUT_DIR_ENV = "MEMWAVE_OUTDIR"


class ConfigError(ValueError):
    """Invalid configuration (maps to exit code 1)."""


@dataclass
class RunConfig:
    """Flat, serializable description of one run."""

    subcommand: str = "solve1d"
    alpha: float = 1.0
    T: float = 6.0
    n: int = 8
    x_min: float = -15.0
    x_max: float = 15.0
    m: int = 151
    sigma: float = 1.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    method: str = "auto"
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    noise_C: float = 0.1
    noise_mode: str = "per-node"
    ell: float = 1.0
    seed: int = 0
    steps: int = 0
    times: tuple = ()
    output: str = ""
    dump_matrix: str = ""

    def to_text(self) -> str:
        lines = []
        for f in sorted(dataclass_fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if f.name == "times":
                v = ",".join(repr(float(t)) for t in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        """Parse key=value lines, or the "# key=value" echo (not the report) atop an output file."""
        known = {f.name: f for f in dataclass_fields(cls)}
        lines = text.splitlines()
        if lines and lines[0].startswith("# memwave "):
            lines = [line.removeprefix("# ") for line in lines[1:1 + len(known)]]
        values = {}
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
            values[key] = _parse_value(key, val, known[key].type)
        return cls(**values)


def _parse_value(key: str, val: str, ftype: str):
    try:
        if key == "times":
            return tuple(float(p) for p in val.split(",") if p.strip() != "")
        if ftype == "int":
            return int(val)
        if ftype == "float":
            return float(val)
        return val
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    # argparse normally exits with status 2; route errors to ConfigError
    # so the documented exit code 1 applies.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="memwave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        # no prefix matching: stochastic would read "--n" as "--noise-mode"
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--alpha", type=float)
        p.add_argument("--T", type=float)
        p.add_argument("--xmin", dest="x_min", type=float)
        p.add_argument("--xmax", dest="x_max", type=float)
        p.add_argument("--m", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--output", "-o")
        if name != "stochastic":
            p.add_argument("--n", type=int)
            p.add_argument("--method", choices=("auto", "direct", "bicg"))
            p.add_argument("--tol", type=float)
            p.add_argument("--max-iter", dest="max_iter", type=int)
        if name in ("solve1d", "solve2d"):
            p.add_argument("--dump-matrix", dest="dump_matrix")
        if name == "solve1d":
            p.add_argument("--times", help="comma-separated output times")
        if name == "solve2d":
            p.add_argument("--sigma1", type=float)
            p.add_argument("--sigma2", type=float)
        if name == "stochastic":
            p.add_argument("--C", dest="noise_C", type=float)
            p.add_argument("--noise-mode", dest="noise_mode", choices=("per-node", "smooth"))
            p.add_argument("--ell", type=float)
            p.add_argument("--seed", type=int)
            p.add_argument("--steps", type=int)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = RunConfig.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    else:
        config = RunConfig()
    config.subcommand = args.subcommand
    for f in dataclass_fields(RunConfig):
        if f.name in ("subcommand", "times"):
            continue
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(config, f.name, v)
    if getattr(args, "times", None) is not None:
        config.times = _parse_value("times", args.times, "tuple")
    return config


def _out_path(path: str) -> str:
    """Where an output file goes: a relative path is taken under $MEMWAVE_OUTDIR, if set."""
    return path if os.path.isabs(path) else os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), path)


def _fmt(v: float) -> str:
    return repr(float(v))


def _metadata(config: RunConfig, extra: list[str]) -> list[str]:
    lines = [f"# memwave {config.subcommand}"]
    lines += [f"# {line}" for line in config.to_text().splitlines()]
    lines += [f"# {line}" for line in extra]
    return lines


def _report_line(report) -> str:
    # space-separated key=value tokens, so the line splits without quoting
    return (
        f"report: method={report.method} iterations={report.iterations} "
        f"residual={_fmt(report.residual)} converged={report.converged} "
        f"slabs={report.slabs} time_drift={_fmt(report.time_drift)} "
        f"slabs_capped={report.slabs_capped} breakdown={report.breakdown}"
    )


def _write_csv(path: str, meta: list[str], header: str, rows) -> None:
    with open(path, "w") as fh:
        for line in meta:
            fh.write(line + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _solve_gaussian_1d(config: RunConfig):
    """The configured 1D grid, Gaussian datum and solve, shared by solve1d and validate."""
    grid = Grid1D(config.x_min, config.x_max, config.m)
    return solve_1d(
        MemoryOrder(config.alpha), config.T, config.n, grid, InitialField1D.gaussian(config.sigma),
        method=config.method, tol=config.tol, max_iter=config.max_iter,
    )


def _run_solve1d(config: RunConfig) -> int:
    field = _solve_gaussian_1d(config)
    times = config.times or (0.0, config.T)
    x = [_fmt(xi) for xi in field.grid.points]
    rows = []
    for t in times:
        ft, vals = _fmt(t), field.reconstruct(float(t)).tolist()
        rows += [(ft, xi, repr(v)) for xi, v in zip(x, vals)]
    path = _out_path(config.output or "solve1d.csv")
    _write_csv(path, _metadata(config, [_report_line(field.report)]), "t,x,f", rows)
    if config.dump_matrix:
        _dump_system(config, field)
    print(f"solve1d: wrote {path} ({field.report.method}, residual {field.report.residual:.3e})")
    return 0


def _dump_system(config: RunConfig, field) -> None:
    """Write I + kron(tau^alpha B_0, L), the one-slab system the solve used on every slab."""
    slab = build_basis(field.basis.slab_length, field.basis.size_n)
    coupling, weights = coupling_matrix(slab, field.order), source_weights(slab)
    system = assemble_1d(coupling, weights, field.initial, field.grid)
    write_matrix_market(system.matrix, _out_path(config.dump_matrix))


def _run_solve2d(config: RunConfig) -> int:
    grid = Grid2D(config.x_min, config.x_max, config.m)
    if config.sigma1 or config.sigma2:  # 0, the default, leaves a width unset
        if not (config.sigma1 > 0 and config.sigma2 > 0):
            raise ConfigError("--sigma1 and --sigma2 must both be set and positive, "
                              f"got {config.sigma1!r} and {config.sigma2!r}")
        if config.sigma != RunConfig.sigma:
            raise ConfigError(f"--sigma {config.sigma!r} does not apply with --sigma1 and "
                              "--sigma2, which set the anisotropic widths")
        g = InitialField2D.anisotropic_gaussian(config.sigma1, config.sigma2)
    else:
        g = InitialField2D.radial_gaussian(config.sigma)
    field = solve_2d(
        MemoryOrder(config.alpha), config.T, config.n, grid, g,
        method=config.method, tol=config.tol, max_iter=config.max_iter,
    )
    values = field.reconstruct(config.T).tolist()
    x = [_fmt(xi) for xi in grid.points]
    rows = [(xi, yj, repr(v)) for xi, row in zip(x, values) for yj, v in zip(x, row)]
    path = _out_path(config.output or "solve2d.csv")
    meta = _metadata(config, [_report_line(field.report)])
    _write_csv(path, meta, "x,y,f", rows)
    iy = grid.nearest_index(0.0)
    section = [row[iy] for row in values]
    sec_path = os.path.splitext(path)[0] + "_section.csv"
    _write_csv(sec_path, meta, "x,f", [(xi, repr(v)) for xi, v in zip(x, section)])
    if config.dump_matrix:
        _dump_system(config, field)
    print(f"solve2d: wrote {path} and {sec_path} ({field.report.method})")
    return 0


def _run_stochastic(config: RunConfig) -> int:
    grid = Grid1D(config.x_min, config.x_max, config.m)
    g = InitialField1D.gaussian(config.sigma)
    model = NoiseModel(config.noise_C, config.noise_mode, config.ell, config.seed)
    # steps 0 takes the default partition; TimePartition refuses a negative count
    partition = (
        TimePartition(config.T, config.steps) if config.steps
        else default_partition(config.T, grid)
    )
    # simulate_trajectory refuses an alpha other than 1 or 2 (closed-form resolvent)
    traj = simulate_trajectory(config.alpha, g, model, partition, grid)
    x = grid.points
    rows = [
        (_fmt(t), _fmt(xi), _fmt(v))
        for t, fieldvals in zip(traj.times, traj.fields)
        for xi, v in zip(x, fieldvals)
    ]
    path = _out_path(config.output or "stochastic.csv")
    _write_csv(path, _metadata(config, [f"steps={partition.I}", f"tau={_fmt(partition.tau)}"]),
               "t,x,f", rows)
    print(f"stochastic: wrote {path} ({partition.I} steps, C={config.noise_C})")
    return 0


def _run_validate(config: RunConfig) -> int:
    alpha = config.alpha
    if alpha not in (1.0, 2.0):
        raise ConfigError("validate requires alpha 1 or 2 (analytic reference)")
    field = _solve_gaussian_1d(config)
    x = field.grid.points
    numeric = field.reconstruct(config.T)
    if alpha == 1.0:
        analytic = heat_solution(x, config.T, config.sigma)
    else:
        analytic = wave_solution(x, config.T, field.initial.evaluate)
    err = np.abs(numeric - analytic)
    max_err = float(err.max())
    rows = [
        (_fmt(xi), _fmt(nv), _fmt(av), _fmt(ev))
        for xi, nv, av, ev in zip(x, numeric, analytic, err)
    ]
    meta = _metadata(config, [_report_line(field.report), f"max_error={_fmt(max_err)}"])
    path = _out_path(config.output or "validate.csv")
    _write_csv(path, meta, "x,numeric,analytic,abs_error", rows)
    print(f"validate: max error {max_err:.6e} (alpha={alpha}, n={config.n}, m={config.m}); wrote {path}")
    return 0


_RUNNERS = {
    "solve1d": _run_solve1d,
    "solve2d": _run_solve2d,
    "stochastic": _run_stochastic,
    "validate": _run_validate,
}


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    if config.subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    return _RUNNERS[config.subcommand](config)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _merge_config(args)
        return run(config)
    except ValueError as exc:  # ConfigError included
        print(f"memwave: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (SolverConvergenceError, SingularMatrixError) as exc:
        print(f"memwave: solver failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"memwave: I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
