import argparse
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from memwave import (
    Grid1D,
    Grid2D,
    InitialField1D,
    InitialField2D,
    MemoryOrder,
    SolveReport,
    assemble_1d,
    assemble_2d,
    build_basis,
    coupling_matrix,
    solve_1d,
    solve_2d,
    source_weights,
)
from memwave.cli import ConfigError, RunConfig, build_parser, main, run


def read_csv(path):
    meta, rows = [], []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line
            else:
                rows.append(line.split(","))
    return meta, header, rows


def solve1d_args(tmp_path, **extra):
    args = [
        "solve1d", "--alpha", "1.5", "--T", "2.0", "--n", "3",
        "--xmin", "-10", "--xmax", "10", "--m", "21",
        "--output", str(tmp_path / "out.csv"),
    ]
    for k, v in extra.items():
        args += [f"--{k}", str(v)]
    return args


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        assert main(solve1d_args(tmp_path)) == 0
        assert (tmp_path / "out.csv").exists()
        assert "solve1d: wrote" in capsys.readouterr().out

    def test_invalid_alpha(self, tmp_path, capsys):
        assert main(solve1d_args(tmp_path, alpha=2.5)) == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve1d", "--T", "inf"],
        ["solve1d", "--xmin=-inf", "--xmax=inf"],
        ["solve1d", "--xmin=-1e308", "--xmax=1e308"],
        ["solve2d", "--T", "inf"],
        ["validate", "--T", "inf"],
        ["stochastic", "--alpha", "2", "--T", "inf"],
        ["stochastic", "--alpha", "2", "--T", "inf", "--steps", "3"],
    ])
    def test_infinite_horizon_or_span(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--output", str(out)]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_trajectory_too_large_to_hold(self, tmp_path, capsys):
        # T = 1e12 at h = 0.2 asks for 5e12 steps; it is refused before any sampling
        out = tmp_path / "out.csv"
        assert main(["stochastic", "--alpha", "1", "--T", "1e12", "--output", str(out)]) == 1
        assert "exceeds the cap of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["stochastic", "--n", "99"],
        ["stochastic", "--method", "bicg"],
        ["stochastic", "--tol", "5"],
        ["stochastic", "--max-iter", "3"],
        ["stochastic", "--dump-matrix", "s.mtx"],
        ["validate", "--dump-matrix", "v.mtx"],
    ])
    def test_flag_the_subcommand_ignores(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--alpha", "2", "--T", "1", "--output", "out.csv"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand(self, tmp_path, capsys):
        assert main(["shred"]) == 1
        assert main([]) == 1
        assert main(["bench"]) == 1
        assert main(solve1d_args(tmp_path) + ["--no-precond"]) == 1

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alpha 1.5\n")
        assert main(["solve1d", "--config", str(bad)]) == 1
        bad.write_text("bogus_key=3\n")
        assert main(["solve1d", "--config", str(bad)]) == 1
        bad.write_text("alpha=not-a-number\n")
        assert main(["solve1d", "--config", str(bad)]) == 1
        bad.write_text("precond=false\n")
        assert main(["solve1d", "--config", str(bad)]) == 1

    def test_malformed_times(self, tmp_path, capsys):
        # --times and a times= line share one parser, so both refuse the same list
        bad, out = tmp_path / "bad.cfg", tmp_path / "out.csv"
        bad.write_text("times=0,abc\n")
        assert main(["solve1d", "--times", "0,abc", "-o", str(out)]) == 1
        assert main(["solve1d", "--config", str(bad), "-o", str(out)]) == 1
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve1d", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_solver_failure(self, tmp_path, capsys):
        code = main(solve1d_args(tmp_path, method="bicg", tol=1e-30, **{"max-iter": 1}))
        assert code == 2
        assert "solver failed" in capsys.readouterr().err

    def test_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        args = solve1d_args(tmp_path)
        args[-1] = str(blocker / "out.csv")
        assert main(args) == 3
        assert "I/O failure" in capsys.readouterr().err


# a small valid run per subcommand, less its --alpha; solve2d at n <= 2 would run K to its cap
SWEEP_BASES = {
    "solve1d": ["--T", "1", "--n", "3", "--m", "21", "--xmin", "-10", "--xmax", "10"],
    "validate": ["--T", "1", "--n", "3", "--m", "21", "--xmin", "-10", "--xmax", "10"],
    "solve2d": ["--n", "4", "--m", "11"],
    "stochastic": ["--steps", "3", "--m", "21", "--noise-mode", "smooth"],
}
SWEEP_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e-160", "1e160", "1e300")


def numeric_flags(subcommand):
    """Every int or float option the subcommand's parser takes, read from the parser itself."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[subcommand]._actions
            if a.type in (int, float)]


class TestExtremeInputs:
    # every subcommand at alpha 1, 1.5 and 2; alpha 1 keeps the bare subcommand as its id
    @pytest.mark.parametrize("subcommand, alpha", [
        pytest.param(sub, alpha, id=sub if alpha == "1" else f"{sub}-alpha{alpha}")
        for sub in sorted(SWEEP_BASES) for alpha in ("1", "1.5", "2")])
    def test_every_numeric_flag_at_every_extreme(self, subcommand, alpha, tmp_path, capsys):
        # tier-1 turns a RuntimeWarning into an exception, so one escaping main is a failure here
        if subcommand == "validate" and alpha == "1.5":
            pytest.skip("validate refuses alpha 1.5: its analytic reference covers 1 and 2")
        out = tmp_path / "out.csv"
        failures = []
        for flag in numeric_flags(subcommand):
            for value in SWEEP_VALUES:
                # the swept flag comes last, so it overrides --alpha when it is --alpha
                argv = [subcommand, *SWEEP_BASES[subcommand], f"--alpha={alpha}",
                        f"{flag}={value}", "-o", str(out)]
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        code = main(argv)
                except Exception as exc:  # noqa: BLE001 - any escape is the finding
                    failures.append(f"{flag}={value}: {type(exc).__name__}: {exc}")
                    continue
                if code not in (0, 1, 2, 3):
                    failures.append(f"{flag}={value}: exit {code}")
                elif code == 0:
                    _, _, rows = read_csv(out)
                    values = np.array(rows, dtype=float)
                    if not np.all(np.isfinite(values)):
                        failures.append(f"{flag}={value}: exit 0 with non-finite CSV values")
                capsys.readouterr()
        assert not failures, "\n".join(failures)

    def test_singular_wave_system_is_a_solver_failure(self, tmp_path, capsys):
        # tau^2 = 1e308 still fits a float, but on the default grid the system's entries overflow
        # in the LU factorization; direct is pinned, since auto takes BiCG at K = 1 < n = 8
        argv = ["solve1d", "--alpha", "2", "--T", "1e154", "--method", "direct",
                "-o", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert "solver failed" in capsys.readouterr().err

    def test_negative_step_count_is_refused(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        base = ["stochastic", "--alpha", "2", "-o", str(out)]
        assert main(base + ["--steps=-1"]) == 1
        assert "I must be a positive integer" in capsys.readouterr().err
        assert not out.exists()
        assert main(base + ["--steps=0", "--T", "1"]) == 0
        assert "# steps=5" in read_csv(out)[0]  # the default partition: T / h = 1 / 0.2


class TestOutputs:
    def test_repeat_runs_byte_identical(self, tmp_path, capsys, monkeypatch):
        # same config into two directories, so the echoed config matches too
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir(), d2.mkdir()
        args = solve1d_args(tmp_path)
        args[-1] = "run.csv"
        monkeypatch.setenv("MEMWAVE_OUTDIR", str(d1))
        assert main(args) == 0
        monkeypatch.setenv("MEMWAVE_OUTDIR", str(d2))
        assert main(args) == 0
        assert (d1 / "run.csv").read_bytes() == (d2 / "run.csv").read_bytes()

    def test_values_round_trip_exactly(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(solve1d_args(tmp_path, times="0.0,2.0")) == 0
        meta, header, rows = read_csv(out)
        assert header == "t,x,f"
        grid = Grid1D(-10.0, 10.0, 21)
        field = solve_1d(MemoryOrder(1.5), 2.0, 3, grid, InitialField1D.gaussian(1.0))
        expected = np.concatenate([field.reconstruct(0.0), field.reconstruct(2.0)])
        parsed = np.array([float(r[2]) for r in rows])
        assert np.array_equal(parsed, expected)

    def test_solve1d_rows_are_per_value_repr(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(solve1d_args(tmp_path, times="0.0,0.5,2.0")) == 0
        grid = Grid1D(-10.0, 10.0, 21)
        field = solve_1d(MemoryOrder(1.5), 2.0, 3, grid, InitialField1D.gaussian(1.0))
        expected = [
            f"{float(t)!r},{float(x)!r},{float(v)!r}"
            for t in (0.0, 0.5, 2.0)
            for x, v in zip(grid.points, field.reconstruct(t))
        ]
        assert out.read_text().splitlines()[-len(expected) - 1:] == ["t,x,f"] + expected

    def test_solve2d_rows_are_per_value_repr(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        assert main(["solve2d", "--alpha", "1.5", "--T", "1.0", "--n", "4",
                     "--xmin", "-10", "--xmax", "10", "--m", "15",
                     "--output", str(out)]) == 0
        grid = Grid2D(-10.0, 10.0, 15)
        field = solve_2d(MemoryOrder(1.5), 1.0, 4, grid, InitialField2D.radial_gaussian(1.0))
        values, x = field.reconstruct(1.0), grid.points
        expected = [f"{float(x[i])!r},{float(x[j])!r},{float(values[i, j])!r}"
                    for i in range(15) for j in range(15)]
        assert out.read_text().splitlines()[-len(expected) - 1:] == ["x,y,f"] + expected
        section = [f"{float(xi)!r},{float(v)!r}" for xi, v in zip(x, field.section(1.0))]
        lines = (tmp_path / "field_section.csv").read_text().splitlines()
        assert lines[-len(section) - 1:] == ["x,f"] + section

    def test_metadata_echoes_config(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(solve1d_args(tmp_path)) == 0
        meta, _, _ = read_csv(out)
        assert meta[0] == "# memwave solve1d"
        assert "# alpha=1.5" in meta
        assert "# m=21" in meta
        assert any(line.startswith("# report: method=") for line in meta)

    def test_report_line_is_key_value_tokens(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(solve1d_args(tmp_path)) == 0
        meta, _, _ = read_csv(out)
        report = next(line for line in meta if line.startswith("# report:"))
        tokens = dict(token.split("=", 1) for token in report.split()[2:])
        assert tokens["method"] == "direct" and tokens["converged"] == "True"
        assert int(tokens["slabs"]) >= 1
        assert 0.0 <= float(tokens["time_drift"]) <= 1e-6
        assert tokens["slabs_capped"] == "False" and tokens["breakdown"] == "False"
        # the tokens are SolveReport's fields, in order, and each reads back to its value
        assert list(tokens) == [f.name for f in fields(SolveReport)]
        want = solve_1d(MemoryOrder(1.5), 2.0, 3, Grid1D(-10.0, 10.0, 21),
                        InitialField1D.gaussian(1.0)).report
        parse = {"str": str, "int": int, "float": float, "bool": lambda v: v == "True"}
        assert SolveReport(**{f.name: parse[f.type](tokens[f.name])
                              for f in fields(SolveReport)}) == want

    def test_report_line_records_a_capped_slab_count(self, tmp_path, capsys):
        # two functions per slab cannot settle the solution at T, so K stops at its cap
        out = tmp_path / "out.csv"
        with pytest.warns(UserWarning, match="capped"):
            assert main(["solve2d", "--n", "2", "--m", "11", "-o", str(out)]) == 0
        meta, _, _ = read_csv(out)
        report = next(line for line in meta if line.startswith("# report:"))
        tokens = dict(token.split("=", 1) for token in report.split()[2:])
        assert tokens["slabs"] == "64" and tokens["slabs_capped"] == "True"
        assert tokens["converged"] == "True" and tokens["breakdown"] == "False"

    def test_outdir_env_applies_to_relative_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MEMWAVE_OUTDIR", str(tmp_path))
        args = solve1d_args(tmp_path)
        args[-1] = "rel.csv"
        assert main(args) == 0
        assert (tmp_path / "rel.csv").exists()

    def test_outdir_env_applies_to_the_matrix_dump(self, tmp_path, capsys, monkeypatch):
        out, cwd = tmp_path / "out", tmp_path / "cwd"
        out.mkdir()
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("MEMWAVE_OUTDIR", str(out))
        assert main(["solve1d", "--T", "1", "--n", "3", "--m", "21", "--xmin", "-8",
                     "--xmax", "8", "-o", "dd.csv", "--dump-matrix", "d.mtx"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["d.mtx", "dd.csv"]
        assert list(cwd.iterdir()) == []

    def test_dump_matrix_round_trips(self, tmp_path, capsys):
        mtx = tmp_path / "system.mtx"
        assert main(solve1d_args(tmp_path, **{"dump-matrix": str(mtx)})) == 0
        first = mtx.read_text().splitlines()[0]
        assert first == "%%MatrixMarket matrix coordinate real general"
        loaded = sp.csr_matrix(scipy.io.mmread(mtx))
        # the dump is the one-slab system I + kron(tau^alpha B_0, L) that every
        # slab of the solve used, not the K-slab system, which no solve builds
        g, grid = InitialField1D.gaussian(1.0), Grid1D(-10.0, 10.0, 21)
        order = MemoryOrder(1.5)
        slabs = solve_1d(order, 2.0, 3, grid, g).report.slabs
        assert slabs > 1 and loaded.shape == (3 * 21, 3 * 21)
        slab = build_basis(2.0 / slabs, 3)
        coupling = coupling_matrix(slab, order)
        whole = coupling_matrix(build_basis(2.0, 3, slabs=slabs), order).entries
        assert np.array_equal(coupling.entries, whole[:3, :3])
        system = assemble_1d(coupling, source_weights(slab), g, grid)
        diff = (loaded - system.matrix.csr).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0


    def test_solve2d_dump_is_the_one_slab_2d_system(self, tmp_path, capsys):
        mtx = tmp_path / "system.mtx"
        assert main(["solve2d", "--alpha", "1.5", "--T", "1.0", "--n", "4", "--xmin", "-10",
                     "--xmax", "10", "--m", "15", "-o", str(tmp_path / "field.csv"),
                     "--dump-matrix", str(mtx)]) == 0
        loaded = sp.csr_matrix(scipy.io.mmread(mtx))
        g, grid = InitialField2D.radial_gaussian(1.0), Grid2D(-10.0, 10.0, 15)
        order = MemoryOrder(1.5)
        slab = build_basis(1.0 / solve_2d(order, 1.0, 4, grid, g).report.slabs, 4)
        system = assemble_2d(coupling_matrix(slab, order), source_weights(slab), g, grid)
        diff = (loaded - system.matrix.csr).tocsr()
        diff.eliminate_zeros()
        assert loaded.shape == (4 * 15 * 15,) * 2 and diff.nnz == 0

    def test_validate_ignores_a_dump_matrix_line(self, tmp_path, capsys, monkeypatch):
        # --dump-matrix is a solve1d and solve2d flag; validate reads the key and writes no matrix
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("MEMWAVE_OUTDIR", raising=False)
        (tmp_path / "run.cfg").write_text("alpha=1.0\nT=1.0\nn=4\nm=31\ndump_matrix=v.mtx\n")
        assert main(["validate", "--config", "run.cfg", "-o", "v.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "v.csv"]


class TestConfigHandling:
    @pytest.mark.parametrize("argv", [
        ["solve1d", "--alpha", "1.5", "--T", "2.0", "--n", "3", "--xmin", "-10", "--xmax", "10",
         "--m", "21", "--times", "0.5,2"],
        ["solve2d", "--alpha", "1.5", "--T", "1.0", "--n", "2", "--xmin", "-10", "--xmax", "10",
         "--m", "15"],
        ["stochastic", "--alpha", "2", "--T", "1.0", "--m", "41", "--xmin", "-10",
         "--xmax", "10", "--steps", "4", "--seed", "7"],
        ["validate", "--alpha", "1", "--T", "2.0", "--n", "6", "--m", "51"],
    ])
    def test_output_file_is_a_rerun_recipe(self, argv, tmp_path, capsys):
        # the rerun reads only the output's echo and rewrites every CSV byte for byte
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        assert main(argv + ["--output", str(run_dir / "out.csv")]) == 0
        first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        recipe = tmp_path / "recipe.csv"
        recipe.write_bytes(first["out.csv"])
        for p in run_dir.iterdir():
            p.unlink()
        assert main([argv[0], "--config", str(recipe)]) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == first

    def test_output_echo_stops_before_the_report(self):
        # stochastic's "# steps=" report line must not override the echoed steps=0
        text = "# memwave stochastic\n" + "".join(
            f"# {line}\n" for line in RunConfig(subcommand="stochastic").to_text().splitlines()
        ) + "# steps=30\n# tau=0.2\nt,x,f\n0.0,1.0,2.0\n"
        assert RunConfig.from_text(text) == RunConfig(subcommand="stochastic")

    def test_to_from_text_round_trip(self):
        config = RunConfig(subcommand="solve2d", alpha=1.75, m=41, n=6,
                           times=(0.0, 1.5), output="x.csv")
        assert RunConfig.from_text(config.to_text()) == config
        # a numpy float prints as a plain float, not as "np.float64(...)"
        config = RunConfig(alpha=np.float64(1.75), T=np.float64(2.0))
        assert RunConfig.from_text(config.to_text()) == config

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        base = RunConfig(alpha=1.25, m=31, n=3, T=2.0, x_min=-10.0, x_max=10.0)
        cfg.write_text(base.to_text())
        out = tmp_path / "out.csv"
        assert main(["solve1d", "--config", str(cfg), "--m", "41",
                     "--output", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert "# m=41" in meta
        assert "# alpha=1.25" in meta

    def test_config_comments_and_blanks_ignored(self):
        config = RunConfig.from_text("# a comment\n\nalpha=1.5\nm=31\n")
        assert config.alpha == 1.5 and config.m == 31

    def test_run_rejects_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            run(RunConfig(subcommand="mystery"))


class TestSubcommands:
    def test_solve2d_writes_field_and_section(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        assert main(["solve2d", "--alpha", "1.5", "--T", "1.0", "--n", "2",
                     "--xmin", "-10", "--xmax", "10", "--m", "15",
                     "--output", str(out)]) == 0
        assert out.exists()
        meta, header, rows = read_csv(tmp_path / "field_section.csv")
        assert header == "x,f"
        assert len(rows) == 15

    def test_solve2d_anisotropic(self, tmp_path, capsys):
        out = tmp_path / "aniso.csv"
        assert main(["solve2d", "--alpha", "1.5", "--T", "1.0", "--n", "2",
                     "--xmin", "-12", "--xmax", "12", "--m", "15",
                     "--sigma1", "3.0", "--sigma2", "1.5",
                     "--output", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert "# sigma1=3.0" in meta

    @pytest.mark.parametrize("widths", [["--sigma1", "3"], ["--sigma2", "1.5"],
                                        ["--sigma1", "-3", "--sigma2", "2"]])
    def test_solve2d_refuses_a_half_set_or_negative_width_pair(self, tmp_path, capsys, widths):
        # either would otherwise run the radial default under a sigma1/sigma2 echo
        out = tmp_path / "aniso.csv"
        assert main(["solve2d", "--T", "1.0", "--n", "2", "--m", "15", *widths,
                     "--output", str(out)]) == 1
        assert "--sigma1 and --sigma2 must both be set and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_solve2d_refuses_a_radial_width_beside_the_anisotropic_pair(self, tmp_path, capsys):
        # the anisotropic pair sets the field, so --sigma would be ignored under a sigma=3.0 echo
        out = tmp_path / "aniso.csv"
        assert main(["solve2d", "--T", "1.0", "--n", "2", "--m", "11", "--sigma", "3",
                     "--sigma1", "2", "--sigma2", "1", "--output", str(out)]) == 1
        assert "--sigma 3.0 does not apply with --sigma1 and --sigma2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_stochastic_requires_endpoint_order(self, tmp_path, capsys):
        assert main(["stochastic", "--alpha", "1.5", "--T", "1.0",
                     "--output", str(tmp_path / "s.csv")]) == 1

    def test_stochastic_run(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["stochastic", "--alpha", "2", "--T", "1.0", "--m", "41",
                     "--xmin", "-10", "--xmax", "10", "--steps", "4",
                     "--C", "0.1", "--seed", "7", "--output", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert "# steps=4" in meta
        assert header == "t,x,f"
        assert len(rows) == 5 * 41

    def test_validate_run(self, tmp_path, capsys):
        out = tmp_path / "val.csv"
        assert main(["validate", "--alpha", "1", "--T", "2.0", "--n", "6",
                     "--xmin", "-15", "--xmax", "15", "--m", "51",
                     "--output", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == "x,numeric,analytic,abs_error"
        assert any(line.startswith("# max_error=") for line in meta)
        assert "max error" in capsys.readouterr().out

    def test_validate_requires_endpoint_order(self, tmp_path, capsys):
        assert main(["validate", "--alpha", "1.5",
                     "--output", str(tmp_path / "v.csv")]) == 1

