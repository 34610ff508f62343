"""The edge report's one owner: solver_1d._check_edges decides and words it, solver_1d._warn sends it.

The face rule is relative to the data's scale, a batched resolvent call
counts its breaching times, a trajectory's report is that call's report
(so identical trajectories from one line warn once), and every warning
names the first caller outside the package, the CLI's caller included.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from memwave import (
    EdgeWarning,
    Grid1D,
    InitialField1D,
    MemoryOrder,
    NoiseModel,
    TimePartition,
    resolvent_apply,
    simulate_trajectory,
    solve_1d,
    solver_1d,
)
from memwave.cli import main

PACKAGE = Path(solver_1d.__file__).parent
# exp(-x^2) is 1.2e-4 of its peak on NARROW's faces; on WIDE's it and its heat flow
# at t = 0.5 are below 3e-15 of it
NARROW = Grid1D(-3.0, 3.0, 31)
WIDE = Grid1D(-10.0, 10.0, 101)


def scaled_gaussian(scale):
    return InitialField1D(rule=lambda x: scale * np.exp(-x**2), label=f"{scale} gaussian")


def edge_messages(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [str(w.message) for w in caught if w.category is EdgeWarning]


def test_face_rule_is_relative_to_the_data_scale():
    # the same share of the data on the faces gets the same verdict at every amplitude;
    # an absolute 1e-12 passed 1e-9 exp(-x^2) on NARROW and flagged 1e6 exp(-x^2) on WIDE
    for scale in (1e-12, 1e-9, 1.0, 1e6):
        g = scaled_gaussian(scale)
        for grid, warns in ((NARROW, 1), (WIDE, 0)):
            f = g.evaluate(grid.points)
            assert len(edge_messages(lambda: solve_1d(MemoryOrder(1), 1.0, 6, grid, g))) == warns
            assert len(edge_messages(lambda: resolvent_apply(1, 0.5, f, grid))) == warns


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("centre, every", [(-3.0, False), (-4.8, True)],
                         ids=["bump-inside", "bump-on-face"])
def test_batched_call_counts_its_breaching_times(alpha, centre, every):
    # a bump near the left face: S(t) carries it onto the face at some times and not
    # others; a bump on the face breaches at every time, t = 0 included
    grid = Grid1D(-5.0, 5.0, 101)
    f = np.exp(-((grid.points - centre) ** 2) / 0.1)
    times = np.array([3.0, 0.0, 0.5, 1.0, 2.0, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EdgeWarning)
        rows = resolvent_apply(alpha, times, f, grid)
    tol = solver_1d.BOUNDARY_DECAY_TOL * np.abs(f).max()
    faces = np.abs(np.concatenate((rows[:, [0, -1]], np.tile(f[[0, -1]], (len(times), 1))), 1))
    breach = faces.max(axis=1) > tol
    assert breach.all() if every else 0 < breach.sum() < len(times)
    [message] = edge_messages(lambda: resolvent_apply(alpha, times, f, grid))
    assert f"{faces.max():.2e} at the grid edge" in message
    assert f"at {breach.sum()} of {len(times)} steps" in message
    assert f"first at t = {times[breach].min():.6g};" in message


def test_identical_trajectories_from_one_line_warn_once():
    # a trajectory changes no warning filter, so the registry of its caller's line holds
    g, part = InitialField1D.gaussian(1.0), TimePartition(1.0, 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(5):
            simulate_trajectory(1, g, NoiseModel(strength=0.0), part, NARROW)
    edges = [w for w in caught if w.category is EdgeWarning]
    assert len(edges) == 1 and edges[0].filename == __file__
    assert "5 of 5 steps, first at t = 0;" in str(edges[0].message)


def test_a_warning_under_the_cli_names_its_caller(tmp_path):
    with pytest.warns(EdgeWarning) as record:
        assert main(["solve1d", "--xmin", "-3", "--xmax", "3", "--m", "31",
                     "-o", str(tmp_path / "out.csv")]) == 0
    assert [w.filename for w in record if w.category is EdgeWarning] == [__file__]


def owners(match) -> set:
    """'module.scope' of every package scope whose own code holds a node that match accepts."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_one_owner_sends_warnings_and_reads_the_face_tolerance():
    # _warn alone counts frames; a filter change inside a call resets its caller's
    # once-per-line registry, so only the two calls that must change one do
    assert owners(lambda n: (isinstance(n, ast.keyword) and n.arg == "stacklevel")
                  or (isinstance(n, ast.Attribute) and n.attr in ("warn", "warn_explicit")
                      and isinstance(n.value, ast.Name) and n.value.id == "warnings")) \
        == {"solver_1d._warn"}
    assert owners(lambda n: isinstance(n, ast.Attribute) and n.attr == "catch_warnings") \
        == {"stochastic.stochastic_convolution", "sparse_linalg.SparseMatrix._lu"}
    reads = owners(lambda n: (isinstance(n, ast.Name) and n.id == "BOUNDARY_DECAY_TOL")
                   or (isinstance(n, ast.Attribute) and n.attr == "BOUNDARY_DECAY_TOL")
                   or (isinstance(n, ast.alias) and n.name == "BOUNDARY_DECAY_TOL"))
    assert {scope.split(".")[0] for scope in reads} == {"solver_1d"}
