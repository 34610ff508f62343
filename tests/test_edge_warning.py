"""EdgeWarning: the one face check behind the solve, the resolvent and the trajectory."""

import warnings

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
)
from memwave.solver_1d import boundary_magnitude

NARROW = Grid1D(-3.0, 3.0, 31)  # exp(-x^2) is 1.2e-4 on its faces
G = InitialField1D.gaussian(1.0)

SOURCES = {
    "solve": lambda: solve_1d(MemoryOrder(1.0), 1.0, 6, NARROW, G),
    "resolvent": lambda: resolvent_apply(1, 0.5, G.evaluate(NARROW.points), NARROW),
    "trajectory": lambda: simulate_trajectory(1, G, NoiseModel(strength=0.0),
                                              TimePartition(1.0, 4), NARROW),
}


def test_is_a_user_warning():
    assert issubclass(EdgeWarning, UserWarning)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_each_edge_report_is_an_edge_warning(source):
    # the resolvent's input and output both exceed the tolerance here; it reports once
    with pytest.warns(EdgeWarning) as record:
        SOURCES[source]()
    assert len(record) == 1
    assert all(w.category is EdgeWarning and w.filename == __file__ for w in record)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_one_ignore_filter_silences_every_edge_report(source):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", EdgeWarning)
        SOURCES[source]()


@pytest.mark.parametrize("alpha, t", [(1, 0.5), (2, 100.0)])
def test_resolvent_reports_the_larger_face_value_once(alpha, t):
    # heat spreads the mass onto the faces (output larger); a wave shifted
    # past both edges leaves zeros (input larger)
    f = G.evaluate(NARROW.points)
    with pytest.warns(EdgeWarning) as record:
        out = resolvent_apply(alpha, t, f, NARROW)
    faces = boundary_magnitude(f), boundary_magnitude(out)
    assert faces[0] != faces[1] and len(record) == 1
    assert f"{max(faces):.2e} at the grid edge" in str(record[0].message)
