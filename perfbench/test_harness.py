"""Tests of the benchmark's own arithmetic, tracer and metric declarations.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from harness import Span  # noqa: E402


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert harness.percentile(values, 0.9) == 90
    assert harness.samples_beyond(100, 0.9) == 10
    assert harness.percentile(values, 1.0) == 100
    assert harness.percentile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.0
    assert harness.percentile([7.0], 0.9) == 7.0


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert harness.samples_beyond(99, 0.9) == 9
    assert harness.samples_beyond(6, 0.9) == 0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 0.0)


def test_covered_merges_and_clips():
    assert harness.covered(0, 100, [(10, 30), (20, 40), (50, 60)]) == 40
    assert harness.covered(0, 100, [(-5, 5), (95, 120)]) == 10
    assert harness.covered(0, 100, []) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("b", 20, 30, 1, 0),  # grandchild: counts against a, not op
        Span("c", 50, 60, 0, 0),
    ]
    assert harness.self_times(spans) == [60, 20, 10, 10]


def test_layer_totals_sum_calls_time_failures_and_attributes():
    spans = [
        Span("op", 0, 100, -1, 0),
        Span("bicg", 0, 40, 0, 0, attrs={"iterations": 7, "failed": 1}),
        Span("bicg", 50, 70, 0, 0, attrs={"iterations": 5, "failed": 0}),
        Span("coupling", 80, 90, 0, 0, failed=True),
    ]
    totals = harness.layer_totals(spans)
    assert totals["bicg"] == {"calls": 2, "ns": 60, "self_ns": 60, "failures": 1, "iterations": 12}
    assert totals["coupling"]["failures"] == 1
    assert totals["op"]["self_ns"] == 30
    assert harness.missing_layers(totals, ["bicg", "lu"]) == ["lu"]


def test_failed_share():
    assert harness.failed_share(45, 2) == pytest.approx(2 / 45)
    assert harness.failed_share(10, 0) == 0.0
    with pytest.raises(ValueError):
        harness.failed_share(0, 0)
    with pytest.raises(ValueError):
        harness.failed_share(3, 4)


def test_rate_and_latency_are_medians_over_passes():
    def op(pass_id, seconds, ok=True):
        return {"pass": pass_id, "s": seconds, "ok": ok}

    ops = [op(0, 1.0), op(0, 3.0, ok=False),    # 1 done in 4 s, median ok latency 1 s
           op(1, 0.5), op(1, 1.5),              # 2 done in 2 s, median 1 s
           op(2, 2.0), op(2, 2.0), op(2, 6.0)]  # 3 done in 10 s, median 2 s
    assert run.rate(ops) == pytest.approx(0.3)
    assert run.median_latency_ms(ops) == pytest.approx(1000.0)
    assert run.median_latency_ms([op(0, 1.0, ok=False), op(1, 0.25)]) == pytest.approx(250.0)


def test_ops_are_scaled_by_the_host_speed_samples_around_them():
    ops = [{"wall_s": 2.0, "segment": 0}, {"wall_s": 4.0, "segment": 0},
           {"wall_s": 3.0, "segment": 1}]
    # kernel nominal 1 s; samples 1 s, 3 s (host at half speed on average), 1 s
    factors = harness.scale_to_host_speed(ops, [1.0, 3.0, 1.0], 1.0)
    assert factors == [0.5, 0.5]
    assert [o["s"] for o in ops] == [1.0, 2.0, 1.5]
    with pytest.raises(ValueError):
        harness.scale_to_host_speed(ops, [1.0], 1.0)


def test_p90_only_with_ten_samples_beyond_it():
    many = [{"pass": i // 10, "s": (i + 1) / 1000, "ok": True} for i in range(100)]
    assert run.tail_latency_ms(many) == pytest.approx(90.0)
    few = many[:99]
    assert run.tail_latency_ms(few) == run.median_latency_ms(few)


def test_tracer_follows_library_route_and_restores_names():
    import memwave
    from memwave import solver_1d

    original = solver_1d.coupling_matrix
    tracer = harness.Tracer()
    tracer.install()
    try:
        grid = memwave.Grid1D(-8.0, 8.0, 21)
        g = memwave.InitialField1D.gaussian(1.0)
        solver_1d.solve_1d(memwave.MemoryOrder(1.5), 1.0, 3, grid, g)  # outside an op
        assert tracer.spans == []
        with tracer.op(0):
            solver_1d.solve_1d(memwave.MemoryOrder(1.5), 1.0, 3, grid, g)
    finally:
        tracer.uninstall()
    assert solver_1d.coupling_matrix is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["op", "solver_1d.solve_1d", "time_basis.coupling_matrix"]
    solve = names.index("solver_1d.solve_1d")
    assert tracer.spans[names.index("time_basis.coupling_matrix")].parent == solve
    assert {"solver_1d.assemble_1d", "sparse_linalg.lu_solve", "sparse_linalg.matvec"} <= set(names)
    assert all(s.end >= s.start for s in tracer.spans)


def test_benchmark_json_matches_the_metrics_run_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {"sweep1d", "field2d", "ensemble"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    }
