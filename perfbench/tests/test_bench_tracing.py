import pytest

import tracing
from tracing import Spans, Tracer, aggregate, self_times, sweeps_best


def _spans(rows):
    spans = Spans()
    for name, start, end, parent in rows:
        spans.add(name, start, end, parent)
    return spans


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 15, 25, 1),
        ("d", 50, 90, 0),
        ("e", 200, 230, -1),
    ])
    assert self_times(spans) == [30, 20, 10, 40, 30]
    # self times of one tree add up to its root's duration
    assert sum(self_times(spans)[:4]) == 100


def test_aggregate_counts_recursive_calls_once_in_total():
    spans = _spans([
        ("f", 0, 100, -1),
        ("f", 10, 50, 0),
        ("g", 20, 30, 1),
        ("f", 120, 130, -1),
    ])
    agg = aggregate(spans)
    assert agg["f"] == {"calls": 3, "self_ns": 60 + 30 + 10, "total_ns": 100 + 10}
    assert agg["g"] == {"calls": 1, "self_ns": 10, "total_ns": 10}


def test_extend_keeps_tree_and_offsets_parents():
    first = _spans([("a", 0, 10, -1)])
    second = _spans([("b", 0, 50, -1), ("c", 5, 15, 0)])
    second.sweeps.append((1, 4))
    offset = first.extend(second.to_dict())
    assert offset == 1
    assert list(first.parent) == [-1, -1, 1]
    assert first.sweeps == [(2, 4)]
    assert first.names == ["a", "b", "c"]
    assert self_times(first) == [10, 40, 10]


def test_sweeps_best_leaves_out_cut_runs():
    spans = _spans([
        (tracing.SEESAW, 0, 10, -1),
        (tracing.CUT_SEESAW, 20, 40, -1),
        (tracing.SEESAW, 21, 39, 1),
    ])
    spans.sweeps += [(0, 4), (2, 9)]
    assert sweeps_best(spans) == [4]


def test_tracer_wraps_every_binding_and_restores_it():
    from spanwitness import CANONICAL, report, tensor

    originals = (report.witness_matrix, tensor.is_ppt, tensor.partial_transpose)
    ticks = iter(range(0, 10**9, 1000))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.install()
    try:
        assert report.witness_matrix is not originals[0]
        doc = report.run_detect("xstate", CANONICAL)
    finally:
        tracer.uninstall()
    assert (report.witness_matrix, tensor.is_ppt, tensor.partial_transpose) == originals
    agg = aggregate(tracer.spans)
    assert agg["report.run_detect"]["calls"] == 1
    assert agg["family.witness_matrix"]["calls"] == 1
    assert agg["tensor.is_ppt"]["calls"] == 1
    assert agg["tensor.partial_transpose"]["calls"] == 8
    assert agg["linalg.hermitian_eigenvalues"]["calls"] == 8
    # one root span, and every other span hangs below it
    assert list(tracer.spans.parent).count(-1) == 1
    assert doc.checks[2].values["verdict"] == "PPT_ENTANGLED_DETECTED"


def test_tracer_records_best_restart_sweeps():
    from spanwitness import CANONICAL, seesaw, witness_matrix

    w = witness_matrix(CANONICAL)
    tracer = Tracer()
    tracer.install()
    try:
        plain = seesaw.seesaw_block_positivity
        result = plain(w, restarts=4, seed=3)
        seesaw.cut_block_positivity(w, (1,), restarts=2, seed=3)
    finally:
        tracer.uninstall()
    assert len(tracer.spans.sweeps) == 2
    assert sweeps_best(tracer.spans) == [len(result.history) - 1]


def test_layer_metrics_are_per_operation():
    spans = _spans([
        ("maps.evaluate", 0, 2_000_000, -1),
        ("maps.evaluate", 3_000_000, 5_000_000, -1),
    ])
    m = tracing.layer_metrics(spans, ops=2)
    assert m["maps.evaluate.calls"] == 1.0
    assert m["maps.evaluate.self_ms"] == pytest.approx(2.0)
    assert m["layer.maps.self_ms"] == pytest.approx(2.0)
    assert m["tensor.is_ppt.calls"] == 0.0
