"""Span arithmetic on hand-built traces."""

import pytest

from bench import trace
from bench.trace import ROOT_LAYER


def span(layer, name, start, end, thread=1, value=0):
    return (layer, name, start, end, thread, value)


def nested_trace():
    # One 10 ms operation on thread 1; its RPC is handled on thread 2.
    return [
        span(ROOT_LAYER, "commit", 0.000, 0.010),
        span("client", "transact", 0.0005, 0.0095),
        span("net.transport", "send", 0.001, 0.009),
        span("core.service", "cmd_commit", 0.002, 0.008, thread=2),
        span("block.fdisk", "write", 0.003, 0.005, thread=3),
        span("block.fdisk", "write", 0.005, 0.007, thread=3),
        span("client", "setup", -1.0, -0.5),  # outside every operation
    ]


def test_self_time_is_duration_minus_children():
    (tree,) = trace.build_trees(nested_trace())
    by_name = {node.name: node for node in tree.walk()}
    assert by_name["commit"].self_s == pytest.approx(0.001)
    assert by_name["transact"].self_s == pytest.approx(0.001)
    assert by_name["send"].self_s == pytest.approx(0.002)
    assert by_name["cmd_commit"].self_s == pytest.approx(0.002)
    totals = trace.self_seconds_by_layer([tree])
    assert totals["block.fdisk"] == pytest.approx(0.004)
    assert sum(totals.values()) == pytest.approx(0.010)


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        span(ROOT_LAYER, "read", 0.0, 0.010),
        span("a", "first", 0.001, 0.006),
        span("b", "second", 0.004, 0.012, thread=2),  # pokes out of the root
    ]
    (tree,) = trace.build_trees(spans)
    # `second` starts inside `first`, so it nests there, clipped to its end.
    first = tree.children[0]
    assert first.children[0].end == pytest.approx(0.006)
    assert tree.self_s == pytest.approx(0.005)


def test_ledger_rows_and_coverage():
    (tree,) = trace.build_trees(nested_trace())
    book = trace.ledger("commit", [tree])
    assert book.ops == 1
    assert book.mean_ms == pytest.approx(10.0)
    assert dict(book.rows)["block.fdisk"] == pytest.approx(4.0)
    assert book.unattributed_ms == pytest.approx(1.0)
    assert book.coverage_pct == pytest.approx(90.0)
    assert book.complete
    assert "INCOMPLETE" not in book.render()


def test_ledger_below_ninety_percent_is_incomplete():
    spans = [
        span(ROOT_LAYER, "commit", 0.0, 0.010),
        span("client", "transact", 0.0, 0.0089),
    ]
    book = trace.ledger("commit", trace.build_trees(spans))
    assert book.coverage_pct == pytest.approx(89.0)
    assert not book.complete
    text = book.render()
    assert "INCOMPLETE" in text
    assert "largest unattributed intervals" in text
    assert book.gaps[0][1:] == pytest.approx((8.9, 1.1))


def test_tracer_wraps_times_and_restores():
    class Thing:
        def double(self, x):
            return 2 * x

    tracer = trace.Tracer()
    tracer.wrap(Thing, "double", "layer", value=lambda result, args: result)
    tracer.wrap(Thing, "gone", "layer")
    assert tracer.missing == ["Thing.gone"]
    assert Thing().double(2) == 4 and tracer.spans == []  # inactive: no span
    tracer.active = True
    assert Thing().double(3) == 6
    (recorded,) = tracer.spans
    assert recorded[:2] == ("layer", "double") and recorded[trace.VALUE] == 6
    tracer.unwrap_all()
    assert Thing().double(4) == 8 and len(tracer.spans) == 1
