"""Unit tests for the observability layer: metrics, spans, reports."""

import json

import pytest

from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    Span,
)
from repro.obs.metrics import Histogram
from repro.obs.report import (
    from_json,
    render_commit_table,
    render_histogram,
    render_metrics,
    render_span,
    to_json,
)
from repro.sim.clock import LogicalClock


# ---------------------------------------------------------------------------
# counters and gauges
# ---------------------------------------------------------------------------


def test_counter_counts_and_is_monotonic():
    registry = MetricsRegistry()
    registry.counter("x").inc()
    registry.counter("x").inc(4)
    assert registry.counter("x").value == 5
    with pytest.raises(ValueError):
        registry.counter("x").inc(-1)


def test_registry_instruments_are_singletons_by_name():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    registry.gauge("depth").set(7)
    registry.gauge("depth").set(3)
    assert registry.gauge("depth").value == 3


# ---------------------------------------------------------------------------
# histogram bucketing
# ---------------------------------------------------------------------------


def test_histogram_buckets_by_inclusive_upper_edge():
    histogram = Histogram("h", bounds=(10, 100, 1000))
    for value in (5, 10, 11, 100, 999, 1000, 5000):
        histogram.observe(value)
    # Buckets: <=10, <=100, <=1000, overflow.
    assert histogram.bucket_counts == [2, 2, 2, 1]
    assert histogram.count == 7
    assert histogram.min == 5
    assert histogram.max == 5000
    assert histogram.total == sum((5, 10, 11, 100, 999, 1000, 5000))


def test_histogram_mean_and_quantile():
    histogram = Histogram("h", bounds=(10, 100, 1000))
    for _ in range(99):
        histogram.observe(7)
    histogram.observe(500)
    assert histogram.mean == pytest.approx((99 * 7 + 500) / 100)
    assert histogram.quantile(0.5) == 10  # the bucket edge holding the median
    assert histogram.quantile(1.0) == 1000
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_histogram_empty_quantile_is_zero():
    assert Histogram("h", bounds=(10,)).quantile(0.99) == 0.0


def test_recorder_observe_creates_histogram_with_default_buckets():
    recorder = Recorder()
    recorder.observe("lat", 120)
    assert recorder.metrics.histogram("lat").count == 1


# ---------------------------------------------------------------------------
# span nesting
# ---------------------------------------------------------------------------


def test_span_nesting_builds_a_tree_on_the_clock():
    clock = LogicalClock()
    recorder = Recorder(clock)
    with recorder.span("outer", kind="test") as outer:
        clock.advance(10)
        with recorder.span("inner") as inner:
            clock.advance(5)
            recorder.event("op", detail=1)
        clock.advance(2)
    assert outer.children == [inner]
    assert outer.duration == 17
    assert inner.duration == 5
    assert inner.events[0].name == "op"
    assert inner.events[0].tags == {"detail": 1}
    assert inner.counters == {"op": 1}
    # The event also bumped the global counter.
    assert recorder.metrics.counter("op").value == 1
    # Only the outermost span is a root.
    assert list(recorder.tracer.roots) == [outer]
    assert recorder.tracer.current is None


def test_events_outside_any_span_only_count():
    recorder = Recorder()
    recorder.event("lonely")
    assert recorder.metrics.counter("lonely").value == 1
    assert len(recorder.tracer.roots) == 0


def test_each_thread_raises_events_into_its_own_open_span():
    """A daemon serves connections on threads: an event lands on the span
    open in the thread that raised it, never on another thread's, and a
    thread with no open span only counts it."""
    import threading

    recorder = Recorder()
    both_open = threading.Barrier(3)
    spans = {}

    def serve(name: str) -> None:
        with recorder.span(name) as span:
            spans[name] = span
            both_open.wait()
            for i in range(200):
                recorder.event(f"{name}.op", i=i)
            both_open.wait()

    threads = [threading.Thread(target=serve, args=(n,)) for n in ("commit", "read")]
    for thread in threads:
        thread.start()
    both_open.wait()
    recorder.event("stray")  # this thread has no span open
    both_open.wait()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    for name, span in spans.items():
        assert [e.name for e in span.events] == [f"{name}.op"] * 200
        assert span.children == []
    assert sorted(s.name for s in recorder.tracer.roots) == ["commit", "read"]
    assert recorder.metrics.counter("stray").value == 1


def test_span_find_and_events_named():
    clock = LogicalClock()
    recorder = Recorder(clock)
    with recorder.span("commit") as span:
        with recorder.span("serialise"):
            pass
        recorder.event("disk.write", disk="a")
        recorder.event("disk.write", disk="b")
    assert span.find("serialise") is not None
    assert span.find("nothing") is None
    writes = span.events_named("disk.write")
    assert [event.tags["disk"] for event in writes] == ["a", "b"]


def test_span_tags_error_on_exception():
    recorder = Recorder()
    with pytest.raises(RuntimeError):
        with recorder.span("doomed"):
            raise RuntimeError("boom")
    (span,) = recorder.tracer.roots
    assert span.tags["error"] == "RuntimeError"
    assert span.end is not None


def test_tracer_bounded_root_history():
    recorder = Recorder(max_roots=3)
    for i in range(5):
        with recorder.span("s", i=i):
            pass
    roots = list(recorder.tracer.roots)
    assert len(roots) == 3
    assert [span.tags["i"] for span in roots] == [2, 3, 4]


def test_tracer_spans_named_searches_all_depths():
    recorder = Recorder()
    with recorder.span("a"):
        with recorder.span("b"):
            pass
    with recorder.span("b"):
        pass
    assert len(recorder.tracer.spans_named("b")) == 2
    assert len(recorder.tracer.roots_named("b")) == 1


# ---------------------------------------------------------------------------
# the null recorder
# ---------------------------------------------------------------------------


def test_null_recorder_is_inert():
    recorder = NullRecorder()
    assert not recorder.enabled
    recorder.count("x")
    recorder.gauge("g", 1)
    recorder.observe("h", 2)
    recorder.event("e", tag=1)
    with recorder.span("s", a=1) as span:
        span.tag(b=2)
        span.inc("c")
    assert recorder.current_span is None
    assert NULL_RECORDER.span("x") is NULL_RECORDER.span("y")  # one shared span


# ---------------------------------------------------------------------------
# report rendering and JSON round trip
# ---------------------------------------------------------------------------


def _busy_recorder() -> Recorder:
    clock = LogicalClock()
    recorder = Recorder(clock)
    recorder.count("disk.writes", 3)
    recorder.gauge("dirty", 2)
    recorder.observe("commit.ticks", 120, bounds=(100, 1000))
    recorder.observe("commit.ticks", 2000)
    with recorder.span("commit", path="fast") as span:
        clock.advance(100)
        recorder.event("disk.write", disk="blockA", block=4)
        with recorder.span("serialise", ok=True):
            clock.advance(10)
        span.tag(rounds=1)
    return recorder


def test_json_report_round_trip():
    recorder = _busy_recorder()
    raw = to_json(recorder)
    json.loads(raw)  # must be valid JSON
    metrics, spans = from_json(raw)
    assert metrics.counter("disk.writes").value == 3
    assert metrics.gauge("dirty").value == 2
    histogram = metrics.histogram("commit.ticks")
    assert histogram.count == 2
    assert histogram.bucket_counts == [0, 1, 1]  # 120 in <=1000, 2000 overflow
    (commit,) = spans
    assert commit.name == "commit"
    assert commit.tags == {"path": "fast", "rounds": 1}
    assert commit.duration == 110
    assert commit.events[0].tags == {"disk": "blockA", "block": 4}
    (child,) = commit.children
    assert child.name == "serialise"
    assert child.duration == 10
    # A second round trip is a fixed point.
    assert to_json(recorder) == json.dumps(
        {
            "metrics": metrics.as_dict(),
            "spans": [span.to_dict() for span in spans],
        },
        sort_keys=True,
    )


def test_text_renderers_cover_the_instruments():
    recorder = _busy_recorder()
    text = render_metrics(recorder.metrics)
    assert "disk.writes" in text and "3" in text
    assert "histogram commit.ticks" in text
    histogram_text = render_histogram(recorder.metrics.histogram("commit.ticks"))
    assert "count=2" in histogram_text
    span_text = render_span(list(recorder.tracer.roots)[0])
    assert "commit" in span_text and "serialise" in span_text
    table = render_commit_table(recorder.tracer)
    assert "fast" in table
    assert render_commit_table(Recorder().tracer) == "(no commits recorded)"


def test_render_metrics_empty_registry():
    assert render_metrics(MetricsRegistry()) == "(no metrics recorded)"
