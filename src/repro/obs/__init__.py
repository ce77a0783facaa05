"""Zero-dependency observability: metrics, trace spans, reports.

One :class:`Recorder` is shared by every component of a deployment (the
testbed threads it through the network, the disks, the block servers, the
page stores, and the file services).  Components record through four verbs:

* ``count(name)`` / ``gauge(name, v)`` / ``observe(name, v)`` — global
  instruments in the recorder's :class:`~repro.obs.metrics.MetricsRegistry`;
* ``span(name, **tags)`` — open a timed span (a context manager); spans
  nest into a tree via the tracer's stack;
* ``event(name, **tags)`` — a point occurrence that both bumps the global
  counter of that name and lands, in order, on the currently open span.

The default everywhere is :data:`NULL_RECORDER`, whose methods are no-ops
and whose ``enabled`` flag is False — hot paths guard tag-dict construction
behind ``if recorder.enabled`` so an uninstrumented run pays one attribute
load and a branch, nothing more.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, SpanEvent, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
    "SpanEvent",
    "Tracer",
]


class Recorder:
    """The live recorder: a metrics registry plus a tracer on one clock."""

    enabled = True

    def __init__(self, clock=None, max_roots: int = 1024) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self._now, max_roots=max_roots)

    def bind_clock(self, clock) -> None:
        """Attach the simulation clock (the testbed calls this so a
        recorder can be built before the network exists)."""
        self.clock = clock

    def _now(self) -> int:
        return self.clock.now if self.clock is not None else 0

    # -- metrics ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float, bounds=None) -> None:
        self.metrics.histogram(name, bounds).observe(value)

    # -- tracing ----------------------------------------------------------

    def span(self, name: str, **tags):
        return self.tracer.span(name, **tags)

    @property
    def current_span(self) -> Span | None:
        return self.tracer.current

    def event(self, name: str, **tags) -> None:
        """A point occurrence: global counter + entry on the open span."""
        self.metrics.counter(name).inc()
        span = self.tracer.current
        if span is not None:
            span.add_event(name, self._now(), tags or None)


class _NullSpan:
    """The span handed out by the null recorder: accepts and forgets."""

    __slots__ = ()
    name = "null"
    tags: dict = {}
    counters: dict = {}
    events: tuple = ()
    children: tuple = ()
    duration = 0

    def tag(self, **tags) -> None:
        pass

    def inc(self, key: str, n: int = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default recorder: every method is a no-op, ``enabled`` is False.

    Components keep unconditional calls off their hottest paths by testing
    ``recorder.enabled`` first; everywhere else calling straight into the
    null recorder is fine.
    """

    enabled = False

    def bind_clock(self, clock) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, bounds=None) -> None:
        pass

    def span(self, name: str, **tags) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current_span(self) -> None:
        return None

    def event(self, name: str, **tags) -> None:
        pass


NULL_RECORDER = NullRecorder()
