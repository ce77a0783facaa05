"""Lightweight trace spans over the simulation's logical clock.

A :class:`Span` is one timed operation (a commit, a serialise walk, a
companion write) with tags, per-span counters, an ordered event log, and
child spans.  The :class:`Tracer` keeps a stack of open spans — the
simulation is single-threaded, so one stack suffices — and a bounded list
of finished root spans for reporting.

Instrumented components do not talk to spans directly; they call
``recorder.event(...)`` and the event lands on whatever span is currently
open.  That is how a commit span ends up listing every block read, block
write, and companion RPC that happened on its behalf, without the block
layer knowing anything about commits.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator


class SpanEvent:
    """One point-in-time occurrence inside a span (a disk write, an RPC)."""

    __slots__ = ("name", "tick", "tags")

    def __init__(self, name: str, tick: int, tags: dict | None = None) -> None:
        self.name = name
        self.tick = tick
        self.tags = tags or {}

    def to_dict(self) -> dict:
        return {"name": self.name, "tick": self.tick, "tags": self.tags}

    @classmethod
    def from_dict(cls, raw: dict) -> "SpanEvent":
        return cls(raw["name"], raw["tick"], dict(raw.get("tags", {})))


class Span:
    """A timed operation with tags, counters, events, and children."""

    __slots__ = ("name", "tags", "start", "end", "counters", "events", "children")

    def __init__(self, name: str, start: int, tags: dict | None = None) -> None:
        self.name = name
        self.tags: dict = tags or {}
        self.start = start
        self.end: int | None = None
        self.counters: dict[str, int] = {}
        self.events: list[SpanEvent] = []
        self.children: list[Span] = []

    # -- recording ---------------------------------------------------------

    def tag(self, **tags) -> None:
        self.tags.update(tags)

    def inc(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def add_event(self, name: str, tick: int, tags: dict | None = None) -> None:
        self.events.append(SpanEvent(name, tick, tags))
        self.inc(name)

    # -- inspection --------------------------------------------------------

    @property
    def duration(self) -> int:
        """Logical ticks from start to end (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    def events_named(self, name: str) -> list[SpanEvent]:
        """Events of one kind recorded directly on this span, in order."""
        return [event for event in self.events if event.name == name]

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tags": self.tags,
            "start": self.start,
            "end": self.end,
            "counters": self.counters,
            "events": [event.to_dict() for event in self.events],
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Span":
        span = cls(raw["name"], raw["start"], dict(raw.get("tags", {})))
        span.end = raw.get("end")
        span.counters = dict(raw.get("counters", {}))
        span.events = [SpanEvent.from_dict(e) for e in raw.get("events", [])]
        span.children = [cls.from_dict(c) for c in raw.get("children", [])]
        return span


class _SpanContext:
    """Context manager opening one span on the tracer's stack."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.tag(error=exc_type.__name__)
        self.tracer._pop(self.span)


class Tracer:
    """The span stack plus a bounded history of finished root spans."""

    def __init__(self, now: Callable[[], int], max_roots: int = 1024) -> None:
        self._now = now
        self._stack: list[Span] = []
        self.roots: deque[Span] = deque(maxlen=max_roots)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **tags) -> _SpanContext:
        return _SpanContext(self, Span(name, self._now(), tags or None))

    def _push(self, span: Span) -> None:
        span.start = self._now()
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self._now()
        # Tolerate a mismatched stack (a component that forgot to close an
        # inner span) rather than corrupting the tree: unwind to the span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if not self._stack:
            self.roots.append(span)

    def roots_named(self, name: str) -> list[Span]:
        """Finished root spans with the given name, oldest first."""
        return [span for span in self.roots if span.name == name]

    def spans_named(self, name: str) -> list[Span]:
        """All finished spans (any depth) with the given name."""
        out: list[Span] = []
        for root in self.roots:
            out.extend(root.find_all(name))
        return out

    def clear(self) -> None:
        self._stack.clear()
        self.roots.clear()
