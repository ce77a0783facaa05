"""Spans recorded from outside the program, and what is computed from them.

The benchmark wraps the layers' callables where their names are looked up
(a class attribute, a module global) with a timer; nothing under ``src/``
changes.  Spans are ``(layer, name, start, end, thread, value)`` tuples
kept in memory and written out when the run ends.  Because the traced run
drives one client thread and every RPC in the service is synchronous, the
spans of one client operation nest in time even across threads, so the
tree is rebuilt from the intervals alone: a span's children are the spans
it contains, and its self time is its duration minus what they cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

LAYER, NAME, START, END, THREAD, VALUE = range(6)
# The benchmark's own span around each client operation; its self time is
# what no wrapped layer accounts for.
ROOT_LAYER = "op"
INCOMPLETE_BELOW_PCT = 90.0


class Tracer:
    """Wraps callables with timers and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.missing: list[str] = []  # names the wrap list expected but did not find
        self._undo: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, name: str | None = None, value=None) -> None:
        """Replace ``owner.attr`` by a timed version.

        ``value(result, args)`` may attach one number to the span (bytes
        encoded, pages flushed).  A name that no longer exists is noted in
        :attr:`missing`, not an error: the ledger then shows the gap.
        """
        label = name or attr
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self.replace(owner, attr, self.timed(original, layer, label, value))

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember how to put it back."""
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr, None), had_own))
        setattr(owner, attr, replacement)

    def timed(self, fn, layer: str, name: str, value=None):
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((layer, name, start, clock(), ident(), 0))
                raise
            end = clock()
            spans.append(
                (layer, name, start, end, ident(), value(result, args) if value else 0)
            )
            return result

        return wrapper

    def unwrap_all(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- operations ----------------------------------------------------------

    def mark_op(self, kind: str, start: float, end: float, weight: int) -> None:
        """The benchmark's root span around one client operation."""
        if self.active:
            self.spans.append((ROOT_LAYER, kind, start, end, threading.get_ident(), weight))

    def dump(self, path: Path, **header) -> None:
        document = dict(
            header,
            fields=["layer", "name", "start", "end", "thread", "value"],
            missing=self.missing,
            spans=self.spans,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))


@dataclass
class Node:
    """A span placed in its operation's tree."""

    span: tuple
    end: float  # clipped to the parent's end
    self_s: float = 0.0
    children: list["Node"] = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.span[LAYER]

    @property
    def name(self) -> str:
        return self.span[NAME]

    @property
    def start(self) -> float:
        return self.span[START]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def build_trees(spans: list[tuple]) -> list[Node]:
    """One tree per root span, by interval containment.

    Spans are taken in start order (longest first on ties).  A span that
    starts inside the span on top of the stack is its child; one that
    pokes out past its parent's end is clipped to it.  A parent's self
    time is its duration minus the union of its children's intervals.
    Spans outside every root (set-up, background work) are dropped.
    """
    roots: list[Node] = []
    stack: list[Node] = []

    def close(node: Node) -> None:
        covered = 0.0
        cursor = node.start
        for child in node.children:
            begin = max(child.start, cursor)
            if child.end > begin:
                covered += child.end - begin
                cursor = child.end
        node.self_s = node.seconds - covered

    for span in sorted(spans, key=lambda s: (s[START], -s[END])):
        while stack and stack[-1].end <= span[START]:
            close(stack.pop())
        if not stack:
            if span[LAYER] != ROOT_LAYER:
                continue
            node = Node(span, span[END])
            roots.append(node)
        else:
            node = Node(span, min(span[END], stack[-1].end))
            stack[-1].children.append(node)
        stack.append(node)
    while stack:
        close(stack.pop())
    return roots


def self_seconds_by_layer(trees: list[Node]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for tree in trees:
        for node in tree.walk():
            totals[node.layer] += node.self_s
    return dict(totals)


@dataclass
class Ledger:
    """Mean operation latency split into the layers' self times."""

    title: str
    ops: int
    mean_ms: float
    rows: list[tuple[str, float]]  # (layer, self ms per op), largest first
    unattributed_ms: float
    gaps: list[tuple[int, float, float]]  # (op index, offset ms, length ms)

    @property
    def coverage_pct(self) -> float:
        if not self.mean_ms:
            return 0.0
        return 100.0 * sum(ms for _, ms in self.rows) / self.mean_ms

    @property
    def complete(self) -> bool:
        return self.coverage_pct >= INCOMPLETE_BELOW_PCT

    def render(self) -> str:
        banner = "" if self.complete else " == INCOMPLETE"
        lines = [
            f"  == ledger: {self.title}, {self.ops} ops, "
            f"mean {self.mean_ms:.3f} ms =={banner}"
        ]
        if not self.complete:
            lines.append(
                f"  !! layer self times sum to {self.coverage_pct:.1f} % of the "
                f"traced mean, below {INCOMPLETE_BELOW_PCT:.0f} %"
            )
        lines.append(f"  {'layer':18s} {'self ms/op':>11s} {'share':>8s}")
        for layer, ms in self.rows:
            lines.append(f"  {layer:18s} {ms:11.4f} {100 * ms / self.mean_ms:7.1f} %")
        lines.append(
            f"  {'(unattributed)':18s} {self.unattributed_ms:11.4f} "
            f"{100 * self.unattributed_ms / self.mean_ms:7.1f} %"
        )
        lines.append(f"  ledger.coverage_pct {self.coverage_pct:.2f}")
        if not self.complete:
            lines.append("  largest unattributed intervals (op, offset ms, length ms):")
            lines += [f"    op {i}: +{at:.3f} for {length:.3f}" for i, at, length in self.gaps]
        return "\n".join(lines)


def ledger(title: str, trees: list[Node]) -> Ledger:
    """The ledger over ``trees`` (one tree per operation)."""
    count = len(trees)
    total = sum(tree.seconds for tree in trees)
    by_layer = self_seconds_by_layer(trees)
    unattributed = by_layer.pop(ROOT_LAYER, 0.0)
    rows = sorted(
        ((layer, 1e3 * seconds / count) for layer, seconds in by_layer.items()),
        key=lambda row: -row[1],
    )
    gaps = []
    for index, tree in enumerate(trees):
        cursor = tree.start
        for child in tree.children + [None]:
            edge = tree.end if child is None else child.start
            if edge > cursor:
                gaps.append((index, 1e3 * (cursor - tree.start), 1e3 * (edge - cursor)))
            if child is not None:
                cursor = max(cursor, child.end)
    gaps.sort(key=lambda gap: -gap[2])
    return Ledger(
        title, count, 1e3 * total / count if count else 0.0, rows,
        1e3 * unattributed / count if count else 0.0, gaps[:5],
    )
