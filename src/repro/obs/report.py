"""Text and JSON renderers for recorded metrics and traces.

Two consumers: the ``repro stats`` CLI subcommand (human-readable text)
and tests/tools that want a machine-readable round-trippable snapshot
(:func:`to_json` / :func:`from_json`).
"""

from __future__ import annotations

import json
import re

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

# ---------------------------------------------------------------------------
# text renderers
# ---------------------------------------------------------------------------


def render_metrics(metrics: MetricsRegistry) -> str:
    """All instruments as aligned text, counters first."""
    lines: list[str] = []
    if metrics.counters:
        width = max(len(name) for name in metrics.counters)
        lines.append("counters:")
        for name in sorted(metrics.counters):
            lines.append(f"  {name:<{width}}  {metrics.counters[name].value}")
    if metrics.gauges:
        width = max(len(name) for name in metrics.gauges)
        lines.append("gauges:")
        for name in sorted(metrics.gauges):
            lines.append(f"  {name:<{width}}  {metrics.gauges[name].value}")
    for name in sorted(metrics.histograms):
        lines.append(render_histogram(metrics.histograms[name]))
    return "\n".join(lines) if lines else "(no metrics recorded)"


def render_histogram(histogram: Histogram, bar_width: int = 30) -> str:
    """One histogram as a labelled ASCII bar chart."""
    lines = [
        f"histogram {histogram.name}: count={histogram.count} "
        f"mean={histogram.mean:.1f} min={histogram.min} max={histogram.max}"
    ]
    peak = max(histogram.bucket_counts) or 1
    labels = [f"<= {edge}" for edge in histogram.bounds] + [
        f" > {histogram.bounds[-1]}"
    ]
    width = max(len(label) for label in labels)
    for label, count in zip(labels, histogram.bucket_counts):
        if count == 0:
            continue
        bar = "#" * max(1, round(bar_width * count / peak))
        lines.append(f"  {label:>{width}}  {count:>6}  {bar}")
    return "\n".join(lines)


def render_span(span: Span, indent: str = "") -> str:
    """One span tree as indented text, events summarised per span."""
    tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
    line = f"{indent}{span.name} ({span.duration} ticks)"
    if tags:
        line += f" [{tags}]"
    lines = [line]
    if span.counters:
        summary = ", ".join(
            f"{name}×{count}" for name, count in sorted(span.counters.items())
        )
        lines.append(f"{indent}  · {summary}")
    for child in span.children:
        lines.append(render_span(child, indent + "  "))
    return "\n".join(lines)


def render_commit_table(tracer: Tracer) -> str:
    """The commit-path breakdown the paper's claims are about: how many
    commits took the one-block fast path versus the serialise path, and
    what each cost.  Group-commit batches appear as one ``group`` row
    per batch (their members never enter the sequential path)."""
    groups: dict[str, list[Span]] = {}
    for span in tracer.spans_named("commit"):
        groups.setdefault(str(span.tags.get("path", "?")), []).append(span)
    for span in tracer.spans_named("commit.group"):
        groups.setdefault("group", []).append(span)
    if not groups:
        return "(no commits recorded)"
    header = f"{'path':<10} {'commits':>8} {'avg ticks':>10} {'max ticks':>10}"
    lines = [header, "-" * len(header)]
    for path in sorted(groups):
        spans = groups[path]
        durations = [span.duration for span in spans]
        lines.append(
            f"{path:<10} {len(spans):>8} "
            f"{sum(durations) / len(durations):>10.0f} {max(durations):>10}"
        )
    return "\n".join(lines)


def render_shard_table(metrics: MetricsRegistry) -> str:
    """Per-shard allocation balance, from the ``shard.s<i>.allocs``
    counters the block client records; the empty string when none exist
    (no recorder saw an allocation), so callers can append it
    conditionally."""
    allocs: dict[int, int] = {}
    for name, counter in metrics.counters.items():
        match = re.fullmatch(r"shard\.s(\d+)\.allocs", name)
        if match:
            allocs[int(match.group(1))] = counter.value
    if not allocs:
        return ""
    header = f"{'shard':<6} {'allocs':>8}"
    lines = [header, "-" * len(header)]
    for shard in sorted(allocs):
        lines.append(f"s{shard:<5} {allocs[shard]:>8}")
    return "\n".join(lines)


def render_counter_table(
    metrics: MetricsRegistry, prefixes: tuple[str, ...], first: tuple[str, ...] = ()
) -> str:
    """One ``counter  value`` table: the instruments named in ``first``
    (counters or gauges) in that order, then every other counter under
    ``prefixes``, sorted.  Empty string when none of them was recorded,
    so callers can append the table conditionally."""
    recorded = {**metrics.gauges, **metrics.counters}
    names = [name for name in first if name in recorded] + sorted(
        name
        for name in metrics.counters
        if name.startswith(prefixes) and name not in first
    )
    if not names:
        return ""
    width = max(len(name) for name in names)
    header = f"{'counter':<{width}} {'value':>12}"
    lines = [header, "-" * len(header)]
    for name in names:
        lines.append(f"{name:<{width}} {recorded[name].value:>12}")
    return "\n".join(lines)


def render_placement_table(metrics: MetricsRegistry) -> str:
    """Placement / rebalance activity: the current placement epoch gauge
    next to the ``rebalance.*`` and ``discovery.*`` counters."""
    return render_counter_table(
        metrics, ("rebalance.", "discovery."), first=("placement.epoch",)
    )


def render_net_table(metrics: MetricsRegistry) -> str:
    """Transport traffic: the simulated ``net.messages`` row next to the
    real-socket ``net.tcp.*`` counters, so a mixed run shows both wires
    side by side, and the transaction loop's re-sends, which both wires
    count under the same ``rpc.*`` names."""
    return render_counter_table(
        metrics,
        ("net.tcp.",),
        first=(
            "net.messages",
            "net.tcp.connections",
            "net.tcp.requests",
            "rpc.retries",
            "rpc.failovers",
            "rpc.sweeps",
            "net.tcp.bytes_in",
            "net.tcp.bytes_out",
        ),
    )


def render_cache_table(metrics: MetricsRegistry) -> str:
    """Client-cache effectiveness: plain hit/miss traffic next to the
    lease counters (zero-message hits, epoch fast-renewals, epoch bumps,
    expiries, evictions) and how servers resolved current reads (named by
    the file table, or chased through stable storage)."""
    return render_counter_table(
        metrics,
        ("cache.",),
        first=(
            "cache.hits",
            "cache.misses",
            "cache.invalidations",
            "cache.evictions",
            "cache.lease.hits",
            "cache.lease.expired",
            "cache.lease.grants",
            "cache.lease.fast_renewals",
            "cache.lease.cold_reads",
            "cache.lease.epoch_bumps",
            "cache.current.trusted",
            "cache.current.chased",
        ),
    )


def render_disk_table(metrics: MetricsRegistry) -> str:
    """Durable-medium activity: log appends, cleaning passes and the bytes
    they copied, segments opened, the sync counters (segment / directory)
    and any recovery-replay numbers; empty on simulated media."""
    return render_counter_table(
        metrics,
        ("disk.fsync.", "disk.journal.", "disk.recover.", "disk.clean."),
        first=(
            "disk.journal.appends",
            "disk.journal.compactions",
            "disk.clean.copied_bytes",
            "disk.segments",
            "disk.fsync.journal",
            "disk.fsync.dir",
            "disk.recover.replayed",
            "disk.recover.truncated_bytes",
        ),
    )


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def to_dict(recorder) -> dict:
    return {
        "metrics": recorder.metrics.as_dict(),
        "spans": [span.to_dict() for span in recorder.tracer.roots],
    }


def to_json(recorder, indent: int | None = None) -> str:
    return json.dumps(to_dict(recorder), indent=indent, sort_keys=True)


def from_json(raw: str) -> tuple[MetricsRegistry, list[Span]]:
    """Rebuild the metrics registry and root spans from :func:`to_json`."""
    data = json.loads(raw)
    metrics = MetricsRegistry.from_dict(data.get("metrics", {}))
    spans = [Span.from_dict(s) for s in data.get("spans", [])]
    return metrics, spans
