"""Integration tests: the observability layer watching real commits.

These assert the paper's performance claims as executable facts:

* a non-concurrent commit takes the **fast path** — exactly one
  version-page flush and one test-and-set on the base's commit
  reference (§5.2's "a single block write" critical section);
* a commit whose base moved underneath it takes the **serialise path**
  and records a nested ``serialise`` span;
* a genuine read/write conflict aborts and is tagged as such.
"""

import pytest

from repro.core.pathname import PagePath
from repro.errors import CommitConflict
from repro.obs import Recorder
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


@pytest.fixture()
def recorder():
    return Recorder()


@pytest.fixture()
def cluster(recorder):
    return build_cluster(servers=2, seed=11, recorder=recorder)


def _commit_spans(recorder):
    return recorder.tracer.spans_named("commit")


def test_fast_path_commit_writes_exactly_one_version_page(cluster, recorder):
    fs = cluster.fs()
    cap = fs.create_file(b"seed")
    recorder.tracer.clear()

    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"uncontended update")
    fs.commit(handle.version)

    (span,) = _commit_spans(recorder)
    assert span.tags["path"] == "fast"
    assert span.tags["rounds"] == 1
    # The §5.2 claim: committing is ONE version-page block write.  The
    # flush runs in a child span of the commit, so search the subtree.
    version_flushes = [
        event
        for sub in span.walk()
        for event in sub.events_named("store.page_flush")
        if event.tags["version_page"]
    ]
    assert len(version_flushes) == 1
    # ...plus one test-and-set on the base's commit reference, which won.
    tas_events = span.events_named("store.tas_commit")
    assert len(tas_events) == 1
    assert tas_events[0].tags["success"] is True
    # No serialisation happened.
    assert span.find("serialise") is None


def test_fast_path_span_sees_through_to_the_disks(cluster, recorder):
    fs = cluster.fs()
    cap = fs.create_file(b"seed")
    recorder.tracer.clear()

    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"v2")
    fs.commit(handle.version)

    (span,) = _commit_spans(recorder)
    # One logical stable write = two physical disk writes (the pair),
    # and the event stream shows the companion-first order.  They sit in
    # the nested flush span: the commit is one stable request, in which
    # the test-and-set rides behind the pages.
    flush = span.find("flush")
    writes = flush.events_named("disk.write")
    assert len(writes) >= 2
    assert [e.tags["disk"] for e in writes[:2]] == ["shard0B", "shard0B"]
    assert flush.counters["rpc.companion_write_many"] == 1
    assert flush.counters["rpc.write_many"] == 1
    assert "rpc.test_and_set" not in flush.counters
    assert "rpc.test_and_set" not in span.counters


def test_concurrent_disjoint_commit_records_serialise_span(cluster, recorder):
    fs = cluster.fs()
    cap = fs.create_file(b"seed")
    handle = fs.create_version(cap)
    fs.append_page(handle.version, ROOT, b"page 0")
    fs.append_page(handle.version, ROOT, b"page 1")
    fs.commit(handle.version)
    recorder.tracer.clear()

    first = fs.create_version(cap)
    second = fs.create_version(cap)
    fs.write_page(first.version, PagePath.of(0), b"first's page")
    fs.write_page(second.version, PagePath.of(1), b"second's page")
    fs.commit(first.version)
    fs.commit(second.version)

    first_span, second_span = _commit_spans(recorder)
    assert first_span.tags["path"] == "fast"
    assert second_span.tags["path"] == "serialise"
    # ``rounds`` counts stable-storage requests: this server knew the tip,
    # so the catch-up ran before the first (and only) test-and-set.
    assert second_span.tags["rounds"] == 1
    serialise = second_span.find("serialise")
    assert serialise is not None
    assert serialise.tags["ok"] is True
    assert serialise.tags["grafts"] >= 1
    # ... which the merged version wins (losing first is what a commit
    # through ANOTHER server costs: tests/test_protocol_traces.py).
    tas = second_span.events_named("store.tas_commit")
    assert [event.tags["success"] for event in tas] == [True]


def test_conflicting_commit_tagged_and_aborted(cluster, recorder):
    fs = cluster.fs()
    cap = fs.create_file(b"seed")
    handle = fs.create_version(cap)
    fs.append_page(handle.version, ROOT, b"page 0")
    fs.commit(handle.version)
    recorder.tracer.clear()

    winner = fs.create_version(cap)
    loser = fs.create_version(cap)
    fs.write_page(winner.version, PagePath.of(0), b"winner")
    fs.read_page(loser.version, PagePath.of(0))  # stale read -> conflict
    fs.commit(winner.version)
    with pytest.raises(CommitConflict):
        fs.commit(loser.version)

    spans = _commit_spans(recorder)
    assert [span.tags["path"] for span in spans] == ["fast", "conflict"]
    conflict = spans[-1]
    serialise = conflict.find("serialise")
    assert serialise is not None
    assert serialise.tags["ok"] is False
    assert recorder.metrics.counter("commit.conflicts").value == 1


def test_commit_ticks_histogram_tracks_every_commit_outcome(cluster, recorder):
    fs = cluster.fs()
    cap = fs.create_file(b"seed")  # stored directly, not via commit()
    for i in range(3):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"update %d" % i)
        fs.commit(handle.version)

    histogram = recorder.metrics.histogram("commit.ticks")
    assert histogram.count == 3
    assert histogram.min > 0  # every commit costs disk + network ticks
    assert recorder.metrics.counter("commit.committed").value == 3


def test_cache_hit_and_miss_counters(cluster, recorder):
    fs = cluster.fs()
    cap = fs.create_file(b"cached data")
    handle = fs.create_version(cap)
    fs.append_page(handle.version, ROOT, b"child page")
    fs.commit(handle.version)
    # The creating server's cache was warmed by the flush: reads hit.
    fs.read_page(fs.current_version(cap), ROOT)
    assert recorder.metrics.counter("cache.hits").value >= 1
    # The replica's cache is cold.  Version pages are loaded fresh (their
    # commit reference may have moved), so the miss shows on the child.
    other = cluster.fs(1)
    other.read_page(other.current_version(cap), PagePath.of(0))
    assert recorder.metrics.counter("cache.misses").value >= 1


def test_null_recorder_leaves_no_trace(recorder):
    # Build WITHOUT a recorder: the default no-op must record nothing and
    # the cluster must behave identically.
    plain = build_cluster(servers=1, seed=11)
    fs = plain.fs()
    cap = fs.create_file(b"dark")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"unwatched")
    fs.commit(handle.version)
    assert not plain.recorder.enabled
    assert fs.read_page(fs.current_version(cap), ROOT) == b"unwatched"


def test_rpc_events_carry_port_and_client(cluster, recorder):
    fs = cluster.fs()
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"y")
    fs.commit(handle.version)
    (span,) = recorder.tracer.spans_named("commit")
    # Block writes happen inside the commit's nested flush span.
    writes = [e for sub in span.walk() for e in sub.events_named("rpc.write_many")]
    assert writes, "commit must issue at least one block-write RPC"
    assert writes[0].tags["client"] == fs.name
    assert writes[0].tags["port"] == cluster.block_port


def test_disk_table_reports_segments_and_cleaning(tmp_path):
    """The durable-disk table follows the log-structured layout: segments
    opened and bytes the cleaner copied; no per-block-file fsync row."""
    from repro.block.fdisk import FDisk
    from repro.obs.report import render_disk_table

    recorder = Recorder()
    disk = FDisk(tmp_path / "d", 64, 256, recorder=recorder, journal_limit=160)
    disk.write(1, b"cold")
    for i in range(40):
        disk.write(2, b"hot-%d" % i)
    disk.close()
    table = render_disk_table(recorder.metrics)
    rows = {line.split()[0]: int(line.split()[1]) for line in table.splitlines()[2:]}
    assert rows["disk.segments"] == disk._active.seq
    assert rows["disk.journal.compactions"] == disk.journal_compactions > 0
    assert rows["disk.clean.copied_bytes"] == disk.cleaned_bytes > 0
    assert rows["disk.fsync.journal"] + rows["disk.fsync.dir"] == disk.fsyncs - 1
    assert "disk.fsync.block" not in rows
    assert render_disk_table(Recorder().metrics) == ""
