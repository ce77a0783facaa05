"""The garbage collector: sweep, reshare, reap, history pruning."""

import pytest

from repro.errors import CommitConflict
from repro.core.pathname import PagePath
from repro.sim.sched import Scheduler
from repro.tools.check import check_cluster

ROOT = PagePath.ROOT


def _allocated(cluster):
    return set(cluster.fs().store.blocks.recover())


def test_clean_system_sweeps_nothing(cluster):
    fs = cluster.fs()
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"y")
    fs.commit(handle.version)
    stats = cluster.gc().collect()
    assert stats.swept == 0
    assert fs.read_page(fs.current_version(cap), ROOT) == b"y"


def test_aborted_version_leftovers_are_swept(cluster):
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(3):
        fs.append_page(setup.version, ROOT, b"c%d" % i)
    fs.commit(setup.version)
    before = _allocated(cluster)
    # A conflicting update leaves merge-orphaned blocks behind.
    va = fs.create_version(cap)
    vb = fs.create_version(cap)
    fs.read_page(vb.version, PagePath.of(0))
    fs.write_page(va.version, PagePath.of(0), b"win")
    fs.write_page(vb.version, PagePath.of(1), b"lose")
    fs.commit(va.version)
    with pytest.raises(CommitConflict):
        fs.commit(vb.version)
    cluster.gc().collect()
    after = _allocated(cluster)
    # Everything the failed update allocated has been reclaimed; only the
    # winner's shadow pages (root + child 0) remain beyond the baseline.
    assert len(after - before) <= 2
    assert fs.read_page(fs.current_version(cap), PagePath.of(0)) == b"win"


def test_reshare_reclaims_read_copies(cluster):
    """"The garbage collector may remove pages that were copied but not
    written or modified and reshare the corresponding page"."""
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    deep = fs.append_page(setup.version, ROOT, b"leafdata")
    fs.commit(setup.version)
    baseline = len(_allocated(cluster))
    # A read-only... almost: reads force shadow copies.
    handle = fs.create_version(cap)
    assert fs.read_page(handle.version, deep) == b"leafdata"
    fs.commit(handle.version)
    grown = len(_allocated(cluster))
    assert grown > baseline  # read copies exist
    stats = cluster.gc().collect()
    assert stats.reshared >= 1
    assert stats.swept >= 1
    shrunk = len(_allocated(cluster))
    assert shrunk < grown
    # Data still correct.
    assert fs.read_page(fs.current_version(cap), deep) == b"leafdata"


def test_reshare_preserves_write_information(cluster):
    """Resharing must not touch subtrees containing writes — later
    serialisability tests still need the W flags."""
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    a = fs.append_page(setup.version, ROOT, b"a")
    b = fs.append_page(setup.version, ROOT, b"b")
    fs.commit(setup.version)
    writer = fs.create_version(cap)
    fs.write_page(writer.version, a, b"a2")
    fs.read_page(writer.version, b)  # a read copy, resharable
    fs.commit(writer.version)
    cluster.gc().collect()
    # The write's W flag must still be discoverable by a validation that
    # starts from the version just before it (index 1: the setup version).
    *_, discards = fs.read_current(
        cap, ROOT, cached_version_cap=fs.committed_versions(cap)[1], have_page=True
    )
    assert discards == [PagePath.of(0)]  # only the write; the read-copy
    # of `b` was reshared without inventing a phantom write.
    assert fs.read_page(fs.current_version(cap), b) == b"b"


def test_a_reshare_below_a_written_page_is_durable_before_the_sweep(cluster):
    """Only an interior page's reference moves (its parent was written, so
    the root keeps its own): that page must reach the disk before the
    sweep frees the read copy it named, or a crash leaves it dangling."""
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    parent = fs.append_page(setup.version, ROOT, b"parent")
    leaf = fs.append_page(setup.version, parent, b"leaf")
    fs.commit(setup.version)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, parent, b"parent, rewritten")
    fs.read_page(handle.version, leaf)  # a read copy under a written page
    fs.commit(handle.version)
    stats = cluster.gc().collect()
    assert stats.reshared == 1 and stats.swept >= 1
    fs.crash()
    fs.restart()
    report = check_cluster(cluster)
    assert report.ok, report.errors
    assert fs.read_page(fs.current_version(cap), leaf) == b"leaf"


@pytest.mark.parametrize("collector_server_begins_first", [False, True])
def test_begin_after_a_reshare_elsewhere_never_clones_the_stale_page(
    cluster2, collector_server_begins_first
):
    """The collector on one server rewrites the current version page in
    place and sweeps the read copies it named.  Another server still
    caches the page as it was, so every begin — whichever server began
    since — must clone the base as it is on disk, never the cached copy."""
    from repro.tools.check import check_cluster

    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs1.create_file(b"root")
    setup = fs1.create_version(cap)
    leaf = fs1.append_page(setup.version, ROOT, b"leafdata")
    fs1.commit(setup.version)
    reader = fs1.create_version(cap)
    fs1.read_page(reader.version, leaf)  # a read copy in the committed tree
    fs1.commit(reader.version)
    stats = cluster2.gc(0).collect()
    assert stats.reshared >= 1 and stats.swept >= 1
    if collector_server_begins_first:
        fs0.abort(fs0.create_version(cap).version)
    handle = fs1.create_version(cap)
    fs1.write_page(handle.version, ROOT, b"root2")
    fs1.commit(handle.version)
    assert fs0.read_page(fs0.current_version(cap), leaf) == b"leafdata"
    report = check_cluster(cluster2)
    assert report.ok, report.errors


def test_read_after_a_reshare_elsewhere_never_trusts_the_stale_root(cluster2):
    """A server reading the current version holds its page in cache; the
    collector on the other server rewrites that page in place and sweeps
    the read copies the cached copy still names.  The file table stops
    naming the version current first, so the reader chases to the page
    as it is on disk instead of walking its stale copy."""
    from repro.core.page import Page
    from repro.tools.check import check_cluster

    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs1.create_file(b"root")
    setup = fs1.create_version(cap)
    leaf = fs1.append_page(setup.version, ROOT, b"leafdata")
    fs1.commit(setup.version)
    reader = fs1.create_version(cap)
    fs1.read_page(reader.version, leaf)  # a read copy in the committed tree
    fs1.commit(reader.version)
    entry = cluster2.registry.file(cap.obj)
    block = entry.entry_block
    assert fs0.read_current(cap, leaf)[0] == b"leafdata"
    stale = fs0.store.cache.get(block)
    assert fs0._trusted_current(entry) == (block, entry.current)

    stats = cluster2.gc(1).collect()
    assert stats.reshared >= 1 and stats.swept >= 1
    assert fs0.store.cache.get(block) is stale  # the pre-reshare root
    assert stale.refs != Page.from_bytes(fs0.store.blocks.read(block)).refs
    assert entry.current is None
    assert fs0._trusted_current(entry) is None
    assert fs0.read_current(cap, leaf)[0] == b"leafdata"
    assert fs0.store.cache.get(block) is not stale
    report = check_cluster(cluster2)
    assert report.ok, report.errors


def test_reap_orphans_of_dead_server(cluster2):
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"x")
    handle = fs0.create_version(cap)
    fs0.write_page(handle.version, ROOT, b"doomed")
    fs0.store.flush()
    fs0.crash()
    gc = cluster2.gc(1)
    stats = gc.collect()
    assert stats.reaped_versions == 1
    # The file is intact and updatable via the surviving server.
    h2 = fs1.create_version(cap)
    fs1.write_page(h2.version, ROOT, b"alive")
    fs1.commit(h2.version)
    assert fs1.read_page(fs1.current_version(cap), ROOT) == b"alive"


def test_truncate_history(cluster):
    fs = cluster.fs()
    cap = fs.create_file(b"r0")
    for n in range(1, 5):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"r%d" % n)
        fs.commit(handle.version)
    assert len(fs.committed_versions(cap)) == 5
    gc = cluster.gc()
    pruned = gc.truncate_history(cap, keep=2)
    assert pruned == 3
    remaining = fs.committed_versions(cap)
    assert [fs.read_page(v, ROOT) for v in remaining] == [b"r3", b"r4"]
    swept = gc.collect().swept
    assert swept >= 3  # the pruned version pages at least
    assert fs.read_page(fs.current_version(cap), ROOT) == b"r4"


def test_truncate_history_keep_all_is_noop(cluster):
    fs = cluster.fs()
    cap = fs.create_file(b"only")
    gc = cluster.gc()
    assert gc.truncate_history(cap, keep=3) == 0
    with pytest.raises(ValueError):
        gc.truncate_history(cap, keep=0)


def test_gc_runs_in_parallel_with_updates(cluster):
    """The abstract's claim: the collector runs in parallel with live
    operation — interleaved here, with updates committing mid-cycle."""
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(4):
        fs.append_page(setup.version, ROOT, b"c%d" % i)
    fs.commit(setup.version)

    def updates():
        for round_ in range(5):
            handle = fs.create_version(cap)
            fs.write_page(handle.version, PagePath.of(round_ % 4), b"u%d" % round_)
            yield
            fs.commit(handle.version)
            yield

    def collector():
        stats = yield from cluster.gc().run_incremental()
        return stats

    sched = Scheduler()
    sched.spawn("updates", updates())
    gc_task = sched.spawn("gc", collector())
    sched.run()
    assert gc_task.result is not None
    # All updates landed despite the concurrent collection.
    current = fs.current_version(cap)
    assert fs.read_page(current, PagePath.of(0)) == b"u4"
    # Nothing live was swept: every page still readable.
    for i in range(4):
        fs.read_page(current, PagePath.of(i))
    # A follow-up full collection finds a stable state.
    cluster.gc().collect()
    for i in range(4):
        fs.read_page(fs.current_version(cap), PagePath.of(i))


def test_gc_respects_in_flight_super_update(cluster):
    """A GC cycle during a super-file update must neither free the
    sub-versions' pages nor reshare under them."""
    from repro.core.system_tree import SystemTree

    fs = cluster.fs()
    tree = SystemTree(fs)
    parent = fs.create_file(b"P")
    handle = fs.create_version(parent)
    sub = tree.create_subfile(handle.version, ROOT, initial_data=b"S v1")
    fs.commit(handle.version)

    update = tree.begin_super_update(parent)
    hs = tree.open_subfile(update, sub)
    fs.write_page(hs.version, ROOT, b"S v2-pending")
    stats = cluster.gc().collect()
    # The in-flight versions' pages were marked live: nothing of theirs
    # was swept, and the update completes normally afterwards.
    tree.commit_super(update)
    assert fs.read_page(fs.current_version(sub), ROOT) == b"S v2-pending"


def test_aborted_registry_entries_purged(cluster):
    fs = cluster.fs()
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.abort(handle.version)
    assert fs.registry.version(handle.version.obj).status == "aborted"
    cluster.gc().collect()
    from repro.errors import NoSuchVersion

    with pytest.raises(NoSuchVersion):
        fs.registry.version(handle.version.obj)


# ---------------------------------------------------------------------------
# rewriting committed version pages (GC vs. concurrent commits)
# ---------------------------------------------------------------------------


def _current_root(fs, cap):
    return fs.registry.version(fs.current_version(cap).obj).root_block


def test_rewrite_version_page_preserves_a_concurrent_commit(cluster):
    """The reshare write-back races the commit critical section: a
    whole-page write of a stale copy would reset the commit reference to
    nil and let a second successor fork the chain.  The rewrite primitive
    must leave a concurrently-set commit reference standing."""
    fs = cluster.fs()
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"v1")
    fs.commit(handle.version)
    store = fs.store
    root = _current_root(fs, cap)

    stale = store.load(root, fresh=True).clone()
    # A successor commits between the GC's read and its write-back.
    assert store.tas_commit_ref(root, 424242).success
    assert store.rewrite_version_page(root, stale)
    assert store.read_commit_ref(root) == 424242


def test_rewrite_version_page_can_cut_base_ref(cluster):
    from repro.core.page import NIL

    fs = cluster.fs()
    cap = fs.create_file(b"x")
    for payload in (b"v1", b"v2"):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, payload)
        fs.commit(handle.version)
    store = fs.store
    root = _current_root(fs, cap)
    page = store.load(root, fresh=True).clone()
    assert page.base_ref != NIL
    page.base_ref = NIL
    assert store.rewrite_version_page(root, page, keep_base=False)
    assert store.load(root, fresh=True).base_ref == NIL


def test_rewrite_version_page_refuses_a_resized_page(cluster):
    """If the durable page changed shape since the caller loaded it, the
    rewrite must fail (and drop its cache entry) instead of clobbering."""
    from repro.core.page import Flags, PageRef

    fs = cluster.fs()
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"v1")
    fs.commit(handle.version)
    store = fs.store
    root = _current_root(fs, cap)

    stale = store.load(root, fresh=True).clone()
    moved = stale.clone()
    moved.append_ref(PageRef(123, Flags()))
    store.blocks.write(root, moved.to_bytes())
    store.cache.invalidate(root)
    assert store.rewrite_version_page(root, stale) is False
    assert store.load(root, fresh=True).nrefs == moved.nrefs


def test_unflushed_foreign_root_skips_sweep(cluster2):
    """Another replica's in-flight update has allocated its shadow root
    but not flushed it; a GC cycle on this replica cannot traverse that
    subtree, so it must skip its sweep rather than free live blocks."""
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs1.create_file(b"root")
    setup = fs1.create_version(cap)
    fs1.append_page(setup.version, ROOT, b"c0")
    fs1.commit(setup.version)

    live = fs1.create_version(cap)
    fs1.write_page(live.version, PagePath.of(0), b"pending")
    stats = cluster2.gc(0).collect()
    assert stats.mark_incomplete
    assert stats.sweep_skipped
    assert stats.swept == 0
    # The update is unharmed: its manager can still flush and commit it.
    fs1.commit(live.version)
    assert fs1.read_page(fs1.current_version(cap), PagePath.of(0)) == b"pending"


def test_sweep_never_frees_a_number_the_other_half_still_pools(cluster):
    """A cycle's snapshot is taken through one half while the OTHER half
    holds reserved numbers in its pool.  Were they in the snapshot, one
    handed out and committed mid-cycle would look like an old orphan at
    the sweep and be freed under the committed version."""
    fs, pair = cluster.fs(), cluster.pair

    def update(data):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, data)
        fs.commit(handle.version)

    cap = fs.create_file(b"v0")
    pair.a.crash()
    update(b"v1")  # served by B alone, which reserves an extent
    pair.a.restart()
    pair.a.resync()
    pooled = set(pair.b._pool)
    assert pooled
    # The cycle snapshots through A, marks — and just as the sweep starts,
    # A dies and an update commits on numbers out of B's pool.
    recover, calls = fs.store.blocks.recover, []

    def racing_recover():
        calls.append(1)
        if len(calls) == 2:
            pair.a.crash()
            update(b"v2")
            assert pooled - set(pair.b._pool)
        return recover()

    fs.store.blocks.recover = racing_recover
    stats = cluster.gc().collect()
    fs.store.blocks.recover = recover
    assert len(calls) == 2 and not stats.sweep_skipped
    fs.store.cache.clear()
    assert fs.read_page(fs.current_version(cap), ROOT) == b"v2"
    from repro.tools.check import check_cluster

    report = check_cluster(cluster)
    assert report.ok, report
