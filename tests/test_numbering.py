"""Delayed allocation: a brand-new page gets its block number when the
flush that first writes it runs, not when it is created.

A page with no base that is not a version page (``tree_ops._new_child``:
appends, inserts, filled holes, split siblings) is named by a negative,
provisional number private to its page store.  The flush draws real
numbers with one ``allocate(count)`` per shard and renames the page in
every dirty page that names it.  Version pages and shadow copies keep
their number from birth.
"""

import pytest

from repro.core.page import NIL, Page, PageRef
from repro.core.pathname import PagePath
from repro.errors import NoSuchBlock
from repro.sim.sched import Scheduler
from repro.testbed import build_cluster
from repro.tools.check import check_cluster

ROOT = PagePath.ROOT


def _block_calls(fs) -> list[tuple[str, dict]]:
    """Record every block-tier request ``fs`` sends, as (verb, params)."""
    calls: list[tuple[str, dict]] = []
    txn = fs.store.blocks.txn
    send = txn.call

    def call(port, command, **params):
        calls.append((command, params))
        return send(port, command, **params)

    txn.call = call
    return calls


def _numbers_in(params: dict) -> list[int]:
    """Every block number a block-tier request carries."""
    numbers = [params["block_no"]] if "block_no" in params else []
    numbers += [block for block, _ in params.get("writes", ())]
    numbers += [swap[0] for swap in params.get("swaps", ())]
    return numbers


def test_a_provisional_number_is_never_serialised():
    with pytest.raises(ValueError):
        PageRef(-1).encode()
    with pytest.raises(ValueError):
        Page(refs=[PageRef(-3)]).to_bytes()
    for field in ("base_ref", "commit_ref", "parent_ref"):
        with pytest.raises(ValueError):
            Page(**{field: -2}).to_bytes()


@pytest.mark.parametrize("shards", [1, 2])
def test_no_frame_or_disk_block_holds_a_provisional_number(shards):
    cluster = build_cluster(shards=shards, seed=31)
    fs = cluster.fs()
    calls = _block_calls(fs)
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    for i in range(6):
        fs.append_page(handle.version, ROOT, b"a%d" % i)
    fs.insert_page(handle.version, PagePath.of(2), 0, b"nested")
    fs.split_page(handle.version, PagePath.of(5), 1)
    fs.commit(handle.version)
    # A second update over the numbered pages, then the collector; fsck
    # below reads every page back from the disks by the numbers written.
    handle = fs.create_version(cap)
    fs.append_page(handle.version, PagePath.of(0), b"grandchild")
    fs.write_page(handle.version, PagePath.of(1), b"rewritten")
    fs.commit(handle.version)
    cluster.gc().collect()

    assert calls and all(n > NIL for _, p in calls for n in _numbers_in(p))
    report = check_cluster(cluster)
    assert report.ok, report.errors
    current = fs.current_version(cap)
    assert fs.read_page(current, PagePath.of(0, 0)) == b"grandchild"
    assert fs.read_page(current, PagePath.of(1)) == b"rewritten"
    assert fs.read_page(current, PagePath.of(2, 0)) == b"nested"
    assert [fs.read_page(current, PagePath.of(i)) for i in (5, 6)] == [b"a", b"5"]


def test_a_new_page_is_numbered_by_its_flush_and_keeps_its_parent_link():
    fs = build_cluster(seed=32).fs()
    store = fs.store
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    fs.append_page(handle.version, ROOT, b"child")
    root_block = fs.registry.version(handle.version.obj).root_block
    root = store.load(root_block)
    provisional = root.refs[0].block
    assert provisional < NIL and store.load(provisional).data == b"child"
    fs.commit(handle.version)
    real = root.refs[0].block
    assert real > NIL
    assert store.load(real).data == b"child"  # cached under its real number
    with pytest.raises(NoSuchBlock):  # a BlockError: the GC tolerates it
        store.peek(provisional)
    with pytest.raises(NoSuchBlock):
        store.load(provisional)


@pytest.mark.parametrize("pages", [0, 8])
def test_an_aborted_append_update_allocates_and_frees_nothing_for_its_pages(pages):
    fs = build_cluster(seed=33).fs()
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    version_page = fs.registry.version(handle.version.obj).root_block
    calls = _block_calls(fs)
    for i in range(pages):
        fs.append_page(handle.version, ROOT, b"p%d" % i)
    fs.abort(handle.version)
    # Only the version page, numbered at begin, goes back.
    assert [(verb, p.get("block_no")) for verb, p in calls] == [
        ("free", version_page)
    ]
    assert fs.store.dirty_count == 0


def test_a_group_commit_numbers_its_members_pages_in_one_exchange_per_shard():
    cluster = build_cluster(shards=2, seed=34)
    fs = cluster.fs()
    caps = [fs.create_file(b"f%d" % i) for i in range(3)]
    handles = [fs.create_version(cap) for cap in caps]
    for i, handle in enumerate(handles):
        for j in range(3):
            fs.append_page(handle.version, ROOT, b"%d.%d" % (i, j))
    calls = _block_calls(fs)
    outcomes = fs.commit_group([h.version for h in handles])
    assert set(outcomes.values()) == {"committed"}
    allocates = [p for verb, p in calls if verb == "allocate"]
    assert [p["count"] for p in allocates] == [5, 4]  # 9 pages, 2 shards
    for i, cap in enumerate(caps):
        current = fs.current_version(cap)
        assert [fs.read_page(current, PagePath.of(j)) for j in range(3)] == [
            b"%d.%d" % (i, j) for j in range(3)
        ]
    blocks = [
        ref.block
        for cap in caps
        for ref in fs.store.load(
            fs.registry.version(fs.current_version(cap).obj).root_block
        ).refs
    ]
    shards = {fs.store.blocks.placement.index_of(block) for block in blocks}
    assert shards == {0, 1}  # the per-page rotation is kept
    assert check_cluster(cluster).ok


def test_gc_beside_open_multi_append_updates_sweeps_nothing_live():
    """A collector cycle interleaved with appends on another file server
    (whose pages it cannot see) and on its own (whose provisional pages
    are renumbered by a commit mid-cycle) frees nothing live."""
    cluster = build_cluster(servers=2, seed=35)
    fs0, fs1 = cluster.fs(0), cluster.fs(1)
    caps = [fs0.create_file(b"zero"), fs1.create_file(b"one")]

    def appender(fs, cap, tag):
        for round_ in range(3):
            handle = fs.create_version(cap)
            for i in range(4):
                fs.append_page(handle.version, ROOT, b"%s%d.%d" % (tag, round_, i))
                yield
            fs.commit(handle.version)
            yield

    def collector():
        cycles = []
        for _ in range(3):
            cycles.append((yield from cluster.gc(0).run_incremental()))
        return cycles

    scheduler = Scheduler()
    scheduler.spawn("own", appender(fs0, caps[0], b"a"))
    scheduler.spawn("other", appender(fs1, caps[1], b"b"))
    gc_task = scheduler.spawn("gc", collector())
    scheduler.run()  # raises what any task raised
    assert len(gc_task.result) == 3
    cluster.gc(0).collect()
    for fs, cap, tag in ((fs0, caps[0], b"a"), (fs1, caps[1], b"b")):
        current = fs.current_version(cap)
        assert [fs.read_page(current, PagePath.of(i)) for i in range(12)] == [
            b"%s%d.%d" % (tag, r, i) for r in range(3) for i in range(4)
        ]
    report = check_cluster(cluster)
    assert report.ok, report.errors


def test_a_reshare_leaves_an_open_update_on_its_server_unflushed():
    cluster = build_cluster(seed=36)
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    deep = fs.append_page(setup.version, ROOT, b"leaf")
    fs.commit(setup.version)
    reader = fs.create_version(cap)
    fs.read_page(reader.version, deep)  # a read copy for the reshare
    fs.commit(reader.version)

    other = fs.create_file(b"other")
    open_update = fs.create_version(other)
    fs.write_page(open_update.version, ROOT, b"half-finished")
    fs.append_page(open_update.version, ROOT, b"new page")
    dirty = dict(fs.store._dirty)
    stats = cluster.gc().collect()
    assert stats.reshared >= 1
    assert fs.store._dirty == dirty  # nothing of the open update written
    fs.commit(open_update.version)
    current = fs.current_version(other)
    assert fs.read_page(current, ROOT) == b"half-finished"
    assert fs.read_page(current, PagePath.of(0)) == b"new page"
    assert fs.read_page(fs.current_version(cap), deep) == b"leaf"
