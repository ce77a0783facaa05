"""The page store: caching, deferred writes, the commit test-and-set."""

import pytest

from repro.block.stable import StablePair
from repro.block.sharding import ShardedBlockClient
from repro.core.page import NIL, Page
from repro.core.store import PageStore
from repro.sim.network import Network


@pytest.fixture
def net():
    return Network()


@pytest.fixture
def pair(net, disk_backend):
    # Both media: simulated memory and the durable file-backed disk.
    pair = StablePair(net, 0x600, capacity=256, block_size=33000, **disk_backend())
    yield pair
    pair.close()


@pytest.fixture
def store(net, pair):
    return PageStore(ShardedBlockClient(net, "fs", [0x600], account=1))


def test_store_new_and_load(store):
    block = store.store_new(Page(data=b"hello"))
    assert store.load(block).data == b"hello"


def _numbered(data: bytes) -> Page:
    """A page numbered at birth: a version page (a brand-new page's number
    is provisional until its flush, see tests/test_numbering.py)."""
    return Page(is_version_page=True, data=data)


def test_deferred_write_not_on_disk_until_flush(store, pair):
    block = store.store_new(_numbered(b"deferred"))
    assert not pair.disk_a.holds(block)
    assert store.dirty_count == 1
    flushed = store.flush()
    assert flushed == 1
    assert pair.disk_a.holds(block)
    assert Page.from_bytes(pair.disk_a.read(block)).data == b"deferred"


def test_dirty_pages_served_from_memory(store):
    block = store.store_new(Page(data=b"v1"))
    page = store.load(block)
    page.data = b"v2"
    store.store_in_place(block, page)
    assert store.load(block).data == b"v2"
    assert store.load(block, fresh=True).data == b"v2"  # dirty wins


def test_cache_avoids_disk_reads(store, pair):
    block = store.store_new(_numbered(b"cached"))
    store.flush()
    store.cache.clear()
    reads_before = pair.disk_a.stats.reads + pair.disk_b.stats.reads
    store.load(block)
    store.load(block)
    store.load(block)
    reads_after = pair.disk_a.stats.reads + pair.disk_b.stats.reads
    assert reads_after - reads_before == 1


def test_fresh_load_bypasses_cache(store, pair):
    block = store.store_new(_numbered(b"x"))
    store.flush()
    store.load(block)
    reads_before = pair.disk_a.stats.reads + pair.disk_b.stats.reads
    store.load(block, fresh=True)
    assert pair.disk_a.stats.reads + pair.disk_b.stats.reads > reads_before


def test_forget_and_free(store, pair):
    block = store.store_new(Page(data=b"x"))
    store.forget(block)
    assert store.dirty_count == 0
    block2 = store.store_new(_numbered(b"y"))
    store.flush()
    store.free(block2)
    assert not pair.disk_a.holds(block2)


def test_tas_commit_ref_success_and_failure(store):
    version = Page(is_version_page=True, commit_ref=NIL)
    block = store.store_new(version)
    store.flush()
    result = store.tas_commit_ref(block, 777)
    assert result.success
    assert store.read_commit_ref(block) == 777
    # Second committer loses and learns the winner.
    again = store.tas_commit_ref(block, 888)
    assert not again.success
    assert int.from_bytes(again.current, "big") == 777


def test_tas_requires_flush(store):
    block = store.store_new(Page(is_version_page=True))
    with pytest.raises(AssertionError):
        store.tas_commit_ref(block, 1)


def _committed_base(store):
    base = store.store_new(Page(is_version_page=True, commit_ref=NIL))
    store.flush()
    return base


def _on_both_disks(pair, block):
    return pair.disk_a.holds(block) and pair.disk_b.holds(block)


def test_tas_commit_ref_flushes_in_the_same_request(store, pair, net):
    base = _committed_base(store)
    page = store.store_new(_numbered(b"the version's page"))
    messages = net.stats.messages
    result = store.tas_commit_ref(base, page)
    # One request to the pair, one companion exchange: four messages.
    assert net.stats.messages - messages == 4
    assert result.success and store.dirty_count == 0
    assert _on_both_disks(pair, page)
    for disk in (pair.disk_a, pair.disk_b):
        assert Page.from_bytes(disk.read(base)).commit_ref == page
    assert store.read_commit_ref(base) == page  # the cached copy was dropped


def test_failed_compare_still_flushes(store, pair):
    base = _committed_base(store)
    assert store.tas_commit_ref(base, 777).success
    page = store.store_new(_numbered(b"the loser's page"))
    result = store.tas_commit_ref(base, page)
    assert not result.success
    assert int.from_bytes(result.current, "big") == 777
    # The pages are safely on disk all the same: serialise + retry goes on
    # from there exactly as after a separate flush.
    assert store.dirty_count == 0 and _on_both_disks(pair, page)
    assert store.read_commit_ref(base) == 777


def test_dirty_set_survives_a_conflicted_request(store, pair):
    from repro.errors import CompanionConflict

    base = _committed_base(store)
    page = store.store_new(_numbered(b"retry me"))
    # A write of the same block through B is past its companion step.
    other = pair.b.begin_batch(1, [(page, b"in flight through B")])
    with pytest.raises(CompanionConflict):
        store.tas_commit_ref(base, page)
    # Refused before any damage: nothing of it written, nothing forgotten.
    assert store.dirty_count == 1
    assert pair.disk_a.read(page) == b"in flight through B"
    assert not pair.disk_b.holds(page)
    assert store.read_commit_ref(base) == NIL
    pair.b.finish_op(other)
    assert store.tas_commit_ref(base, page).success
    assert store.dirty_count == 0 and _on_both_disks(pair, page)


def test_dirty_set_survives_an_outage(store, pair):
    from repro.errors import ServerUnreachable

    base = _committed_base(store)
    page = store.store_new(_numbered(b"retry me"))
    pair.a.crash()
    pair.b.crash()
    with pytest.raises(ServerUnreachable):
        store.tas_commit_ref(base, page)
    assert store.dirty_count == 1
    for half in pair.halves():
        half.restart()
    for half in pair.halves():
        half.resync()
    assert store.tas_commit_ref(base, page).success
    assert _on_both_disks(pair, page)


def test_tas_commit_refs_publishes_several_files_in_one_request(store, pair, net):
    bases = [_committed_base(store) for _ in range(3)]
    assert store.tas_commit_ref(bases[1], 555).success  # someone got there first
    heads = [store.store_new(Page(is_version_page=True)) for _ in bases]
    messages = net.stats.messages
    results = store.tas_commit_refs(list(zip(bases, heads)), "commit_group")
    assert net.stats.messages - messages == 4
    assert [r.success for r in results] == [True, False, True]
    assert int.from_bytes(results[1].current, "big") == 555
    assert store.dirty_count == 0 and all(_on_both_disks(pair, h) for h in heads)
