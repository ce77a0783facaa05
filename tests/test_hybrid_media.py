"""Hybrid media (Figure 2): magnetic version pages, write-once data pages.

The optical pair's disks raise on any overwrite, so every test here also
proves, by construction, that the copy-on-write discipline never rewrites
a data page.
"""

import pytest

from repro.errors import CommitConflict, WriteOnceViolation
from repro.block.hybrid import OPTICAL_BASE, HybridBlockClient
from repro.core.pathname import PagePath
from repro.core.system_tree import SystemTree
from repro.testbed import build_hybrid_cluster

ROOT = PagePath.ROOT


@pytest.fixture
def hybrid():
    return build_hybrid_cluster(seed=17)


@pytest.fixture
def fs(hybrid):
    return hybrid.fs()


def _wide_file(fs, pages=4):
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(pages):
        fs.append_page(setup.version, ROOT, b"c%d" % i)
    fs.commit(setup.version)
    return cap


def test_version_pages_magnetic_data_pages_optical(hybrid, fs):
    cap = _wide_file(fs)
    chain = fs.family_tree(cap)["committed"]
    for block in chain:
        assert block < OPTICAL_BASE, "version pages belong on magnetic media"
    root = fs.store.load(chain[-1], fresh=True)
    for ref in root.refs:
        assert ref.block >= OPTICAL_BASE, "data pages belong on optical media"


def test_sequential_updates_never_overwrite_optical(hybrid, fs):
    cap = _wide_file(fs)
    for n in range(5):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, PagePath.of(n % 4), b"u%d" % n)
        fs.commit(handle.version)
    assert fs.read_page(fs.current_version(cap), PagePath.of(0)) == b"u4"
    assert hybrid.optical_pair.disk_a.stats.overwrites == 0
    assert hybrid.optical_pair.disk_b.stats.overwrites == 0


def test_concurrent_merge_relocates_burned_pages(hybrid, fs):
    """A failed first commit leaves flushed optical pages; a deep merge
    that grafts into one of them must relocate it, not rewrite it."""
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    mid = fs.append_page(setup.version, ROOT, b"mid")
    left = fs.append_page(setup.version, mid, b"left")
    right = fs.append_page(setup.version, mid, b"right")
    fs.commit(setup.version)
    va = fs.create_version(cap)
    vb = fs.create_version(cap)
    fs.write_page(va.version, left, b"A")
    fs.write_page(vb.version, right, b"B")
    fs.commit(va.version)
    dead_before = fs.store.blocks.optical_dead
    fs.commit(vb.version)  # deep merge inside vb's flushed copy of `mid`
    current = fs.current_version(cap)
    assert fs.read_page(current, left) == b"A"
    assert fs.read_page(current, right) == b"B"
    assert hybrid.optical_pair.disk_a.stats.overwrites == 0
    assert fs.store.blocks.optical_dead > dead_before  # relocation happened


def test_restructured_merge_relocates_burned_pages(hybrid, fs):
    """The same relocation when V.b restructured the table: the child both
    versions wrote is matched through its base reference, and its merged
    copy moves to a fresh optical block."""
    cap = _wide_file(fs)
    va = fs.create_version(cap)
    vb = fs.create_version(cap)
    fs.write_page(va.version, PagePath.of(1), b"A")
    fs.insert_page(vb.version, ROOT, 0, b"new")
    fs.write_page(vb.version, PagePath.of(2), b"B")  # old child 1
    fs.commit(va.version)
    dead_before = fs.store.blocks.optical_dead
    fs.commit(vb.version)
    current = fs.current_version(cap)
    data = [fs.read_page(current, PagePath.of(i)) for i in range(5)]
    assert data == [b"new", b"c0", b"B", b"c2", b"c3"]
    assert hybrid.optical_pair.disk_a.stats.overwrites == 0
    assert fs.store.blocks.optical_dead > dead_before


def test_conflicts_still_detected_on_hybrid(hybrid, fs):
    cap = _wide_file(fs)
    va = fs.create_version(cap)
    vb = fs.create_version(cap)
    fs.read_page(vb.version, PagePath.of(1))
    fs.write_page(va.version, PagePath.of(1), b"A")
    fs.write_page(vb.version, PagePath.of(2), b"B")
    fs.commit(va.version)
    with pytest.raises(CommitConflict):
        fs.commit(vb.version)


def test_superfile_update_on_hybrid(hybrid, fs):
    tree = SystemTree(fs)
    parent = fs.create_file(b"P")
    handle = fs.create_version(parent)
    sub = tree.create_subfile(handle.version, ROOT, initial_data=b"S1")
    fs.commit(handle.version)
    update = tree.begin_super_update(parent)
    hs = tree.open_subfile(update, sub)
    fs.write_page(hs.version, ROOT, b"S2")
    tree.commit_super(update)
    assert fs.read_page(fs.current_version(sub), ROOT) == b"S2"
    assert hybrid.optical_pair.disk_a.stats.overwrites == 0


def test_gc_on_hybrid_is_sweep_only(hybrid, fs):
    cap = _wide_file(fs)
    handle = fs.create_version(cap)
    for i in range(4):
        fs.read_page(handle.version, PagePath.of(i))  # read copies
    fs.commit(handle.version)
    from repro.core.gc import GarbageCollector

    stats = GarbageCollector(fs).collect(reshare=True)  # forced off inside
    assert stats.reshared == 0
    assert fs.read_page(fs.current_version(cap), PagePath.of(0)) == b"c0"
    assert hybrid.optical_pair.disk_a.stats.overwrites == 0


def test_freed_optical_blocks_are_lost_not_reused(hybrid, fs):
    cap = _wide_file(fs)
    before = fs.store.blocks.optical_dead
    handle = fs.create_version(cap)
    fs.write_page(handle.version, PagePath.of(0), b"junk")
    fs.abort(handle.version)  # frees the private optical page
    assert fs.store.blocks.optical_dead > before
    # And the old committed data still reads fine.
    assert fs.read_page(fs.current_version(cap), PagePath.of(0)) == b"c0"


def test_corrupted_optical_block_served_from_companion(hybrid, fs):
    cap = _wide_file(fs)
    chain = fs.family_tree(cap)["committed"]
    root = fs.store.load(chain[-1], fresh=True)
    victim = root.refs[0].block - OPTICAL_BASE
    hybrid.optical_pair.disk_a.corrupt(victim)
    fs.store.cache.clear()
    # Read succeeds via the companion; the local copy stays corrupt
    # (write-once media cannot be repaired in place) so a second read
    # takes the companion path again.
    assert fs.read_page(fs.current_version(cap), PagePath.of(0)) == b"c0"
    fs.store.cache.clear()
    assert fs.read_page(fs.current_version(cap), PagePath.of(0)) == b"c0"


def test_hybrid_block_client_routing():
    from repro.sim.network import Network
    from repro.block.stable import StablePair
    from repro.block.sharding import ShardedBlockClient

    net = Network()
    StablePair(net, 0xA01, capacity=64, name_a="m1", name_b="m2")
    StablePair(net, 0xA02, capacity=64, name_a="o1", name_b="o2", write_once=True)
    client = HybridBlockClient(
        ShardedBlockClient(net, "fs", [0xA01], 1),
        ShardedBlockClient(net, "fs", [0xA02], 1),
    )
    magnetic = client.allocate_magnetic()
    optical = client.allocate_optical()
    assert magnetic < OPTICAL_BASE <= optical
    client.write(magnetic, b"mag")
    client.write(optical, b"opt")
    assert client.read(magnetic) == b"mag"
    assert client.read(optical) == b"opt"
    assert not client.is_optical(magnetic)
    assert client.is_optical(optical)
    # Magnetic rewrites fine; optical refuses.
    client.write(magnetic, b"mag2")
    with pytest.raises(WriteOnceViolation):
        client.write(optical, b"opt2")
    # Recovery lists both, with offsets applied.
    assert set(client.recover()) == {magnetic, optical}
    # Freeing optical loses the space.
    client.free(optical)
    assert client.optical_dead == 1


def test_fsck_passes_on_hybrid(hybrid, fs):
    from repro.tools.check import check_cluster

    cap = _wide_file(fs)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, PagePath.of(1), b"x")
    fs.commit(handle.version)
    report = check_cluster(hybrid)
    assert report.ok, report.errors


def test_commit_sends_the_optical_batch_before_the_magnetic_swap(hybrid, fs):
    """Pages before reference, across media: the commit reference lives in
    a version page on the magnetic pair, the data pages it publishes on
    the optical pair — so the optical batch must be durable on both its
    disks before the magnetic request that carries the test-and-set."""
    from repro.sim.rpc import Request

    cap = _wide_file(fs)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, PagePath.of(1), b"new data page")
    optical = [b - OPTICAL_BASE for b in fs.store._dirty if b >= OPTICAL_BASE]
    assert optical
    sent = []

    def tracer(sender, dest, payload):
        if sender != fs.name or not isinstance(payload, Request):
            return
        if payload.params.get("swaps"):
            for disk in (hybrid.optical_pair.disk_a, hybrid.optical_pair.disk_b):
                assert all(disk.holds(b) for b in optical)
        sent.append(
            (dest, payload.command, len(payload.params["writes"]),
             len(payload.params["swaps"]))
        )

    hybrid.network.tracer = tracer
    fs.commit(handle.version)
    hybrid.network.tracer = None
    assert sent == [
        ("optA", "write_many", len(optical), 0),
        ("shard0A", "write_many", 1, 1),
    ]
    assert fs.read_page(fs.current_version(cap), PagePath.of(1)) == b"new data page"


def test_swap_on_an_optical_block_is_refused(fs):
    block = fs.store.blocks.allocate_optical()
    with pytest.raises(ValueError):
        fs.store.blocks.write_many([], [(block, 0, b"\x00", b"\x01")])
