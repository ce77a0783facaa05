"""The file table names a file's current version while none is open.

An uncached ``read_current`` then takes the table's name instead of
chasing commit references through stable storage.  Every rule that could
make the name wrong clears it, and the next read chases; a later
publication with nothing else open names the current version again.
"""

import pytest

from repro.core.page import Page
from repro.core.pathname import PagePath
from repro.core.system_tree import SystemTree
from repro.obs import Recorder
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


@pytest.fixture
def deployment():
    return build_cluster(servers=2, seed=7, recorder=Recorder())


def _read(cluster, fs, cap, path=ROOT):
    """One uncached read through ``fs``: its data, and whether the file
    table named the version (``"trusted"``) or a chase found it
    (``"chased"``)."""
    counters = cluster.recorder.metrics
    before = {
        how: counters.counter("cache.current." + how).value
        for how in ("trusted", "chased")
    }
    data, _, _, _ = fs.read_current(cap, path)
    [how] = [
        how
        for how, value in before.items()
        if counters.counter("cache.current." + how).value > value
    ]
    return data, how


def _commit(fs, cap, data, path=ROOT):
    handle = fs.create_version(cap)
    fs.write_page(handle.version, path, data)
    fs.commit(handle.version)


def test_a_read_with_no_version_open_asks_no_storage(deployment):
    fs = deployment.fs(0)
    cap = fs.create_file(b"v1")
    before = deployment.network.stats.messages
    assert _read(deployment, fs, cap) == (b"v1", "trusted")
    assert deployment.network.stats.messages == before
    _commit(fs, cap, b"v2")
    assert _read(deployment, fs, cap) == (b"v2", "trusted")


def test_an_open_version_and_its_abort_make_reads_chase(deployment):
    fs = deployment.fs(0)
    cap = fs.create_file(b"v1")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"never")
    assert _read(deployment, fs, cap) == (b"v1", "chased")
    fs.abort(handle.version)
    assert deployment.registry.file(cap.obj).current is None
    assert _read(deployment, fs, cap) == (b"v1", "chased")
    _commit(fs, cap, b"v2")
    assert _read(deployment, fs, cap) == (b"v2", "trusted")


def test_a_grouped_chain_on_one_file_leaves_no_name(deployment):
    fs = deployment.fs(0)
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    paths = [fs.append_page(setup.version, ROOT, b"init") for _ in range(2)]
    fs.commit(setup.version)
    handles = [fs.create_version(cap) for _ in paths]
    for handle, path in zip(handles, paths):
        fs.write_page(handle.version, path, b"grouped")
    outcomes = fs.commit_group([handle.version for handle in handles])
    assert set(outcomes.values()) == {"committed"}
    assert _read(deployment, fs, cap, paths[1]) == (b"grouped", "chased")
    _commit(fs, cap, b"single", paths[0])
    assert _read(deployment, fs, cap, paths[0]) == (b"single", "trusted")


def test_a_version_published_after_another_began_and_committed_leaves_no_name(
    deployment,
):
    """Two overlapping updates: the first publication sees the second
    open, and the second sees the epoch moved since it began."""
    fs = deployment.fs(0)
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    paths = [fs.append_page(setup.version, ROOT, b"init") for _ in range(2)]
    fs.commit(setup.version)
    first, second = fs.create_version(cap), fs.create_version(cap)
    fs.write_page(first.version, paths[0], b"first")
    fs.write_page(second.version, paths[1], b"second")
    fs.commit(first.version)
    assert deployment.registry.file(cap.obj).current is None
    fs.commit(second.version)
    assert deployment.registry.file(cap.obj).current is None
    assert _read(deployment, fs, cap, paths[0]) == (b"first", "chased")
    assert _read(deployment, fs, cap, paths[1]) == (b"second", "chased")


def test_a_registry_restore_leaves_no_name_until_the_epoch_is_known(deployment):
    fs = deployment.fs(0)
    cap = fs.create_file(b"v1")
    table = fs.checkpoint_registry()
    fs.crash()
    fs.restart()
    fs.restore_registry(table)
    entry = deployment.registry.file(cap.obj)
    assert (entry.open, entry.current) == ({}, None)
    assert _read(deployment, fs, cap) == (b"v1", "chased")
    _commit(fs, cap, b"v2")  # began while the epoch was unknown
    assert _read(deployment, fs, cap) == (b"v2", "chased")
    _commit(fs, cap, b"v3")
    assert _read(deployment, fs, cap) == (b"v3", "trusted")


def test_an_open_version_on_a_crashed_server_makes_reads_chase(deployment):
    fs0, fs1 = deployment.fs(0), deployment.fs(1)
    cap = fs0.create_file(b"v1")
    fs0.create_version(cap)
    fs0.crash()
    assert _read(deployment, fs1, cap) == (b"v1", "chased")
    assert SystemTree(fs1).wait_or_recover(cap) == "cleared"
    assert deployment.registry.file(cap.obj).open == {}
    assert _read(deployment, fs1, cap) == (b"v1", "chased")
    _commit(fs1, cap, b"v2")
    assert _read(deployment, fs1, cap) == (b"v2", "trusted")


def test_another_servers_open_version_is_never_cached_half_written(deployment):
    """A commit flushes every dirty page of its server, so an open
    version's half-written root reaches disk when fs1 commits another
    file.  The collector, the family tree and fsck on fs0 all read that
    root; none may keep the copy, or once the version is published fs0
    would take it for the final page."""
    from repro.tools.check import check_cluster

    fs0, fs1 = deployment.fs(0), deployment.fs(1)
    cap = fs1.create_file(b"v1")
    other = fs1.create_file(b"other")
    handle = fs1.create_version(cap)
    fs1.write_page(handle.version, ROOT, b"half")
    _commit(fs1, other, b"flushes the half-written root")
    deployment.gc(0).collect()
    fs0.family_tree(cap)
    assert check_cluster(deployment).ok
    fs1.write_page(handle.version, ROOT, b"final")
    fs1.commit(handle.version)
    assert _read(deployment, fs0, cap) == (b"final", "chased")
    assert _read(deployment, fs0, cap) == (b"final", "trusted")


def test_a_cached_copy_of_another_page_under_the_named_block_is_not_trusted(
    deployment,
):
    """The name is a block and a version: a server whose cache holds some
    other page under that block number — a reused number — chases."""
    fs = deployment.fs(0)
    cap = fs.create_file(b"mine")
    other = fs.create_file(b"other")
    block = deployment.registry.file(cap.obj).entry_block
    other_block = deployment.registry.file(other.obj).entry_block
    stranger = Page.from_bytes(fs.store.blocks.read(other_block))
    fs.store.cache.put(block, stranger)
    assert _read(deployment, fs, cap) == (b"mine", "chased")
    assert _read(deployment, fs, cap) == (b"mine", "trusted")
