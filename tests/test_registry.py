"""The file table (registry): lookups, persistence, restoration."""

import pytest

from repro.errors import NoSuchFile, NoSuchVersion
from repro.core.pathname import PagePath
from repro.core.registry import FileEntry, FileRegistry, VersionEntry


@pytest.fixture
def registry():
    reg = FileRegistry()
    reg.add_file(FileEntry(1, entry_block=10, secret=111))
    reg.add_file(FileEntry(2, entry_block=20, secret=222, is_super=True, parent_obj=0))
    reg.add_version(VersionEntry(3, file_obj=1, root_block=10, secret=333, status="committed"))
    reg.add_version(VersionEntry(4, file_obj=1, root_block=40, secret=444))
    return reg


def test_lookup(registry):
    assert registry.file(1).entry_block == 10
    assert registry.version(4).root_block == 40


def test_missing_lookups_raise(registry):
    with pytest.raises(NoSuchFile):
        registry.file(99)
    with pytest.raises(NoSuchVersion):
        registry.version(99)


def test_drop_file_cascades_to_versions(registry):
    registry.drop_file(1)
    with pytest.raises(NoSuchFile):
        registry.file(1)
    with pytest.raises(NoSuchVersion):
        registry.version(4)


def test_version_by_block(registry):
    assert registry.version_by_block(40).obj == 4
    assert registry.version_by_block(999) is None


def test_live_version_roots_excludes_aborted(registry):
    registry.version(4).status = "aborted"
    assert registry.live_version_roots() == {10}


def test_serialize_roundtrip(registry):
    raw = registry.serialize()
    back = FileRegistry.deserialize(raw)
    assert set(back.files) == {1, 2}
    assert back.file(2).is_super
    assert back.file(1).secret == 111
    # Versions are deliberately not persisted.
    assert back.versions == {}


def test_deserialize_rejects_garbage():
    with pytest.raises(Exception):
        FileRegistry.deserialize(b"NOPE" + b"\x00" * 16)


def test_restore_from_adopts_files(registry):
    raw = registry.serialize()
    fresh = FileRegistry()
    fresh.restore_from(FileRegistry.deserialize(raw))
    assert fresh.file(1).entry_block == 10


class _Unscannable(dict):
    """A version table that fails any walk over its entries."""

    def _walk(self, *args):
        raise AssertionError("the version table was scanned")

    values = items = keys = __iter__ = _walk


def _big_table(size: int = 10_000) -> FileRegistry:
    """A table that has seen ``size`` versions of 100 files."""
    reg = FileRegistry()
    for obj in range(1, 101):
        reg.add_file(FileEntry(obj, entry_block=obj, secret=obj))
    for i in range(size):
        reg.add_version(
            VersionEntry(1000 + i, file_obj=1 + i % 100, root_block=1000 + i,
                         secret=i, status="committed", server="fs1")
        )
    reg.versions = _Unscannable(reg.versions)
    return reg


def test_version_by_block_never_walks_the_version_table():
    reg = _big_table()
    assert reg.version_by_block(1000 + 9_999).obj == 1000 + 9_999
    assert reg.version_by_block(1000).obj == 1000
    assert reg.version_by_block(5) is None


def test_validation_delegate_never_walks_the_version_table():
    from repro.testbed import build_cluster

    cluster = build_cluster(servers=2, seed=3)
    fs0, fs1 = cluster.fs(0), cluster.fs(1)
    cap = fs1.create_file(b"x")
    handle = fs1.create_version(cap)
    fs1.write_page(handle.version, PagePath.ROOT, b"y")
    fs1.commit(handle.version)
    reg = cluster.registry
    for i in range(10_000):
        reg.add_version(
            VersionEntry(10**6 + i, file_obj=cap.obj, root_block=10**6 + i,
                         secret=i, status="aborted", server="fs1")
        )
    reg.versions = _Unscannable(reg.versions)
    entry = reg.file(cap.obj)
    # fs1 committed the version at the entry block; fs0's flag cache is
    # cold for it, so fs0 delegates, and fs1 answers itself.
    assert fs0._validation_delegate(entry) == "fs1"
    assert fs1._validation_delegate(entry) is None


def test_a_block_reused_after_an_abort_answers_the_live_version(registry):
    registry.version(4).status = "aborted"
    assert registry.version_by_block(40) is None
    registry.add_version(VersionEntry(5, file_obj=1, root_block=40, secret=555))
    assert registry.version_by_block(40).obj == 5
    # Dropping the tombstone leaves the live version named.
    registry.drop_version(4)
    assert registry.version_by_block(40).obj == 5
    registry.drop_version(5)
    assert registry.version_by_block(40) is None
    # A dropped file takes its versions out of the index too.
    registry.drop_file(1)
    assert registry.version_by_block(10) is None
