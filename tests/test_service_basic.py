"""The file service: files, versions, page I/O, commit, abort, rights."""

import pytest

from repro.capability import Capability, RIGHT_READ
from repro.errors import (
    BadCapability,
    BadPathName,
    HoleReference,
    InsufficientRights,
    NoSuchFile,
    PageTooLarge,
    VersionAborted,
    VersionCommitted,
)
from repro.core.page import PAGE_BODY_SIZE
from repro.core.pathname import PagePath

ROOT = PagePath.ROOT


def test_create_file_and_read_current(fs):
    cap = fs.create_file(b"genesis")
    current = fs.current_version(cap)
    assert fs.read_page(current, ROOT) == b"genesis"


def test_version_behaves_like_a_copy(fs):
    cap = fs.create_file(b"original")
    handle = fs.create_version(cap)
    assert fs.read_page(handle.version, ROOT) == b"original"
    fs.write_page(handle.version, ROOT, b"changed")
    # The current version is unaffected until commit.
    assert fs.read_page(fs.current_version(cap), ROOT) == b"original"
    fs.commit(handle.version)
    assert fs.read_page(fs.current_version(cap), ROOT) == b"changed"


def test_committed_versions_are_immutable_snapshots(fs):
    cap = fs.create_file(b"v1")
    old = fs.current_version(cap)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"v2")
    fs.commit(handle.version)
    assert fs.read_page(old, ROOT) == b"v1"
    with pytest.raises(VersionCommitted):
        fs.write_page(handle.version, ROOT, b"v3")


def test_abort_discards_changes(fs):
    cap = fs.create_file(b"keep")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"discard")
    fs.abort(handle.version)
    assert fs.read_page(fs.current_version(cap), ROOT) == b"keep"
    with pytest.raises(VersionAborted):
        fs.read_page(handle.version, ROOT)


def test_commit_after_abort_rejected(fs):
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.abort(handle.version)
    with pytest.raises(VersionAborted):
        fs.commit(handle.version)


def test_double_commit_rejected(fs):
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.commit(handle.version)
    with pytest.raises(VersionCommitted):
        fs.commit(handle.version)


def test_deep_tree_navigation(fs):
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    child = fs.append_page(handle.version, ROOT, b"level1")
    grandchild = fs.append_page(handle.version, child, b"level2")
    fs.commit(handle.version)
    current = fs.current_version(cap)
    assert fs.read_page(current, child) == b"level1"
    assert fs.read_page(current, grandchild) == b"level2"
    assert grandchild == PagePath.of(0, 0)


def test_bad_path_errors(fs):
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    with pytest.raises(BadPathName):
        fs.read_page(handle.version, PagePath.of(0))
    fs.append_page(handle.version, ROOT, b"c")
    with pytest.raises(BadPathName):
        fs.read_page(handle.version, PagePath.of(5))


def test_hole_navigation_raises(fs):
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    path = fs.append_page(handle.version, ROOT, b"c")
    fs.make_hole(handle.version, path)
    with pytest.raises(HoleReference):
        fs.read_page(handle.version, path)


def test_page_size_limit_enforced(fs):
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"y" * PAGE_BODY_SIZE)
    with pytest.raises(PageTooLarge):
        fs.write_page(handle.version, ROOT, b"y" * (PAGE_BODY_SIZE + 1))


def test_page_structure_reports_holes(fs):
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    a = fs.append_page(handle.version, ROOT, b"a")
    fs.append_page(handle.version, ROOT, b"b")
    fs.make_hole(handle.version, a)
    assert fs.page_structure(handle.version, ROOT) == [0, 1]


def test_capability_forgery_rejected(fs):
    cap = fs.create_file(b"x")
    forged = Capability(cap.port, cap.obj, cap.rights, cap.check ^ 1)
    with pytest.raises(BadCapability):
        fs.create_version(forged)


def test_rights_enforced(fs):
    cap = fs.create_file(b"x")
    read_only = fs.issuer.restrict(cap, RIGHT_READ)
    with pytest.raises(InsufficientRights):
        fs.create_version(read_only)
    assert fs.current_version(read_only) is not None


def test_delete_file(fs):
    cap = fs.create_file(b"x")
    fs.delete_file(cap)
    with pytest.raises((NoSuchFile, BadCapability)):
        fs.current_version(cap)


def test_family_tree_shape(fs):
    cap = fs.create_file(b"v1")
    h1 = fs.create_version(cap)
    fs.write_page(h1.version, ROOT, b"v2")
    fs.commit(h1.version)
    pending = fs.create_version(cap)
    tree = fs.family_tree(cap)
    assert len(tree["committed"]) == 2
    assert tree["current"] == tree["committed"][-1]
    assert len(tree["uncommitted"]) == 1
    assert tree["uncommitted"][0]["based_on"] == tree["current"]
    fs.abort(pending.version)


def test_committed_versions_listing(fs):
    cap = fs.create_file(b"r1")
    for n in range(2, 5):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"r%d" % n)
        fs.commit(handle.version)
    versions = fs.committed_versions(cap)
    assert [fs.read_page(v, ROOT) for v in versions] == [b"r1", b"r2", b"r3", b"r4"]


def test_entry_block_advances_lazily(fs, cluster):
    cap = fs.create_file(b"v1")
    entry = cluster.registry.file(cap.obj)
    first_block = entry.entry_block
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"v2")
    fs.commit(handle.version)
    assert entry.entry_block != first_block  # advanced at commit
    # Resolution from a stale entry still works: reset it artificially.
    entry.entry_block = first_block
    assert fs.read_page(fs.current_version(cap), ROOT) == b"v2"
    assert entry.entry_block != first_block  # advanced again


def test_no_small_update_writes_a_durable_top_lock(fs):
    """A small file's top lock is the registry's soft state (§5.3: only a
    hint), never a field on disk — the compiler-temporary path of claim C6
    is the plain update cycle."""
    cap = fs.create_file(b"")
    handle = fs.create_version(cap)
    base = fs.registry.file(cap.obj).entry_block
    assert fs.store.load(base, fresh=True).top_lock == 0
    assert fs.registry.file(cap.obj).open  # the hint, in memory
    fs.write_page(handle.version, ROOT, b"object code")
    fs.commit(handle.version)
    assert fs.read_page(fs.current_version(cap), ROOT) == b"object code"
    assert fs.registry.file(cap.obj).open == {}
