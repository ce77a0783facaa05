"""Edge cases across the service surface: limits, deep trees, RPC forms,
rights restriction end-to-end, file deletion."""

import pytest

from repro.capability import RIGHT_READ, RIGHT_CREATE, RIGHT_COMMIT, RIGHT_WRITE
from repro.errors import (
    InsufficientRights,
    PageTooLarge,
    ReferenceTableFull,
)
from repro.core.page import PAGE_BODY_SIZE, REF_SIZE
from repro.core.pathname import PagePath
from repro.client.api import FileClient

ROOT = PagePath.ROOT


def test_page_at_exact_size_limit(fs):
    cap = fs.create_file(b"")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"x" * PAGE_BODY_SIZE)
    fs.commit(handle.version)
    data = fs.read_page(fs.current_version(cap), ROOT)
    assert len(data) == PAGE_BODY_SIZE


def test_data_and_refs_compete_for_space(fs):
    cap = fs.create_file(b"")
    handle = fs.create_version(cap)
    fs.append_page(handle.version, ROOT, b"child")
    limit = PAGE_BODY_SIZE - REF_SIZE  # one reference's worth is taken
    fs.write_page(handle.version, ROOT, b"x" * limit)
    with pytest.raises(PageTooLarge):
        fs.write_page(handle.version, ROOT, b"x" * (limit + 1))
    fs.abort(handle.version)


def test_reference_table_capacity(fs):
    cap = fs.create_file(b"")
    handle = fs.create_version(cap)
    # Fill the root with data leaving room for exactly 3 references.
    fs.write_page(handle.version, ROOT, b"d" * (PAGE_BODY_SIZE - 3 * REF_SIZE))
    for _ in range(3):
        fs.append_page(handle.version, ROOT, b"c")
    with pytest.raises(ReferenceTableFull):
        fs.append_page(handle.version, ROOT, b"one too many")
    fs.abort(handle.version)


def test_deep_tree(fs):
    cap = fs.create_file(b"level0")
    handle = fs.create_version(cap)
    path = ROOT
    for level in range(1, 12):
        path = fs.append_page(handle.version, path, b"level%d" % level)
    fs.commit(handle.version)
    current = fs.current_version(cap)
    assert path.depth == 11
    assert fs.read_page(current, path) == b"level11"
    # An update deep in the tree shadows the whole spine but nothing else.
    handle2 = fs.create_version(cap)
    fs.write_page(handle2.version, path, b"rewritten")
    fs.commit(handle2.version)
    assert fs.read_page(fs.current_version(cap), path) == b"rewritten"


def test_restricted_capability_through_rpc(cluster):
    """A read-only capability handed to another client really is
    read-only, across the network."""
    owner = FileClient(cluster.network, "owner", cluster.service_port)
    reader = FileClient(cluster.network, "reader", cluster.service_port)
    cap = owner.create_file(b"secret")
    read_only = cluster.issuer.restrict(cap, RIGHT_READ)
    assert reader.read(read_only) == b"secret"
    with pytest.raises(InsufficientRights):
        reader.begin(read_only)


def test_commit_right_separate_from_write(cluster, fs):
    cap = fs.create_file(b"x")
    no_commit = cluster.issuer.restrict(
        cap, RIGHT_READ | RIGHT_CREATE | RIGHT_WRITE
    )
    handle = fs.create_version(no_commit)
    fs.write_page(handle.version, ROOT, b"y")
    with pytest.raises(InsufficientRights):
        fs.commit(cluster.issuer.restrict(handle.version, RIGHT_WRITE))
    fs.commit(handle.version)  # the full version cap carries COMMIT


def test_rpc_tree_commands_roundtrip(cluster):
    """The string-path RPC forms of the tree commands."""
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"root")
    update = client.begin(cap)
    raw = client._call
    a = raw("append_page", version_cap=update.version, parent_path="", data=b"a")
    assert a == "0"
    raw("insert_page", version_cap=update.version, parent_path="", index=0, data=b"z")
    assert raw("page_structure", version_cap=update.version, path="") == [1, 1]
    raw("make_hole", version_cap=update.version, path="0")
    raw("fill_hole", version_cap=update.version, path="0", data=b"z2")
    sibling = raw("split_page", version_cap=update.version, path="0", at=1)
    assert sibling == "1"
    moved = raw(
        "move_subtree", version_cap=update.version, src="2", dst_parent="", dst_index=0
    )
    assert moved == "0"
    raw("remove_page", version_cap=update.version, path="0")
    update.commit()
    tree = raw("family_tree", file_cap=cap)
    assert len(tree["committed"]) == 2


def test_many_independent_files(fs):
    caps = [fs.create_file(b"f%d" % i) for i in range(25)]
    for i, cap in enumerate(caps):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"updated%d" % i)
        fs.commit(handle.version)
    for i, cap in enumerate(caps):
        assert fs.read_page(fs.current_version(cap), ROOT) == b"updated%d" % i


def test_delete_file_blocks_reclaimed(cluster, fs):
    cap = fs.create_file(b"doomed")
    handle = fs.create_version(cap)
    for i in range(4):
        fs.append_page(handle.version, ROOT, b"p%d" % i)
    fs.commit(handle.version)
    allocated_before = len(fs.store.blocks.recover())
    fs.delete_file(cap)
    cluster.gc().collect()
    assert len(fs.store.blocks.recover()) < allocated_before


def test_interleaved_reads_and_writes_same_update(fs):
    cap = fs.create_file(b"v0")
    handle = fs.create_version(cap)
    child = fs.append_page(handle.version, ROOT, b"c0")
    assert fs.read_page(handle.version, child) == b"c0"
    fs.write_page(handle.version, child, b"c1")
    assert fs.read_page(handle.version, child) == b"c1"
    fs.write_page(handle.version, child, b"c2")
    fs.commit(handle.version)
    assert fs.read_page(fs.current_version(cap), child) == b"c2"


def test_empty_write_and_empty_file(fs):
    cap = fs.create_file(b"")
    assert fs.read_page(fs.current_version(cap), ROOT) == b""
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"")
    fs.commit(handle.version)
    assert fs.read_page(fs.current_version(cap), ROOT) == b""


def test_version_caps_of_old_versions_survive_many_commits(fs):
    cap = fs.create_file(b"r0")
    old_caps = [fs.current_version(cap)]
    for n in range(1, 8):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"r%d" % n)
        fs.commit(handle.version)
        old_caps.append(fs.current_version(cap))
    for n, version in enumerate(old_caps):
        assert fs.read_page(version, ROOT) == b"r%d" % n


# -- the version table under lock-free reads ---------------------------------


def test_family_tree_survives_a_version_added_mid_walk(fs, monkeypatch):
    """The TCP daemon runs ``family_tree`` (and ``committed_versions``)
    without its dispatch lock, while a lock-free read can mint a version
    entry and a locked ``create_version`` can add one: the walk over the
    version table must not fail with "dictionary changed size"."""
    cap = fs.create_file(b"root")
    fs.create_version(cap)
    fs.create_version(cap)
    real_peek = fs.store.peek
    added = []

    def peek(block):
        if not added:  # the walk over uncommitted versions
            added.append(block)
            fs.create_version(cap)
        return real_peek(block)

    monkeypatch.setattr(fs.store, "peek", peek)
    tree = fs.family_tree(cap)
    assert added
    assert len(tree["uncommitted"]) == 2  # the versions present when it began


def test_lazily_minted_version_never_reuses_a_minted_number(fs):
    """After a registry restore a read mints the current version's entry
    lazily.  ``create_version`` mints its number before it registers the
    version, so a read in between must not draw the same number — nor,
    with it, that version's secret."""
    cap = fs.create_file(b"root")
    fs.restore_registry(fs.checkpoint_registry())
    minted = fs.issuer.mint()
    current = fs.current_version(cap)
    assert current.obj != minted.obj
    assert fs.registry.version(current.obj).file_obj == cap.obj
