"""The optimistic commit protocol and the serialise/merge walk (§5.2)."""

import pytest

from repro.errors import BlockError, CommitConflict
from repro.core.occ import collect_write_paths, serialise
from repro.core.pathname import PagePath

ROOT = PagePath.ROOT


@pytest.fixture
def wide_file(fs):
    """A file with six top-level children holding distinct data."""
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    for i in range(6):
        fs.append_page(handle.version, ROOT, b"child%d" % i)
    fs.commit(handle.version)
    return cap


def _two_versions(fs, cap):
    return fs.create_version(cap), fs.create_version(cap)


# ---------------------------------------------------------------------------
# condition 1: base still current
# ---------------------------------------------------------------------------


def test_sequential_commits_always_succeed(fs, wide_file):
    """"As long as updates are done one after the other, commit always
    succeeds and requires virtually no processing at all."""
    for round_ in range(5):
        handle = fs.create_version(wide_file)
        fs.write_page(handle.version, PagePath.of(0), b"round%d" % round_)
        fs.commit(handle.version)
    current = fs.current_version(wide_file)
    assert fs.read_page(current, PagePath.of(0)) == b"round4"


def test_fast_path_does_no_tree_walk(fs, wide_file, cluster):
    """A commit whose base is current is one test-and-set: no page of the
    version's tree is read by validation."""
    handle = fs.create_version(wide_file)
    fs.write_page(handle.version, PagePath.of(3), b"x")
    disk = cluster.pair.disk_a
    fs.store.flush()
    reads_before = disk.stats.reads
    fs.commit(handle.version)
    # The TAS reads the base version page (and rewrites it); nothing else.
    assert disk.stats.reads - reads_before <= 2


# ---------------------------------------------------------------------------
# condition 2: merge of non-conflicting concurrent updates
# ---------------------------------------------------------------------------


def test_disjoint_writes_merge(fs, wide_file):
    va, vb = _two_versions(fs, wide_file)
    fs.write_page(va.version, PagePath.of(0), b"A0")
    fs.write_page(vb.version, PagePath.of(3), b"B3")
    fs.commit(va.version)
    fs.commit(vb.version)  # serialises after va, merging va's write
    current = fs.current_version(wide_file)
    assert fs.read_page(current, PagePath.of(0)) == b"A0"
    assert fs.read_page(current, PagePath.of(3)) == b"B3"
    assert fs.read_page(current, PagePath.of(1)) == b"child1"


def test_read_write_conflict_aborts_second(fs, wide_file):
    va, vb = _two_versions(fs, wide_file)
    fs.read_page(vb.version, PagePath.of(0))  # vb reads what va writes
    fs.write_page(va.version, PagePath.of(0), b"A0")
    fs.write_page(vb.version, PagePath.of(1), b"B1")
    fs.commit(va.version)
    with pytest.raises(CommitConflict):
        fs.commit(vb.version)
    # vb's update vanished; va's survived.
    current = fs.current_version(wide_file)
    assert fs.read_page(current, PagePath.of(0)) == b"A0"
    assert fs.read_page(current, PagePath.of(1)) == b"child1"


def test_write_read_is_not_a_conflict(fs, wide_file):
    """vb wrote what va read: va committed FIRST, so va's read saw the
    state before vb — serial order va, vb is valid."""
    va, vb = _two_versions(fs, wide_file)
    fs.read_page(va.version, PagePath.of(0))
    fs.write_page(va.version, PagePath.of(1), b"A1")
    fs.write_page(vb.version, PagePath.of(0), b"B0")
    fs.commit(va.version)
    fs.commit(vb.version)
    current = fs.current_version(wide_file)
    assert fs.read_page(current, PagePath.of(0)) == b"B0"
    assert fs.read_page(current, PagePath.of(1)) == b"A1"


def test_blind_write_write_last_committer_wins(fs, wide_file):
    va, vb = _two_versions(fs, wide_file)
    fs.write_page(va.version, PagePath.of(2), b"A2")
    fs.write_page(vb.version, PagePath.of(2), b"B2")
    fs.commit(va.version)
    fs.commit(vb.version)
    current = fs.current_version(wide_file)
    assert fs.read_page(current, PagePath.of(2)) == b"B2"


def test_read_your_own_write_then_conflict(fs, wide_file):
    """Reading your own written page does not create a false conflict,
    but reading a page another update wrote does."""
    va, vb = _two_versions(fs, wide_file)
    fs.write_page(vb.version, PagePath.of(4), b"B4")
    assert fs.read_page(vb.version, PagePath.of(4)) == b"B4"
    fs.write_page(va.version, PagePath.of(5), b"A5")
    fs.commit(va.version)
    fs.commit(vb.version)  # no overlap at all: fine
    assert fs.read_page(fs.current_version(wide_file), PagePath.of(4)) == b"B4"


def test_structural_vs_search_conflict(fs, wide_file):
    """V.c modified references that V.b searched: S against M."""
    va, vb = _two_versions(fs, wide_file)
    fs.append_page(va.version, ROOT, b"new")  # M on root
    fs.read_page(vb.version, PagePath.of(1))  # S on root
    fs.commit(va.version)
    with pytest.raises(CommitConflict):
        fs.commit(vb.version)


def test_structural_change_vs_blind_root_write_ok(fs, wide_file):
    """V.c restructured the root's table; V.b only wrote root data —
    different channels, no conflict."""
    va, vb = _two_versions(fs, wide_file)
    fs.append_page(va.version, ROOT, b"new")  # M on root refs
    fs.write_page(vb.version, ROOT, b"newrootdata")  # W on root data
    fs.commit(va.version)
    fs.commit(vb.version)
    current = fs.current_version(wide_file)
    assert fs.read_page(current, ROOT) == b"newrootdata"
    # va's structural addition survived the merge.
    assert fs.read_page(current, PagePath.of(6)) == b"new"


def test_three_way_chain_of_merges(fs, wide_file):
    """Three concurrent disjoint updates all commit; the last validates
    against each intervening version in turn."""
    v1 = fs.create_version(wide_file)
    v2 = fs.create_version(wide_file)
    v3 = fs.create_version(wide_file)
    fs.write_page(v1.version, PagePath.of(0), b"one")
    fs.write_page(v2.version, PagePath.of(1), b"two")
    fs.write_page(v3.version, PagePath.of(2), b"three")
    fs.commit(v1.version)
    fs.commit(v2.version)
    fs.commit(v3.version)
    current = fs.current_version(wide_file)
    assert fs.read_page(current, PagePath.of(0)) == b"one"
    assert fs.read_page(current, PagePath.of(1)) == b"two"
    assert fs.read_page(current, PagePath.of(2)) == b"three"


def test_conflict_only_with_relevant_intermediate(fs, wide_file):
    """An update conflicts with one of several intermediates and aborts,
    even though it is compatible with the others."""
    v1 = fs.create_version(wide_file)
    v2 = fs.create_version(wide_file)
    fs.read_page(v2.version, PagePath.of(0))
    fs.write_page(v2.version, PagePath.of(1), b"mine")
    fs.write_page(v1.version, PagePath.of(0), b"clash")  # hits v2's read
    fs.commit(v1.version)
    with pytest.raises(CommitConflict):
        fs.commit(v2.version)


def test_deep_disjoint_merge(fs):
    """Disjoint updates below a shared interior page merge within it."""
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    mid = fs.append_page(handle.version, ROOT, b"mid")
    left = fs.append_page(handle.version, mid, b"left")
    right = fs.append_page(handle.version, mid, b"right")
    fs.commit(handle.version)
    va, vb = _two_versions(fs, cap)
    fs.write_page(va.version, left, b"LEFT")
    fs.write_page(vb.version, right, b"RIGHT")
    fs.commit(va.version)
    fs.commit(vb.version)
    current = fs.current_version(cap)
    assert fs.read_page(current, left) == b"LEFT"
    assert fs.read_page(current, right) == b"RIGHT"
    assert fs.read_page(current, mid) == b"mid"


def test_restructured_table_merges_by_base_block(fs, wide_file):
    """V.b restructured a table (M) while V.c wrote below it: children are
    correlated through base references, so the deep write still lands."""
    va, vb = _two_versions(fs, wide_file)
    fs.write_page(va.version, PagePath.of(3), b"deep-write")
    # vb removes child 0: children shift left; index alignment is lost.
    fs.remove_page(vb.version, PagePath.of(0))
    fs.commit(va.version)
    fs.commit(vb.version)
    current = fs.current_version(wide_file)
    # After the removal, old child 3 sits at index 2 — with va's write.
    assert fs.read_page(current, PagePath.of(2)) == b"deep-write"
    assert fs.page_structure(current, ROOT) == [1] * 5


@pytest.mark.parametrize("merge", [True, False], ids=["merge-on", "merge-off"])
def test_restructured_table_matches_children_through_base_ref(fs, wide_file, merge):
    """§5.2's restructured merge, walked directly.  V.b inserted a page at
    the front of the root's table (M) and punched a hole in it, so its
    children no longer line up by index with V.c's; V.c only descended
    (S).  Each of V.b's children is matched to V.c's through the block it
    was copied from: a child both wrote merges (V.b's blind write stands),
    a child only V.c wrote is grafted, and V.b's new page, its hole and a
    child V.c never copied have no counterpart.  With merging off the walk
    only tests, and V.b's tree is left as it was."""
    va, vb = _two_versions(fs, wide_file)
    fs.write_page(va.version, PagePath.of(1), b"A1")
    fs.write_page(va.version, PagePath.of(2), b"A2")
    fs.insert_page(vb.version, ROOT, 0, b"inserted")
    fs.write_page(vb.version, PagePath.of(2), b"B1")  # old child 1
    fs.read_page(vb.version, PagePath.of(5))  # old child 4: V.c never copied it
    fs.make_hole(vb.version, PagePath.of(6))  # old child 5
    fs.commit(va.version)
    a_root = fs.registry.version(va.version.obj).root_block
    b_root = fs.registry.version(vb.version.obj).root_block
    fs.store.flush()
    outcome = serialise(fs.store, b_root, a_root, merge=merge)
    assert outcome.ok
    # Both roots and the one child both versions copied.
    assert outcome.pages_visited == 2
    assert outcome.grafts == (1 if merge else 0)
    if not merge:
        assert fs.read_page(vb.version, PagePath.of(3)) == b"child2"
        fs.abort(vb.version)
        return
    fs.commit(vb.version)
    current = fs.current_version(wide_file)
    data = [fs.read_page(current, PagePath.of(i)) for i in range(6)]
    assert data == [b"inserted", b"child0", b"B1", b"A2", b"child3", b"child4"]
    assert fs.page_structure(current, ROOT) == [1] * 6 + [0]


def test_restructured_merge_without_its_base_page_conflicts(fs, wide_file, monkeypatch):
    """Children of a restructured table are matched through V.c's base
    page; if that page cannot be read (its history pruned), the walk
    conflicts rather than guess — aborting V.b is always safe."""
    va, vb = _two_versions(fs, wide_file)
    fs.write_page(va.version, PagePath.of(1), b"A1")
    fs.insert_page(vb.version, ROOT, 0, b"inserted")
    fs.commit(va.version)
    a_root = fs.registry.version(va.version.obj).root_block
    b_root = fs.registry.version(vb.version.obj).root_block
    fs.store.flush()
    base, load = fs.store.load(a_root).base_ref, fs.store.load

    def pruned(block, **kwargs):
        if block == base:
            raise BlockError(f"block {block} was collected")
        return load(block, **kwargs)

    monkeypatch.setattr(fs.store, "load", pruned)
    outcome = serialise(fs.store, b_root, a_root)
    assert not outcome.ok and outcome.conflict_path == ROOT
    assert "base page unavailable" in outcome.reason
    monkeypatch.undo()
    fs.abort(vb.version)


def test_removed_subtree_drops_concurrent_write(fs, wide_file):
    """V.b removed the page V.c wrote (without reading it): serial order
    c-then-b means the removal wins."""
    va, vb = _two_versions(fs, wide_file)
    fs.write_page(va.version, PagePath.of(2), b"doomed")
    fs.remove_page(vb.version, PagePath.of(2))
    fs.commit(va.version)
    fs.commit(vb.version)
    current = fs.current_version(wide_file)
    assert fs.page_structure(current, ROOT) == [1] * 5
    data = [
        fs.read_page(current, PagePath.of(i)) for i in range(5)
    ]
    assert b"doomed" not in data


# ---------------------------------------------------------------------------
# the serialise routine in isolation
# ---------------------------------------------------------------------------


def test_serialise_skips_unaccessed_subtrees(fs, wide_file):
    """"Unvisited branches in either page tree are not descended."""
    va, vb = _two_versions(fs, wide_file)
    fs.write_page(va.version, PagePath.of(0), b"A")
    fs.write_page(vb.version, PagePath.of(5), b"B")
    fs.commit(va.version)
    a_entry = fs.registry.version(va.version.obj)
    b_entry = fs.registry.version(vb.version.obj)
    fs.store.flush()
    outcome = serialise(fs.store, b_entry.root_block, a_entry.root_block)
    assert outcome.ok
    # Only the two roots (and the one grafted step) are visited — not the
    # six children.
    assert outcome.pages_visited <= 2
    fs.abort(vb.version)


def test_serialise_reports_conflict_path(fs, wide_file):
    va, vb = _two_versions(fs, wide_file)
    fs.read_page(vb.version, PagePath.of(1))
    fs.write_page(va.version, PagePath.of(1), b"A")
    fs.commit(va.version)
    a_entry = fs.registry.version(va.version.obj)
    b_entry = fs.registry.version(vb.version.obj)
    fs.store.flush()
    outcome = serialise(fs.store, b_entry.root_block, a_entry.root_block)
    assert not outcome.ok
    assert outcome.conflict_path == PagePath.of(1)
    fs.abort(vb.version)


def test_collect_write_paths(fs, wide_file):
    handle = fs.create_version(wide_file)
    fs.write_page(handle.version, PagePath.of(2), b"w")
    fs.read_page(handle.version, PagePath.of(4))
    fs.commit(handle.version)
    entry = fs.registry.version(handle.version.obj)
    result = collect_write_paths(fs.store, entry.root_block)
    assert result.paths == [PagePath.of(2)]


def test_collect_write_paths_m_covers_subtree(fs, wide_file):
    handle = fs.create_version(wide_file)
    fs.append_page(handle.version, PagePath.of(1), b"kid")
    fs.commit(handle.version)
    entry = fs.registry.version(handle.version.obj)
    result = collect_write_paths(fs.store, entry.root_block)
    assert PagePath.of(1) in result.paths


# ---------------------------------------------------------------------------
# merge safety: mismatched reference tables
# ---------------------------------------------------------------------------


def test_merge_refuses_mismatched_unrestructured_tables():
    """Unrestructured tables of different lengths cannot be correlated by
    index; zipping would silently truncate the walk to the shorter table
    and skip conflict checks.  The merge must conflict instead."""
    from repro.core.occ import SerialiseResult, _Conflict, _merge_aligned
    from repro.core.page import Page, PageRef

    b_page = Page(refs=[PageRef(2), PageRef(3)])
    c_page = Page(refs=[PageRef(2)])
    with pytest.raises(_Conflict):
        _merge_aligned(None, b_page, c_page, ROOT, SerialiseResult(ok=True), True)


def test_merge_accepts_equal_length_tables():
    from repro.core.occ import SerialiseResult, _merge_aligned
    from repro.core.page import Page, PageRef

    b_page = Page(refs=[PageRef(2)])
    c_page = Page(refs=[PageRef(4)])  # V.c shares the base subtree (no C)
    changed = _merge_aligned(
        None, b_page, c_page, ROOT, SerialiseResult(ok=True), True
    )
    assert changed is False
