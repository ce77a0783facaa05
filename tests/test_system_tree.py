"""Super-files, sub-files and the §5.3 locking/recovery protocol."""

import pytest

from repro.errors import CrossesSubFile, FileLocked
from repro.core.locks import LockSnapshot
from repro.core.pathname import PagePath
from repro.core.system_tree import SystemTree

ROOT = PagePath.ROOT


@pytest.fixture
def nested(cluster):
    """Figure 2: super-file C containing sub-files A and B."""
    fs = cluster.fs()
    tree = SystemTree(fs)
    cap_c = fs.create_file(b"C root")
    handle = fs.create_version(cap_c)
    cap_a = tree.create_subfile(handle.version, ROOT, initial_data=b"A v1")
    cap_b = tree.create_subfile(handle.version, ROOT, initial_data=b"B v1")
    fs.commit(handle.version)
    return fs, tree, cap_c, cap_a, cap_b


def test_subfiles_are_independent_files(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    handle = fs.create_version(cap_a)
    fs.write_page(handle.version, ROOT, b"A v2")
    fs.commit(handle.version)
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"A v2"
    assert fs.read_page(fs.current_version(cap_b), ROOT) == b"B v1"


def test_parent_marked_super(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    assert fs.registry.file(cap_c.obj).is_super
    assert not fs.registry.file(cap_a.obj).is_super
    assert fs.registry.file(cap_a.obj).parent_obj == cap_c.obj


def test_walk_cannot_cross_subfile_boundary(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    handle = fs.create_version(cap_c)
    with pytest.raises(CrossesSubFile):
        fs.read_page(handle.version, PagePath.of(0))
    fs.abort(handle.version)


def test_subfile_at_resolves_capability(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    current = fs.current_version(cap_c)
    found = tree.subfile_at(current, PagePath.of(0))
    assert found.obj == cap_a.obj


def test_small_update_does_not_touch_super_tree(nested, cluster):
    """A sub-file commit leaves the super-file's page tree untouched —
    resolution chases the sub-file's commit chain instead."""
    fs, tree, cap_c, cap_a, cap_b = nested
    super_entry = cluster.registry.file(cap_c.obj)
    super_block = super_entry.entry_block
    super_raw = cluster.pair.disk_a.read(super_block)
    handle = fs.create_version(cap_a)
    fs.write_page(handle.version, ROOT, b"A v2")
    fs.commit(handle.version)
    assert cluster.pair.disk_a.read(super_block) == super_raw
    # And the new state is reachable through the super-file.
    current = fs.current_version(cap_c)
    sub = tree.subfile_at(current, PagePath.of(0))
    assert fs.read_page(fs.current_version(sub), ROOT) == b"A v2"


def test_super_update_atomic_across_subfiles(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    update = tree.begin_super_update(cap_c)
    ha = tree.open_subfile(update, cap_a)
    hb = tree.open_subfile(update, cap_b)
    assert tree.open_subfile(update, cap_a) is ha  # opened once per update
    fs.write_page(ha.version, ROOT, b"A v2")
    fs.write_page(hb.version, ROOT, b"B v2")
    # Before commit, nothing is visible.
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"A v1"
    tree.commit_super(update)
    tree.commit_super(update)  # a second commit finds the update done
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"A v2"
    assert fs.read_page(fs.current_version(cap_b), ROOT) == b"B v2"


def test_finished_sub_commit_advances_the_entry_block(nested):
    """A sub-file commit is a commit-publication point like any other:
    the file table's entry block must land on the new version, so the next
    commit's optimistic base is current, and the flag administration is
    cached for reads."""
    fs, tree, cap_c, cap_a, cap_b = nested
    update = tree.begin_super_update(cap_c)
    ha = tree.open_subfile(update, cap_a)
    fs.write_page(ha.version, ROOT, b"A v2")
    tree.commit_super(update)
    sub_block = fs.registry.version(ha.version.obj).root_block
    assert fs.registry.file(cap_a.obj).entry_block == sub_block
    assert sub_block in fs._write_paths_cache
    data, current, _, _ = fs.read_current(cap_a, ROOT)
    assert data == b"A v2"
    assert current.obj == ha.version.obj


def test_inner_lock_blocks_small_updates(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    update = tree.begin_super_update(cap_c)
    tree.open_subfile(update, cap_a)
    with pytest.raises(FileLocked):
        fs.create_version(cap_a)
    with pytest.raises(FileLocked):  # even the relaxed rule honours it
        tree.begin_super_update(cap_a, relaxed=True)
    # Sub-file B is not opened: it stays freely updatable.
    hb = fs.create_version(cap_b)
    fs.abort(hb.version)
    tree.abort_super(update)
    # After abort everything is unlocked again.
    ha = fs.create_version(cap_a)
    fs.abort(ha.version)


def test_second_super_update_blocked_by_top_lock(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    update = tree.begin_super_update(cap_c)
    with pytest.raises(FileLocked):
        tree.begin_super_update(cap_c)
    tree.abort_super(update)
    update2 = tree.begin_super_update(cap_c)
    tree.abort_super(update2)


def test_top_lock_of_small_update_delays_super_entry(nested):
    """"If an update, while descending the page tree, discovers a top
    lock, it must wait until the lock is cleared"."""
    fs, tree, cap_c, cap_a, cap_b = nested
    small = fs.create_version(cap_a)  # plants A's top-lock hint
    update = tree.begin_super_update(cap_c)
    with pytest.raises(FileLocked):
        tree.open_subfile(update, cap_a)
    fs.commit(small.version)  # new current with clear locks
    handle = tree.open_subfile(update, cap_a)
    fs.write_page(handle.version, ROOT, b"super says")
    tree.commit_super(update)
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"super says"


def test_abort_super_discards_everything(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    update = tree.begin_super_update(cap_c)
    ha = tree.open_subfile(update, cap_a)
    fs.write_page(ha.version, ROOT, b"junk")
    tree.abort_super(update)
    tree.abort_super(update)  # a second abort finds the update done
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"A v1"


def test_crash_before_commit_waiter_clears(nested, cluster):
    """The holder dies before setting the commit reference: a waiter
    clears the locks and the update never happened."""
    fs, tree, cap_c, cap_a, cap_b = nested
    update = tree.begin_super_update(cap_c)
    ha = tree.open_subfile(update, cap_a)
    fs.write_page(ha.version, ROOT, b"never")
    fs.store.flush()
    fs.crash()

    fs2 = cluster.fs(0)  # same (restarted) server object in this test
    fs2.restart()
    # Another server (here: the restarted one, acting as waiter) recovers.
    waiter = SystemTree(fs2)
    status = waiter.wait_or_recover(cap_c)
    assert status == "cleared"
    assert fs2.read_page(fs2.current_version(cap_a), ROOT) == b"A v1"
    # The super-file is updatable again.
    update2 = waiter.begin_super_update(cap_c)
    waiter.abort_super(update2)


def test_crash_after_commit_ref_waiter_finishes(cluster):
    """The holder dies after the super commit reference was set: a waiter
    finishes the sub-file commits ("finishing the work of the crashed
    server")."""
    cluster2 = cluster
    fs = cluster2.fs()
    tree = SystemTree(fs)
    cap_c = fs.create_file(b"C")
    handle = fs.create_version(cap_c)
    cap_a = tree.create_subfile(handle.version, ROOT, initial_data=b"A v1")
    fs.commit(handle.version)

    update = tree.begin_super_update(cap_c)
    ha = tree.open_subfile(update, cap_a)
    fs.write_page(ha.version, ROOT, b"A v2")
    # Manually perform the first half of commit_super, then "crash".
    fs.store.flush()
    fs.commit(update.handle.version)  # super commit reference is set
    fs.crash()

    fs.restart()
    waiter = SystemTree(fs)
    status = waiter.wait_or_recover(cap_c)
    assert status == "finished"
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"A v2"
    # Locks cleared: a new small update on A works.
    h = fs.create_version(cap_a)
    fs.abort(h.version)


def test_inner_lock_waiter_finishes_a_dead_holders_committed_super_update(cluster):
    """A waiter blocked by an inner lock ascends to the super-file; the
    dead holder's super commit already landed, so the waiter finishes the
    sub-file commits from there ("finished")."""
    fs = cluster.fs()
    tree = SystemTree(fs)
    cap_c = fs.create_file(b"C")
    handle = fs.create_version(cap_c)
    cap_a = tree.create_subfile(handle.version, ROOT, initial_data=b"A v1")
    fs.commit(handle.version)
    update = tree.begin_super_update(cap_c)
    ha = tree.open_subfile(update, cap_a)
    fs.write_page(ha.version, ROOT, b"A v2")
    fs.commit(update.handle.version)  # the super commit reference is set
    fs.crash()
    fs.restart()
    assert SystemTree(fs).wait_or_recover(cap_a) == "finished"
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"A v2"
    fs.abort(fs.create_version(cap_a).version)


def test_inner_lock_no_ancestor_claims_is_cleared(nested):
    """The dead holder never flushed its sub-version, so clearing the
    super-file's top lock could not find the sub-file's inner lock.  No
    locked ancestor claims the port any more: the waiter on the sub-file
    clears the leftover lock itself ("cleared")."""
    fs, tree, cap_c, cap_a, cap_b = nested
    update = tree.begin_super_update(cap_c)
    tree.open_subfile(update, cap_a)
    fs.crash()
    fs.restart()
    waiter = SystemTree(fs)
    assert waiter.wait_or_recover(cap_c) == "cleared"
    block, _ = fs._resolve_current(fs.registry.file(cap_a.obj))
    assert fs.locks.read(block).inner == update.update_port
    assert waiter.wait_or_recover(cap_a) == "cleared"
    assert fs.locks.read(block).inner == 0
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"A v1"
    fs.abort(fs.create_version(cap_a).version)


def test_recover_on_healthy_file_is_free(nested):
    fs, tree, cap_c, cap_a, cap_b = nested
    assert tree.wait_or_recover(cap_c) == "free"


def test_holder_alive_keeps_waiter_waiting(nested, cluster):
    fs, tree, cap_c, cap_a, cap_b = nested
    update = tree.begin_super_update(cap_c)
    status = tree.wait_or_recover(cap_c)
    assert status == "alive"
    tree.open_subfile(update, cap_a)  # and a waiter on its inner lock
    assert tree.wait_or_recover(cap_a) == "alive"
    tree.abort_super(update)


def test_three_level_nested_atomic_update(cluster):
    """A super update spanning files at two nesting depths commits all of
    them atomically: grandparent ⊃ parent ⊃ child."""
    fs = cluster.fs()
    tree = SystemTree(fs)
    grand = fs.create_file(b"G")
    handle = fs.create_version(grand)
    parent = tree.create_subfile(handle.version, ROOT, initial_data=b"P v1")
    fs.commit(handle.version)
    handle = fs.create_version(parent)
    child = tree.create_subfile(handle.version, ROOT, initial_data=b"C v1")
    fs.commit(handle.version)

    update = tree.begin_super_update(grand)
    hp = tree.open_subfile(update, parent)
    hc = tree.open_subfile(update, child)
    fs.write_page(hp.version, ROOT, b"P v2")
    fs.write_page(hc.version, ROOT, b"C v2")
    # Nothing visible yet, at either depth.
    assert fs.read_page(fs.current_version(parent), ROOT) == b"P v1"
    assert fs.read_page(fs.current_version(child), ROOT) == b"C v1"
    tree.commit_super(update)
    assert fs.read_page(fs.current_version(parent), ROOT) == b"P v2"
    assert fs.read_page(fs.current_version(child), ROOT) == b"C v2"
    # Everything unlocked again.
    h = fs.create_version(child)
    fs.abort(h.version)
    h = fs.create_version(parent)
    fs.abort(h.version)


def test_relaxed_super_update(nested):
    """§5.3's relaxation: version creation allowed despite the top lock;
    the optimistic layer underneath arbitrates."""
    fs, tree, cap_c, cap_a, cap_b = nested
    first = tree.begin_super_update(cap_c)
    relaxed = tree.begin_super_update(cap_c, relaxed=True)
    tree.abort_super(relaxed)
    tree.abort_super(first)


def test_small_update_top_lock_is_soft_state_yet_excludes_super_entry(nested):
    """A small file's top lock lives in the registry, not on disk, and
    still makes a super update wait before entering the file."""
    fs, tree, cap_c, cap_a, cap_b = nested
    small = fs.create_version(cap_a)
    block = fs.registry.file(cap_a.obj).entry_block
    assert fs.locks.read(block) == LockSnapshot(0, 0)
    update = tree.begin_super_update(cap_c)
    with pytest.raises(FileLocked):
        tree.open_subfile(update, cap_a)
    assert fs.locks.read(block) == LockSnapshot(0, 0)
    fs.abort(small.version)  # the hint goes with its holder
    tree.open_subfile(update, cap_a)
    tree.abort_super(update)


def test_restored_registry_still_sees_a_dead_super_updates_inner_lock(nested):
    """A registry restore forgets every soft lock, but a small update
    tests the durable inner lock on the page it reads and waits; the
    waiter then clears the dead super update exactly as without the
    restore."""
    fs, tree, cap_c, cap_a, cap_b = nested
    table = fs.checkpoint_registry()
    update = tree.begin_super_update(cap_c)
    ha = tree.open_subfile(update, cap_a)
    fs.write_page(ha.version, ROOT, b"never")
    fs.store.flush()
    fs.crash()
    fs.restart()
    fs.restore_registry(table)
    assert fs.registry.file(cap_a.obj).open == {}
    with pytest.raises(FileLocked):
        fs.create_version(cap_a)
    with pytest.raises(FileLocked):  # the durable top lock, with no soft one
        SystemTree(fs).begin_super_update(cap_c)
    assert SystemTree(fs).wait_or_recover(cap_a) == "cleared"
    assert fs.read_page(fs.current_version(cap_a), ROOT) == b"A v1"
    handle = fs.create_version(cap_a, respect_soft_lock=True)
    fs.abort(handle.version)
    tree.abort_super(tree.begin_super_update(cap_c))


def test_dead_holders_soft_top_lock_is_cleared_by_one_recover_lock(cluster2):
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"v1")
    for _ in range(2):  # two holders plant the hint; then their server dies
        fs0.create_version(cap)
    fs0.crash()
    with pytest.raises(FileLocked):
        fs1.create_version(cap, respect_soft_lock=True)
    assert SystemTree(fs1).wait_or_recover(cap) == "cleared"
    assert cluster2.registry.file(cap.obj).open == {}
    handle = fs1.create_version(cap, respect_soft_lock=True)
    fs1.abort(handle.version)


def test_a_live_holder_keeps_the_soft_lock_when_a_dead_one_is_cleared(cluster2):
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"v1")
    fs0.create_version(cap)  # dies with fs0
    live = fs1.create_version(cap)
    fs0.crash()
    assert SystemTree(fs1).wait_or_recover(cap) == "alive"
    assert cluster2.registry.file(cap.obj).open == {
        live.version.obj: cluster2.registry.version(live.version.obj).update_port
    }
    fs1.abort(live.version)
    assert SystemTree(fs1).wait_or_recover(cap) == "free"


def test_one_of_two_overlapping_small_updates_ending_keeps_the_soft_lock(nested):
    """The soft top lock is held while *any* small update of the file is
    open: one of two overlapping updates aborting must not clear it."""
    fs, tree, cap_c, cap_a, cap_b = nested
    first = fs.create_version(cap_a)
    second = fs.create_version(cap_a)
    fs.abort(second.version)
    with pytest.raises(FileLocked):
        fs.create_version(cap_a, respect_soft_lock=True)
    update = tree.begin_super_update(cap_c)
    with pytest.raises(FileLocked):
        tree.open_subfile(update, cap_a)
    fs.commit(first.version)
    tree.open_subfile(update, cap_a)
    tree.abort_super(update)
    fs.abort(fs.create_version(cap_a, respect_soft_lock=True).version)
