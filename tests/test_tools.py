"""The fsck checker and the inspector."""

import pytest

from repro.core.pathname import PagePath
from repro.core.system_tree import SystemTree
from repro.errors import CommitConflict
from repro.tools.check import check_cluster, check_file, CheckReport
from repro.tools.inspect import dump_family, dump_page_tree

ROOT = PagePath.ROOT


def _populate(cluster):
    fs = cluster.fs()
    caps = []
    for f in range(2):
        cap = fs.create_file(b"file%d" % f)
        handle = fs.create_version(cap)
        child = fs.append_page(handle.version, ROOT, b"child")
        fs.append_page(handle.version, child, b"leaf")
        fs.commit(handle.version)
        caps.append(cap)
    return fs, caps


def test_clean_system_passes(cluster):
    _populate(cluster)
    report = check_cluster(cluster)
    assert report.ok, report.errors
    assert report.files_checked == 2
    assert report.versions_checked >= 4


def test_clean_after_gc_has_no_leaks(cluster):
    fs, caps = _populate(cluster)
    # Make some garbage: a conflicted update.
    va = fs.create_version(caps[0])
    vb = fs.create_version(caps[0])
    fs.read_page(vb.version, PagePath.of(0))
    fs.write_page(va.version, PagePath.of(0), b"win")
    fs.write_page(vb.version, PagePath.of(0, 0), b"lose")
    fs.commit(va.version)
    with pytest.raises(CommitConflict):
        fs.commit(vb.version)
    cluster.gc().collect()
    report = check_cluster(cluster, gc_expected_clean=True)
    assert report.ok, report.errors
    assert report.leaked_blocks == []


def test_checker_consistent_after_crash(cluster2):
    """The paper's property, stated as an fsck invariant: a crash at any
    moment leaves a system that checks clean (modulo GC-fodder leaks)."""
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"x")
    handle = fs0.create_version(cap)
    fs0.write_page(handle.version, ROOT, b"dirty")
    fs0.store.flush()
    fs0.crash()
    report = check_cluster(cluster2)
    assert report.ok, report.errors


def test_checker_detects_broken_chain(cluster):
    fs, caps = _populate(cluster)
    entry = cluster.registry.file(caps[0].obj)
    # Vandalise: point the current version's commit reference at itself.
    block, _ = fs._resolve_current(entry)
    page = fs.store.load(block, fresh=True)
    page.commit_ref = block
    fs.store.store_in_place(block, page)
    fs.store.flush()
    report = CheckReport()
    check_file(fs, entry, report)
    assert not report.ok
    assert any("cycle" in err for err in report.errors)


DAMAGE = {
    "unreadable version page": lambda page, caps: setattr(page, "commit_ref", 999_999),
    "is not a version page": lambda page, caps: setattr(
        page, "commit_ref", page.refs[0].block
    ),
    "claims file": lambda page, caps: setattr(page, "file_cap", caps[1]),
    "referenced twice": lambda page, caps: page.refs.append(page.refs[0]),
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_checker_reports_a_damaged_current_version(cluster, damage):
    """Each kind of damage to the current version page is an error that
    names it: a commit reference to nothing or to a data page, a version
    page claiming another file, a subtree reachable twice."""
    fs, caps = _populate(cluster)
    entry = cluster.registry.file(caps[0].obj)
    block, _ = fs._resolve_current(entry)
    page = fs.store.load(block, fresh=True)
    DAMAGE[damage](page, caps)
    fs.store.store_in_place(block, page)
    fs.store.flush()
    report = CheckReport()
    check_file(fs, entry, report)
    assert any(damage in err for err in report.errors), report.errors


def _four_versions(cluster):
    """A file with four committed versions; returns (service, file entry,
    version blocks oldest first)."""
    fs = cluster.fs()
    cap = fs.create_file(b"v1")
    for n in (2, 3, 4):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"v%d" % n)
        fs.commit(handle.version)
    entry = cluster.registry.file(cap.obj)
    current, _ = fs._resolve_current(entry)
    return fs, entry, fs.store.history_of(current)[::-1]


def _vandalise(fs, block, **fields):
    page = fs.store.load(block, fresh=True)
    for name, value in fields.items():
        setattr(page, name, value)
    fs.store.blocks.write(block, page.to_bytes())
    fs.store.cache.invalidate(block)


def test_checker_reports_a_damaged_older_commit_reference(cluster):
    """An older version whose commit reference is damaged is still in
    the history (the registry lists it as committed): the walk back goes
    on past it and the error names its block."""
    fs, entry, blocks = _four_versions(cluster)
    assert len(blocks) == 4
    _vandalise(fs, blocks[1], commit_ref=424242)
    report = CheckReport()
    check_file(fs, entry, report)
    assert not report.ok
    assert any(
        f"{blocks[1]}.commit_ref=424242" in err for err in report.errors
    ), report.errors
    assert report.versions_checked == 4


def test_checker_reports_a_base_reference_cycle(cluster):
    fs, entry, blocks = _four_versions(cluster)
    _vandalise(fs, blocks[2], base_ref=blocks[3])
    report = CheckReport()
    check_file(fs, entry, report)
    assert any("base-reference cycle" in err for err in report.errors), report.errors


def test_checker_stops_quietly_at_a_base_that_never_committed(cluster):
    """A base reference to a version that is not a committed one of the
    file ends the history without an error (an aborted base's block)."""
    fs, entry, blocks = _four_versions(cluster)
    cluster.registry.version_by_block(blocks[1]).status = "aborted"
    _vandalise(fs, blocks[1], commit_ref=424242)
    report = CheckReport()
    check_file(fs, entry, report)
    assert report.ok, report.errors
    assert report.versions_checked == 2


def test_checker_detects_dangling_reference(cluster):
    fs, caps = _populate(cluster)
    entry = cluster.registry.file(caps[0].obj)
    block, _ = fs._resolve_current(entry)
    page = fs.store.load(block, fresh=True)
    from repro.core.page import PageRef
    from repro.core.flags import Flags

    page.refs[0] = PageRef(123456, Flags(c=True))
    fs.store.store_in_place(block, page)
    fs.store.flush()
    report = CheckReport()
    check_file(fs, entry, report)
    assert any("unreadable block" in err for err in report.errors)


def test_checker_counts_leaks_as_warnings(cluster):
    fs, caps = _populate(cluster)
    # Orphan a block deliberately.
    fs.store.blocks.allocate_write(b"orphan")
    report = check_cluster(cluster)
    assert report.ok  # a leak is a warning, not an error
    assert len(report.leaked_blocks) >= 1
    strict = check_cluster(cluster, gc_expected_clean=True)
    assert not strict.ok


def test_checker_with_superfiles(cluster):
    fs = cluster.fs()
    tree = SystemTree(fs)
    parent = fs.create_file(b"P")
    handle = fs.create_version(parent)
    sub = tree.create_subfile(handle.version, ROOT, initial_data=b"S")
    fs.commit(handle.version)
    update = tree.begin_super_update(parent)
    hs = tree.open_subfile(update, sub)
    fs.write_page(hs.version, ROOT, b"S2")
    tree.commit_super(update)
    report = check_cluster(cluster)
    assert report.ok, report.errors


def test_ci_gate_is_clean_on_a_busy_deployment(capsys):
    """``python -m repro.tools.check``: concurrent commits across two
    servers, a crash mid-update and a GC pass leave fsck clean."""
    from repro.tools.check import main

    assert main() == 0
    assert "ERROR" not in capsys.readouterr().out


def test_summary_line(cluster):
    _populate(cluster)
    report = check_cluster(cluster)
    text = report.summary()
    assert "fsck: clean" in text
    assert "2 files" in text


def test_dump_page_tree_renders_structure(cluster):
    fs, caps = _populate(cluster)
    entry = cluster.registry.file(caps[0].obj)
    block, _ = fs._resolve_current(entry)
    text = dump_page_tree(fs, block)
    assert "<root>" in text
    assert "block=" in text
    assert "0/0" in text  # the leaf's path
    assert "[version page]" in text


def test_dump_page_tree_shows_holes(cluster):
    fs, caps = _populate(cluster)
    handle = fs.create_version(caps[0])
    fs.make_hole(handle.version, PagePath.of(0))
    entry = fs.registry.version(handle.version.obj)
    text = dump_page_tree(fs, entry.root_block)
    assert "<hole>" in text
    fs.abort(handle.version)


def test_dump_family_renders_chain(cluster):
    fs, caps = _populate(cluster)
    pending = fs.create_version(caps[0])
    text = dump_family(fs, caps[0])
    assert "committed block=" in text
    assert "<- current" in text
    assert "uncommitted version=" in text
    fs.abort(pending.version)


def _disagreeing(pair):
    """Flip a byte of some block on ``pair``'s second disk only."""
    block = next(iter(pair.b.local.allocated_blocks()))
    pair.disk_b.corrupt(block)
    assert not pair.consistent()


@pytest.mark.parametrize("which", ["shard 2", "retired pair", "optical pair"])
def test_fsck_audits_every_pair(which):
    """Pair agreement covers every pair the state lives on, not only shard
    0: a live shard other than 0, a pair retired by a migration (its disks
    keep the pre-cutover history) and a hybrid deployment's optical pair."""
    from repro.capability import new_port
    from repro.testbed import build_cluster, build_hybrid_cluster

    if which == "optical pair":
        cluster = build_hybrid_cluster(seed=5)
    else:
        cluster = build_cluster(shards=4, seed=5)
    fs = cluster.fs()
    for i in range(8):
        cap = fs.create_file(b"file %d" % i)
        handle = fs.create_version(cap)
        fs.append_page(handle.version, ROOT, b"page of %d" % i)
        fs.commit(handle.version)
    assert check_cluster(cluster).ok
    if which == "shard 2":
        _disagreeing(cluster.shards.pairs[2])
    elif which == "retired pair":
        cluster.shards.migrate(1, new_port(cluster.rng))
        (retired,) = cluster.shards.retired_pairs
        _disagreeing(retired)
    else:
        _disagreeing(cluster.optical_pair)
    report = check_cluster(cluster)
    assert not report.ok
    assert any("disks disagree" in error for error in report.errors)
