"""Archive export/import: history-preserving, sharing-preserving."""

import pytest

from repro.core.pathname import PagePath
from repro.testbed import build_cluster
from repro.tools.archive import export_file, import_file

ROOT = PagePath.ROOT


def _history_file(fs, revisions=4, chunk=b"shared-untouched-data"):
    """A file whose revisions rewrite the root but share child pages."""
    cap = fs.create_file(b"r0")
    handle = fs.create_version(cap)
    for i in range(3):
        fs.append_page(handle.version, ROOT, chunk + b"-%d" % i)
    fs.commit(handle.version)
    for n in range(2, revisions + 1):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"r%d" % n)
        fs.commit(handle.version)
    return cap


def test_roundtrip_current_state(cluster, fs):
    cap = _history_file(fs)
    archive = export_file(fs, cap)
    new_cap, stats = import_file(fs, archive)
    assert new_cap.obj != cap.obj
    assert fs.read_page(fs.current_version(new_cap), ROOT) == b"r4"
    for i in range(3):
        assert fs.read_page(
            fs.current_version(new_cap), PagePath.of(i)
        ) == b"shared-untouched-data-%d" % i


def test_roundtrip_preserves_history(cluster, fs):
    cap = _history_file(fs)
    archive = export_file(fs, cap)
    new_cap, stats = import_file(fs, archive)
    old = [fs.read_page(v, ROOT) for v in fs.committed_versions(cap)]
    new = [fs.read_page(v, ROOT) for v in fs.committed_versions(new_cap)]
    assert new == old
    assert stats.versions == len(old)


def test_sharing_preserved(cluster, fs):
    """Pages shared between revisions are archived once and imported
    once — the differential property survives the trip."""
    cap = _history_file(fs, revisions=6)
    archive = export_file(fs, cap)
    __, stats = import_file(fs, archive)
    # 7 version pages + 3 shared children ≈ 10 blocks; NOT 7 * 4.
    assert stats.blocks <= 12
    assert stats.shared_blocks >= 3


def test_import_into_other_cluster():
    source = build_cluster(seed=61)
    target = build_cluster(seed=62)
    cap = _history_file(source.fs())
    archive = export_file(source.fs(), cap)
    new_cap, _ = import_file(target.fs(), archive)
    assert (
        target.fs().read_page(target.fs().current_version(new_cap), ROOT) == b"r4"
    )
    # The import is a healthy citizen of the target file system.
    from repro.tools.check import check_cluster

    report = check_cluster(target)
    assert report.ok, report.errors


def test_imported_file_is_updatable(cluster, fs):
    cap = _history_file(fs)
    new_cap, _ = import_file(fs, export_file(fs, cap))
    handle = fs.create_version(new_cap)
    fs.write_page(handle.version, ROOT, b"post-import")
    fs.commit(handle.version)
    assert fs.read_page(fs.current_version(new_cap), ROOT) == b"post-import"
    # The original is untouched.
    assert fs.read_page(fs.current_version(cap), ROOT) == b"r4"


def test_imported_versions_never_take_the_files_number(cluster, fs):
    """The registry learns the new file's number only once its versions
    are minted: asking it for version numbers would hand the file's own
    number, and with it the file's secret, to a version."""
    cap = _history_file(fs, revisions=2)
    new_cap, _ = import_file(fs, export_file(fs, cap))
    objs = [version.obj for version in fs.committed_versions(new_cap)]
    assert len(objs) == 3  # birth, the pages, r2
    assert new_cap.obj not in objs
    assert len(set(objs)) == len(objs)


def test_garbage_archive_rejected(fs):
    with pytest.raises(ValueError):
        import_file(fs, b"NOTANARCHIVE" + b"\x00" * 50)


def test_archive_with_holes_and_structure(cluster, fs):
    """Structural oddities — holes, deep nesting — survive the trip."""
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    a = fs.append_page(handle.version, ROOT, b"a")
    b = fs.append_page(handle.version, ROOT, b"b")
    fs.append_page(handle.version, a, b"deep")
    fs.make_hole(handle.version, b)
    fs.commit(handle.version)
    new_cap, _ = import_file(fs, export_file(fs, cap))
    current = fs.current_version(new_cap)
    assert fs.page_structure(current, ROOT) == [1, 0]
    assert fs.read_page(current, PagePath.of(0, 0)) == b"deep"
    from repro.errors import HoleReference

    with pytest.raises(HoleReference):
        fs.read_page(current, PagePath.of(1))


def test_archive_single_version_file(cluster, fs):
    cap = fs.create_file(b"lonely")
    new_cap, stats = import_file(fs, export_file(fs, cap))
    assert stats.versions == 1
    assert fs.read_page(fs.current_version(new_cap), ROOT) == b"lonely"


def test_import_then_fsck_then_gc(cluster, fs):
    """An imported file plays nicely with the collector and the checker."""
    cap = _history_file(fs)
    new_cap, _ = import_file(fs, export_file(fs, cap))
    cluster.gc().collect()
    from repro.tools.check import check_cluster

    report = check_cluster(cluster, gc_expected_clean=True)
    assert report.ok, report.errors
    assert fs.read_page(fs.current_version(new_cap), ROOT) == b"r4"


def test_uncommitted_versions_not_exported(cluster, fs):
    cap = _history_file(fs)
    pending = fs.create_version(cap)
    fs.write_page(pending.version, ROOT, b"tentative")
    archive = export_file(fs, cap)
    new_cap, stats = import_file(fs, archive)
    texts = [fs.read_page(v, ROOT) for v in fs.committed_versions(new_cap)]
    assert b"tentative" not in texts
    fs.abort(pending.version)
