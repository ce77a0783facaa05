"""Salvage: rebuilding the file table from the blocks alone (§4)."""

import pytest

from repro.capability import CapabilityIssuer
from repro.core.pathname import PagePath
from repro.core.registry import FileRegistry
from repro.core.service import FileService
from repro.testbed import build_cluster
from repro.tools.salvage import salvage

ROOT = PagePath.ROOT


def _populated_cluster():
    cluster = build_cluster(servers=1, seed=33)
    fs = cluster.fs()
    caps = []
    for f in range(3):
        cap = fs.create_file(b"file%d-r0" % f)
        for r in range(1, 3):
            handle = fs.create_version(cap)
            fs.write_page(handle.version, ROOT, b"file%d-r%d" % (f, r))
            fs.append_page(handle.version, ROOT, b"child-%d-%d" % (f, r))
            fs.commit(handle.version)
        caps.append(cap)
    fs.store.flush()
    return cluster, fs, caps


def _amnesiac_server(cluster):
    """A server with no memory of anything: fresh registry, fresh issuer."""
    return FileService(
        "reborn",
        cluster.network,
        FileRegistry(),
        CapabilityIssuer(cluster.service_port),
        cluster.block_port,
        account=1,
    )


def test_salvage_recovers_every_file(cluster2=None):
    cluster, fs, caps = _populated_cluster()
    reborn = _amnesiac_server(cluster)
    report = salvage(reborn)
    assert report.files_recovered == 3
    assert report.version_pages >= 7  # 1 birth + 2 commits per file
    # Every file's current state is readable through fresh capabilities.
    recovered = sorted(report.files.items())
    contents = {
        reborn.read_page(reborn.current_version(cap), ROOT)
        for _, cap in recovered
    }
    assert contents == {b"file0-r2", b"file1-r2", b"file2-r2"}


def test_salvage_finds_current_not_old_versions():
    cluster, fs, caps = _populated_cluster()
    reborn = _amnesiac_server(cluster)
    report = salvage(reborn)
    for obj, cap in report.files.items():
        data = reborn.read_page(reborn.current_version(cap), ROOT)
        assert data.endswith(b"-r2"), f"recovered a stale version: {data!r}"


def test_salvaged_files_are_updatable():
    cluster, fs, caps = _populated_cluster()
    reborn = _amnesiac_server(cluster)
    report = salvage(reborn)
    obj, cap = sorted(report.files.items())[0]
    handle = reborn.create_version(cap)
    reborn.write_page(handle.version, ROOT, b"post-salvage")
    reborn.commit(handle.version)
    assert reborn.read_page(reborn.current_version(cap), ROOT) == b"post-salvage"
    # History links still intact.
    tree = reborn.family_tree(cap)
    assert len(tree["committed"]) == 4


def test_salvage_ignores_uncommitted_versions():
    cluster, fs, caps = _populated_cluster()
    # Leave an uncommitted version lying around, flushed.
    handle = fs.create_version(caps[0])
    fs.write_page(handle.version, ROOT, b"tentative")
    fs.store.flush()
    reborn = _amnesiac_server(cluster)
    report = salvage(reborn)
    obj, cap = [(o, c) for o, c in report.files.items() if o == caps[0].obj][0]
    assert reborn.read_page(reborn.current_version(cap), ROOT) == b"file0-r2"


def test_salvage_single_version_file():
    cluster = build_cluster(seed=34)
    fs = cluster.fs()
    cap = fs.create_file(b"only version")
    fs.store.flush()
    reborn = _amnesiac_server(cluster)
    report = salvage(reborn)
    assert report.files_recovered == 1
    __, fresh = next(iter(report.files.items()))
    assert reborn.read_page(reborn.current_version(fresh), ROOT) == b"only version"


def test_salvage_empty_account():
    cluster = build_cluster(seed=35)
    reborn = _amnesiac_server(cluster)
    report = salvage(reborn)
    assert report.files_recovered == 0
    assert report.blocks_scanned == 0


def test_salvage_after_total_service_loss_end_to_end():
    """The full catastrophe: every file server dies with all memory; a
    cold replacement salvages from the block layer and serves."""
    cluster, fs, caps = _populated_cluster()
    fs.crash()  # the only server is gone, registry and issuer with it
    reborn = _amnesiac_server(cluster)
    report = salvage(reborn)
    assert report.files_recovered == 3
    from repro.tools.check import check_cluster

    cluster.servers.append(reborn)  # let fsck find the live server
    result = check_cluster(cluster)
    assert result.ok, result.errors


def test_salvage_in_place_keeps_old_snapshots_from_reading_the_current():
    """Salvaging a server's own table: its issuer still honours every
    capability it minted, so a recovered version must not re-use a
    pre-salvage version's number (here the birth version of file 0, the
    first number after the file's own)."""
    from repro.errors import NoSuchVersion

    cluster, fs, caps = _populated_cluster()
    birth = fs.committed_versions(caps[0])[0]
    assert fs.read_page(birth, ROOT) == b"file0-r0"
    report = salvage(fs)
    current = fs.current_version(report.files[caps[0].obj])
    assert current.obj != birth.obj
    assert fs.read_page(current, ROOT) == b"file0-r2"
    with pytest.raises(NoSuchVersion):
        fs.read_page(birth, ROOT)
