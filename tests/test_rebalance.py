"""Live shard migration: streaming, cutover atomicity, and the edge
cases that lose data in real systems.

The protocol under test (``repro.block.rebalance``): arm dirty tracking,
pre-copy the manifest while traffic runs, drain deltas in bounded
rounds, then one atomic fence — retire the source, copy the remainder,
unregister the port, bump the placement epoch.  These tests drive it
under concurrent client workloads, injected crashes, and in-flight
commits, and hold the results to the history checker's stale-placement
invariant: nothing is ever served by a shard after its cutover.
"""

from __future__ import annotations

import random

import pytest

from repro.block import rebalance
from repro.block.rebalance import migrate_steps
from repro.capability import new_port
from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.errors import PlacementStale, ReproError, ServerUnreachable
from repro.obs import Recorder
from repro.sim.sched import Scheduler
from repro.testbed import build_cluster
from repro.verify.history import HistoryRecorder, check_history

ROOT = PagePath.ROOT


def _workload_cluster(shards=3, servers=2, seed=5, files=3, pages=3, **kwargs):
    history = HistoryRecorder()
    cluster = build_cluster(
        shards=shards, servers=servers, seed=seed, disk_capacity=64,
        history=history, **kwargs
    )
    fs = cluster.fs()
    caps = []
    for i in range(files):
        cap = fs.create_file(b"file %d" % i)
        handle = fs.create_version(cap)
        for j in range(pages):
            fs.append_page(handle.version, ROOT, b"page %d.%d" % (i, j))
        fs.commit(handle.version)
        caps.append(cap)
    return cluster, history, caps


def _client_script(client, caps, pages, rng, ops, tally):
    for opno in range(ops):
        cap = caps[rng.randrange(len(caps))]
        path = PagePath.of(rng.randrange(pages))
        yield
        if rng.random() < 0.5:
            client.read(cap, path)
            continue
        update = client.begin(cap)
        update.read(path)
        yield
        update.write(path, b"%s-op%d" % (client.node.encode(), opno))
        yield
        try:
            update.commit()
            tally["commits"] += 1
        except ReproError:
            tally["conflicts"] += 1
            if not update.done:
                update.abort()
    return None


def test_live_migration_under_concurrent_workload():
    """The tentpole end-to-end: clients read and commit throughout the
    migration; the cutover is one epoch bump; the history checker sees
    the cutover event and zero stale serves; no commit is lost."""
    cluster, history, caps = _workload_cluster()
    service = cluster.shards
    source = service.pairs[0]
    rng = random.Random("rebalance-workload")
    tally = {"commits": 0, "conflicts": 0}

    scheduler = Scheduler()
    for ci in range(3):
        client = FileClient(
            cluster.network, f"reb-c{ci}", cluster.service_port, history=history
        )
        scheduler.spawn(
            f"reb-c{ci}",
            _client_script(
                client, caps, 3, random.Random(f"reb-{ci}"), 12, tally
            ),
        )
    done = {}

    def migrator():
        done["report"] = yield from migrate_steps(
            service, 0, new_port(cluster.rng), history=history
        )

    scheduler.spawn("migrator", migrator())
    scheduler.run()

    report = done["report"]
    assert report.epoch == 2
    assert service.placement.epoch == 2
    assert report.blocks_streamed > 0
    assert tally["commits"] > 0
    # The retired pair refuses service with the typed staleness error.
    with pytest.raises(PlacementStale):
        source.a.cmd_read(account=1, block_no=1)
    # Every committed page reads back through the new map.
    fs = cluster.fs()
    for cap in caps:
        current = fs.current_version(cap)
        for j in range(3):
            fs.read_page(current, PagePath.of(j))
    assert service.consistent()
    result = check_history(history)
    assert result.ok, result.violations()
    assert result.cutovers_seen == 1
    assert result.shard_serves_checked > 0


def test_commit_in_flight_during_drain_lands_or_retries_never_forks():
    """A commit racing the drain either lands before the fence (its
    blocks travel via the dirty set) or hits ``PlacementStale`` and
    retries against the new shard — but the version chain never forks:
    every committed page is durable on exactly the live pair."""
    cluster, history, caps = _workload_cluster(shards=2, servers=1, seed=9)
    service = cluster.shards
    fs = cluster.fs()
    cap = caps[0]

    steps = migrate_steps(service, 0, new_port(cluster.rng), history=history)
    # Enter the pre-copy: a few streaming steps happen, traffic still runs.
    for _ in range(3):
        next(steps)
    # An in-flight commit lands mid-drain — after the manifest snapshot,
    # so only the dirty set can save these writes.
    handle = fs.create_version(cap)
    fs.write_page(handle.version, PagePath.of(0), b"racing the drain")
    fs.commit(handle.version)
    # Drive the migration to completion (drain + fence).
    report = None
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        report = stop.value
    assert report.epoch == 2
    # The racing commit is readable through the new placement...
    assert (
        fs.read_page(fs.current_version(cap), PagePath.of(0))
        == b"racing the drain"
    )
    # ...and a post-cutover commit goes to the new pair only.
    handle = fs.create_version(cap)
    fs.write_page(handle.version, PagePath.of(1), b"after the bump")
    fs.commit(handle.version)
    assert (
        fs.read_page(fs.current_version(cap), PagePath.of(1)) == b"after the bump"
    )
    result = check_history(history)
    assert result.ok, result.violations()


def test_stale_block_client_heals_with_bounded_retries():
    """A client still holding the epoch-1 map gets ``PlacementStale``
    from the retired pair, refetches, and completes — transparently."""
    cluster, history, caps = _workload_cluster(shards=2, servers=1, seed=11)
    service = cluster.shards
    stale = service.client("stale-node", 7)
    block = stale.allocate_write(b"written before the reshape")
    service.migrate(0, new_port(cluster.rng))
    assert service.placement.epoch == 2
    # The client's cached map is stale; reads and writes heal in place.
    assert stale.read(block) == b"written before the reshape"
    stale.write(block, b"updated after the reshape")
    assert stale.read(block) == b"updated after the reshape"
    assert stale.placement.epoch == 2


def test_expired_lease_and_stale_placement_compose():
    """A leased read whose lease expired *during* the migration must
    revalidate through a server whose own block client needs a placement
    refresh — both staleness layers heal in one read, and the history
    checker holds the lease bound and the cutover invariant together."""
    cluster, history, caps = _workload_cluster(shards=2, servers=1, seed=13)
    service = cluster.shards
    client = FileClient(
        cluster.network,
        "leased",
        cluster.service_port,
        history=history,
        lease_ticks=80,
    )
    cap = caps[0]
    assert client.read(cap, PagePath.of(0)) == b"page 0.0"  # grants the lease
    # The migration's streaming traffic advances the clock well past the
    # lease TTL, and the cutover retires the pair the lease's pages came
    # from.
    report = service.migrate(0, new_port(cluster.rng), history=history)
    assert report.epoch == 2
    assert cluster.clock.now > 80
    assert client.read(cap, PagePath.of(0)) == b"page 0.0"
    # A post-migration update invalidates and re-reads cleanly too.
    client.transact(cap, lambda u: u.write(PagePath.of(0), b"fresh"))
    assert client.read(cap, PagePath.of(0)) == b"fresh"
    result = check_history(history)
    assert result.ok, result.violations()
    assert result.cutovers_seen == 1


def test_abort_under_crash_leaves_map_and_data_untouched():
    """Both source halves die mid-stream: the migration aborts, the
    placement map never bumps, the half-built target is discarded, and
    after recovery a retry completes."""
    cluster, history, caps = _workload_cluster(shards=2, servers=1, seed=17)
    service = cluster.shards
    source = service.pairs[0]
    fs = cluster.fs()
    target_port = new_port(cluster.rng)

    steps = migrate_steps(service, 0, target_port, history=history)
    for _ in range(2):
        next(steps)
    source.a.crash()
    source.b.crash()
    with pytest.raises(ReproError):
        while True:
            next(steps)
    assert service.placement.epoch == 1
    assert len(service.pairs) == 2
    assert service.pairs[0] is source
    assert not service.retired_pairs
    # Recover the pair; data still served by the original shard.
    for half in source.halves():
        half.restart()
    for half in source.halves():
        half.resync()
    assert fs.read_page(fs.current_version(caps[0]), PagePath.of(0)) == b"page 0.0"
    # The retry (fresh target port) completes.
    report = service.migrate(0, new_port(cluster.rng), history=history)
    assert report.epoch == 2
    assert fs.read_page(fs.current_version(caps[0]), PagePath.of(0)) == b"page 0.0"
    result = check_history(history)
    assert result.ok, result.violations()


def _finish(steps):
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize(
    "freed, restart", [(6, False), (2, False), (2, True)],
    ids=["delta-round", "fence", "full-reconcile"],
)
def test_blocks_freed_after_their_copy_are_freed_on_the_target(freed, restart):
    """Blocks the pre-copy already carried over and the source then freed
    must not outlive the migration on the target.  Six come back through
    the dirty set in a delta round, where one more block, written and then
    freed inside the round, fails its copy and is left for the fence; two
    are left for the fence's remainder; after a half restart the fence's
    full reconcile finds the two missing from the final manifest."""
    recorder = Recorder()
    cluster, history, caps = _workload_cluster(
        shards=2, servers=1, seed=23, recorder=recorder
    )
    service = cluster.shards
    source = service.pairs[0]
    owner = service.client("freer", 7)
    blocks = [owner.allocate_write(b"short-lived %d" % i) for i in range(16)]
    mine = [block for block in blocks if service.placement.index_of(block) == 0]
    gone = mine[:freed]
    steps = migrate_steps(service, 0, new_port(cluster.rng), history=history)
    for _ in source.a.cmd_manifest():
        next(steps)  # the pre-copy has carried all but the last block
    for block in gone:
        owner.free(block)
    if restart:
        source.a.crash()
        source.a.restart()
        source.a.resync()
    if freed > 4:
        owner.write(mine[-1], b"rewritten")  # streamed in the round
        owner.write(mine[freed], b"rewritten")
        next(steps)  # inside the delta round, its manifest taken
        owner.free(mine[freed])
        gone.append(mine[freed])
    report = _finish(steps)
    assert report.delta_rounds == int(freed > 4)
    assert report.full_reconcile == restart
    assert report.freed_on_target == (1 if freed > 4 else freed)
    counters = recorder.metrics.counters
    if freed > 4:
        assert counters["rebalance.delta_rounds"].value == 1
    if restart:
        assert counters["rebalance.full_reconciles"].value == 1
    target = service.pairs[0]
    for block in gone:
        assert target.a.local.owner_of(service.placement.local_of(block)) is None
    assert service.consistent()
    result = check_history(history)
    assert result.ok, result.violations()


def test_a_fence_that_fails_rolls_back_through_unretire(monkeypatch):
    """A copy inside the fence fails: both source halves are unretired and
    serve again under the old map, the migration aborts, and a retry
    completes."""
    recorder = Recorder()
    cluster, history, caps = _workload_cluster(
        shards=2, servers=1, seed=29, recorder=recorder
    )
    service = cluster.shards
    source = service.pairs[0]
    fs = cluster.fs()
    with pytest.raises(ValueError):  # the target must be a fresh port
        service.migrate(0, service.placement.ports[1])

    class FenceCopyFails(rebalance.Transaction):
        def call_nodes(self, nodes, command, **params):
            if command == "export":  # only the fence exports by half name
                raise ServerUnreachable("source lost inside the fence")
            return super().call_nodes(nodes, command, **params)

    monkeypatch.setattr(rebalance, "Transaction", FenceCopyFails)
    steps = migrate_steps(service, 0, new_port(cluster.rng), history=history)
    next(steps)
    handle = fs.create_version(caps[0])  # dirty blocks for the fence
    fs.write_page(handle.version, PagePath.of(0), b"before the fence")
    fs.commit(handle.version)
    with pytest.raises(ServerUnreachable):
        _finish(steps)
    assert recorder.metrics.counters["rebalance.aborts"].value == 1
    assert service.placement.epoch == 1
    assert service.pairs[0] is source and not service.retired_pairs
    handle = fs.create_version(caps[0])
    fs.write_page(handle.version, PagePath.of(0), b"after the abort")
    fs.commit(handle.version)
    monkeypatch.undo()
    assert service.migrate(0, new_port(cluster.rng), history=history).epoch == 2
    assert (
        fs.read_page(fs.current_version(caps[0]), PagePath.of(0))
        == b"after the abort"
    )
    result = check_history(history)
    assert result.ok, result.violations()


def test_half_restart_mid_migration_forces_full_reconcile():
    """A source half that crashes and restarts while the dirty set is
    armed invalidates in-memory tracking — the fence must re-stream the
    whole final manifest instead of trusting the delta."""
    cluster, history, caps = _workload_cluster(shards=2, servers=1, seed=19)
    service = cluster.shards
    source = service.pairs[0]
    fs = cluster.fs()

    steps = migrate_steps(service, 0, new_port(cluster.rng), history=history)
    for _ in range(2):
        next(steps)
    # Lose and recover one half mid-stream: its dirty set is gone.
    source.a.crash()
    next(steps)
    source.a.restart()
    source.a.resync()
    # A commit in the window the dead half missed.
    handle = fs.create_version(caps[0])
    fs.write_page(handle.version, PagePath.of(1), b"while a was down")
    fs.commit(handle.version)
    report = None
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        report = stop.value
    assert report.full_reconcile
    assert report.epoch == 2
    assert (
        fs.read_page(fs.current_version(caps[0]), PagePath.of(1))
        == b"while a was down"
    )
    result = check_history(history)
    assert result.ok, result.violations()


@pytest.mark.parametrize("restart", [False, True], ids=["delta", "full-reconcile"])
def test_update_left_open_across_the_cutover_flushes_on_the_target(restart):
    """An update's deferred pages are block numbers reserved on the source
    with nothing written yet.  The migration must carry them over as
    reservations — in the pre-copy, in the delta rounds and in the fence
    alike — or the fence dies on the unreadable block, or the update's
    flush after the cutover finds nothing to write to."""
    cluster, history, caps = _workload_cluster(shards=2, servers=1, seed=19)
    service = cluster.shards
    source = service.pairs[0]
    fs = cluster.fs()
    early = fs.create_version(caps[0])  # reserved before the stream is armed
    fs.write_page(early.version, PagePath.of(1), b"open across the cutover")

    steps = migrate_steps(service, 0, new_port(cluster.rng), history=history)
    for _ in range(2):
        next(steps)
    late = fs.create_version(caps[1])  # reserved while it runs
    fs.write_page(late.version, PagePath.of(2), b"opened mid-stream")
    moving = [b for b in fs.store._dirty if service.placement.index_of(b) == 0]
    assert len(moving) >= 2
    if restart:
        source.a.crash()
        next(steps)
        source.a.restart()
        source.a.resync()
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        report = stop.value
    assert report.full_reconcile == restart and report.epoch == 2
    target = service.pairs[0]
    assert target is not source
    for block in moving:
        local = service.placement.local_of(block)
        for half in target.halves():
            assert half.local.owner_of(local) is not None  # reserved...
            assert not half.local.disk.holds(local)  # ...and still unwritten
    fs.commit(early.version)
    fs.commit(late.version)
    assert (
        fs.read_page(fs.current_version(caps[0]), PagePath.of(1))
        == b"open across the cutover"
    )
    assert (
        fs.read_page(fs.current_version(caps[1]), PagePath.of(2))
        == b"opened mid-stream"
    )
    assert service.consistent()
    result = check_history(history)
    assert result.ok, result.violations


def test_checker_flags_serve_after_cutover():
    """The stale-placement invariant has teeth: a synthetic history where
    a shard answers a read *after* its own cutover is flagged."""
    history = HistoryRecorder()
    history.record("cutover", actor="rebalancer", base=0xBEEF, version=2, tick=10)
    history.record(
        "shard_serve", actor="laggard", path="read", base=0xBEEF, version=1, tick=11
    )
    result = check_history(history)
    assert not result.ok
    assert any(v.kind == "stale-placement" for v in result.violations)
    # The reverse order (serve, then cutover) is the legal one.
    clean = HistoryRecorder()
    clean.record(
        "shard_serve", actor="ontime", path="read", base=0xBEEF, version=1, tick=9
    )
    clean.record("cutover", actor="rebalancer", base=0xBEEF, version=2, tick=10)
    ok = check_history(clean)
    assert ok.ok, ok.violations()
    assert ok.cutovers_seen == 1
    assert ok.shard_serves_checked == 1


def test_rebalance_soak_smoke():
    """One full soak with a mid-workload migration under fault injection:
    serialisable history, clean fsck, and the migration observable."""
    from repro.sim.explore import SoakConfig, run_soak

    report = run_soak(SoakConfig(seed=1, ops=90, shards=2, rebalance=True))
    assert report.ok, report.violations()
    assert report.rebalances + report.rebalance_aborts >= 1
    line = report.repro_line()
    assert line.startswith("SoakConfig(") and "rebalance=True" in line
    assert report.check.cutovers_seen == report.rebalances


def test_rebalance_soak_requires_sharded_topology():
    """The seed's draw only rebalances a sharded topology, and does
    rebalance both sharded sizes."""
    from repro.sim.explore import SoakConfig

    drawn = [SoakConfig.for_seed(seed, 100, False) for seed in range(1, 201)]
    rebalanced = {config.shards for config in drawn if config.rebalance}
    assert rebalanced == {2, 4}


def test_split_then_migrate_preserves_routing():
    """A split immediately followed by a migration of the new range:
    two epoch bumps, every page still readable, balance audit clean."""
    cluster, history, caps = _workload_cluster(shards=2, servers=1, seed=23)
    service = cluster.shards
    fs = cluster.fs()
    service.split(0, new_port(cluster.rng))
    assert service.placement.epoch == 2
    index = 1  # the new range sits right after its source
    report = service.migrate(index, new_port(cluster.rng), history=history)
    assert report.epoch == 3
    for cap in caps:
        current = fs.current_version(cap)
        for j in range(3):
            fs.read_page(current, PagePath.of(j))
    # New allocations land and read back under the final map.
    handle = fs.create_version(caps[0])
    fs.write_page(handle.version, PagePath.of(0), b"post-reshape write")
    fs.commit(handle.version)
    assert (
        fs.read_page(fs.current_version(caps[0]), PagePath.of(0))
        == b"post-reshape write"
    )
    assert service.consistent()
