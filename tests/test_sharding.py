"""Sharded block storage: placement, balance, failover, batched flushes."""

import pytest

from repro.errors import ServerUnreachable, UnknownShard
from repro.block.sharding import PlacementMap, ShardedBlockService
from repro.core.pathname import PagePath
from repro.obs import Recorder
from repro.obs.report import render_shard_table
from repro.sim.network import Network
from repro.testbed import build_cluster

ROOT = PagePath.ROOT

PORTS = [0x700, 0x701, 0x702, 0x703]


@pytest.fixture
def recorder():
    return Recorder()


@pytest.fixture
def net(recorder):
    network = Network(recorder=recorder)
    recorder.bind_clock(network.clock)
    return network


@pytest.fixture
def service(net):
    return ShardedBlockService(net, PORTS, capacity=64, block_size=256)


@pytest.fixture
def client(net, service):
    return service.client("cli", account=1)


# ---------------------------------------------------------------------------
# the placement map
# ---------------------------------------------------------------------------


def test_shard_map_round_trips_every_number():
    shard_map = PlacementMap.initial(PORTS, stride=100)
    for shard, r in enumerate(shard_map.ranges):
        for local in (1, 37, 100):
            block = r.global_of(local)
            assert shard_map.index_of(block) == shard
            assert shard_map.local_of(block) == local


def test_shard_map_slices_are_disjoint_and_contiguous():
    shard_map = PlacementMap.initial(PORTS[:3], stride=10)
    owners = [shard_map.index_of(block) for block in range(1, 31)]
    assert owners == [0] * 10 + [1] * 10 + [2] * 10


def test_shard_map_rejects_out_of_range():
    shard_map = PlacementMap.initial(PORTS[:2], stride=10)
    with pytest.raises(UnknownShard):
        shard_map.index_of(21)  # beyond the last shard's slice
    with pytest.raises(UnknownShard):
        shard_map.index_of(0)  # nil is never placed
    with pytest.raises(ValueError):
        shard_map.ranges[0].global_of(11)  # local number beyond the stride
    with pytest.raises(ValueError):
        PlacementMap.initial([])


def test_pair_capacity_must_fit_inside_the_stride(net):
    with pytest.raises(ValueError):
        ShardedBlockService(net, [0x900], capacity=32, stride=16)


# ---------------------------------------------------------------------------
# placement and balance
# ---------------------------------------------------------------------------


def test_allocations_spread_round_robin(service, client, recorder):
    blocks = [client.allocate_write(b"data %d" % i) for i in range(20)]
    assert len(set(blocks)) == 20
    assert service.allocation_counts() == [5, 5, 5, 5]
    for shard in range(4):
        assert recorder.metrics.counter(f"shard.s{shard}.allocs").value == 5


def test_reads_route_back_to_the_writing_shard(service, client):
    payloads = {
        client.allocate_write(b"payload %d" % i): b"payload %d" % i
        for i in range(8)
    }
    for block, payload in payloads.items():
        assert client.read(block) == payload
    assert service.consistent()


def test_recover_unions_all_shards(service, client):
    blocks = sorted(client.allocate_write(b"b%d" % i) for i in range(8))
    assert client.recover() == blocks


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_write_many_ships_one_transaction_per_touched_shard(
    service, client, recorder
):
    blocks = [client.allocate() for _ in range(8)]  # two per shard
    writes = [(block, b"batched %d" % i) for i, block in enumerate(blocks)]
    before = recorder.metrics.counter("rpc.write_many").value
    assert client.write_many(writes) == []  # one result per swap: none
    assert recorder.metrics.counter("rpc.write_many").value - before == 4
    for block, payload in writes:
        assert client.read(block) == payload
    assert service.consistent()


def _ship(net, service, client, writes, swaps):
    """Run one ``write_many`` and return its requests in order, as
    ``(shard, pages, swaps)`` — checking, whenever a request carries a
    swap, that every page outside that request is already on both disks
    of its shard (pages before reference)."""
    from repro.sim.rpc import Request

    sent = []

    def durable(block):
        pair = service.pair(client.placement.index_of(block))
        local = client.placement.local_of(block)
        return pair.disk_a.holds(local) and pair.disk_b.holds(local)

    def tracer(sender, dest, payload):
        if sender != "cli" or not isinstance(payload, Request):
            return
        assert payload.command == "write_many"
        shard = next(
            i for i, pair in enumerate(service.pairs) if dest in (pair.a.name, pair.b.name)
        )
        pages, conds = payload.params["writes"], payload.params["swaps"]
        if conds:
            riding = {client.placement.ranges[shard].global_of(b) for b, _ in pages}
            assert all(durable(b) for b, _ in writes if b not in riding)
        sent.append((shard, len(pages), len(conds)))

    net.tracer = tracer
    try:
        results = client.write_many(writes, swaps)
    finally:
        net.tracer = None
    return sent, results


def _version_pages(client, shards):
    """One nil-referenced 'version page' on each of the given shards."""
    pages = {}
    while set(pages) != set(shards):
        block = client.allocate_write(b"\x00" * 4 + b"version")
        shard = client.placement.index_of(block)
        if shard in shards and shard not in pages:
            pages[shard] = block
    return [pages[shard] for shard in shards]


def _swap(block, ref):
    return (block, 0, b"\x00" * 4, ref.to_bytes(4, "big"))


def test_swaps_on_one_shard_ride_its_batch_after_every_other_shard(net, service, client):
    (base,) = _version_pages(client, [2])
    blocks = [client.allocate() for _ in range(8)]  # two per shard
    writes = [(block, b"page %d" % i) for i, block in enumerate(blocks)]
    sent, results = _ship(net, service, client, writes, [_swap(base, blocks[0])])
    # One request per shard; the shard holding the reference goes last and
    # carries the swap behind its own pages.
    assert sent == [(0, 2, 0), (1, 2, 0), (3, 2, 0), (2, 2, 1)]
    assert [r.success for r in results] == [True]
    assert client.read(base)[:4] == blocks[0].to_bytes(4, "big")
    assert service.consistent()


def test_swaps_on_two_shards_follow_every_page(net, service, client):
    bases = _version_pages(client, [3, 1])
    blocks = [client.allocate() for _ in range(4)]  # one per shard
    writes = [(block, b"page %d" % i) for i, block in enumerate(blocks)]
    client.test_and_set(*_swap(bases[1], 99))  # that file has a winner already
    swaps = [_swap(bases[0], blocks[0]), _swap(bases[1], blocks[1])]
    sent, results = _ship(net, service, client, writes, swaps)
    # Pages everywhere first, then the swaps in requests of their own.
    assert sent == [(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0), (1, 0, 1), (3, 0, 1)]
    # Results come back in the order the swaps were given.
    assert [r.success for r in results] == [True, False]
    assert int.from_bytes(results[1].current, "big") == 99
    assert service.consistent()


def test_swap_without_pages_is_one_request(net, service, client):
    (base,) = _version_pages(client, [1])
    sent, results = _ship(net, service, client, [], [_swap(base, 7)])
    assert sent == [(1, 0, 1)] and results[0].success


def test_swap_waits_for_a_page_batch_that_could_not_be_placed(net, service, client):
    """A shard was cut over and no newer map is to be had: its pages are
    not durable, so the reference must not be set."""
    from repro.errors import PlacementStale

    (base,) = _version_pages(client, [3])
    blocks = [client.allocate() for _ in range(4)]
    for half in service.halves(0):
        half.retire(2)
    with pytest.raises(PlacementStale):
        client.write_many(
            [(block, b"page") for block in blocks], [_swap(base, blocks[0])]
        )
    assert client.read(base)[:4] == b"\x00" * 4


def test_allocation_refreshes_a_map_every_shard_of_which_moved(service):
    """Every range of a client's map was cut over: no pair answers an old
    port, so the allocation refetches the map and scans again."""
    stale = service.client("stale", account=1)
    for index in range(len(PORTS)):
        service.migrate(index, 0x800 + index)
    block = stale.allocate_write(b"placed by the fresh map")
    assert stale.placement.epoch == service.placement.epoch == 1 + len(PORTS)
    assert stale.read(block) == b"placed by the fresh map"


def test_recover_refreshes_a_map_that_moved(service, client):
    """The recovery sweep of a client whose map predates a cutover
    refetches the map instead of failing on the retired port."""
    blocks = [client.allocate_write(b"kept") for _ in range(4)]  # one per shard
    service.migrate(0, 0x800)
    assert client.recover() == sorted(blocks)
    assert client.placement.epoch == 2


def test_write_many_replicates_to_both_halves(service, client):
    blocks = [client.allocate() for _ in range(4)]  # one per shard
    client.write_many([(block, b"both halves") for block in blocks])
    for block in blocks:
        shard = client.placement.index_of(block)
        local = client.placement.local_of(block)
        pair = service.pair(shard)
        assert pair.disk_a.read(local) == pair.disk_b.read(local) == b"both halves"


# ---------------------------------------------------------------------------
# failover
# ---------------------------------------------------------------------------


def test_half_failover_within_a_shard(service, client):
    block = client.allocate_write(b"survives")
    service.pair(client.placement.index_of(block)).a.crash()
    assert client.read(block) == b"survives"


def test_allocation_skips_a_down_shard(service, client, recorder):
    for half in service.halves(0):
        half.crash()
    blocks = [client.allocate_write(b"x%d" % i) for i in range(6)]
    assert all(client.placement.index_of(block) != 0 for block in blocks)
    assert service.allocation_counts() == [0, 2, 2, 2]
    assert recorder.metrics.counter("shard.alloc_failover").value >= 1


def test_placed_read_on_a_down_pair_fails_after_one_sweep(
    service, client, net, recorder
):
    """Nothing heals inside a synchronous call on the simulator: the read
    asks each half once and the caller hears the outage at once."""
    block = client.allocate_write(b"gone")
    for half in service.halves(client.placement.index_of(block)):
        half.crash()
    before = net.clock.now
    with pytest.raises(ServerUnreachable):
        client.read(block)
    assert net.clock.now - before == 2 * net.hop_ticks  # two unanswered sends
    assert recorder.metrics.counter("rpc.failovers").value == 1
    assert "rpc.sweeps" not in recorder.metrics.counters


def test_a_recovering_half_fails_over_to_its_twin(service, client, recorder):
    """A restarted half refuses requests until its resync; the read and
    the write go to its twin, which keeps an intention for it."""
    block = client.allocate_write(b"v1")
    pair = service.pair(client.placement.index_of(block))
    pair.a.crash()
    pair.a.restart()
    client.write(block, b"v2")
    assert client.read(block) == b"v2"
    assert recorder.metrics.counter("rpc.failovers").value == 2
    assert pair.a.resync() == 1
    assert service.consistent()


def test_shard_half_recovers_via_resync(service, client):
    block = client.allocate_write(b"v1")
    pair = service.pair(client.placement.index_of(block))
    pair.b.crash()
    client.write(block, b"v2")
    pair.b.restart()
    assert pair.b.resync() >= 1
    assert pair.disk_b.read(client.placement.local_of(block)) == b"v2"
    assert service.consistent()


# ---------------------------------------------------------------------------
# the sharded deployment, end to end
# ---------------------------------------------------------------------------


def test_sharded_cluster_spreads_files_across_all_shards():
    recorder = Recorder()
    cluster = build_cluster(shards=4, servers=1, seed=3, recorder=recorder)
    fs = cluster.fs()
    caps = []
    for i in range(8):
        cap = fs.create_file(b"file %d" % i)
        handle = fs.create_version(cap)
        fs.append_page(handle.version, ROOT, b"page for %d" % i)
        fs.commit(handle.version)
        caps.append(cap)
    for i, cap in enumerate(caps):
        current = fs.current_version(cap)
        assert fs.read_page(current, ROOT) == b"file %d" % i
        assert fs.read_page(current, PagePath.of(0)) == b"page for %d" % i
    # Acceptance: every shard took allocations, and the per-shard metrics
    # surface them (the same counters ``repro stats`` renders).
    assert all(count > 0 for count in cluster.shards.allocation_counts())
    for shard in range(4):
        assert recorder.metrics.counter(f"shard.s{shard}.allocs").value > 0
    table = render_shard_table(recorder.metrics)
    assert "s0" in table and "s3" in table
    assert cluster.shards.consistent()


def test_sharded_cluster_commits_survive_a_half_crash():
    cluster = build_cluster(shards=2, servers=1, seed=5)
    fs = cluster.fs()
    cap = fs.create_file(b"durable")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"committed before crash")
    fs.commit(handle.version)
    for pair in cluster.shards.pairs:
        pair.a.crash()
    assert (
        fs.read_page(fs.current_version(cap), ROOT) == b"committed before crash"
    )


def _commit_flush():
    """The flush span of one 7-page commit on 4 shards."""
    recorder = Recorder()
    cluster = build_cluster(shards=4, servers=1, seed=9, recorder=recorder)
    fs = cluster.fs()
    cap = fs.create_file(b"seed")
    handle = fs.create_version(cap)
    for i in range(6):
        fs.append_page(handle.version, ROOT, b"page %d" % i)
    recorder.tracer.clear()
    fs.commit(handle.version)
    (span,) = recorder.tracer.spans_named("commit")
    return span.find("flush")


def test_whole_pair_outage_during_batched_commit_flush():
    """Both halves of one shard die mid-update: the batched ``write_many``
    flush loses that shard's group, the commit must fail cleanly without
    disturbing the committed state, and after the pair restarts and
    resyncs a redo of the update goes through."""
    from repro.tools.check import check_cluster

    cluster = build_cluster(shards=4, servers=1, seed=11)
    fs = cluster.fs()
    cap = fs.create_file(b"seed")
    setup = fs.create_version(cap)
    for i in range(6):
        fs.append_page(setup.version, ROOT, b"old %d" % i)
    fs.commit(setup.version)

    handle = fs.create_version(cap)
    for i in range(6):
        fs.write_page(handle.version, PagePath.of(i), b"new %d" % i)
    pair = cluster.shards.pair(1)
    pair.a.crash()
    pair.b.crash()
    with pytest.raises(ServerUnreachable):
        fs.commit(handle.version)

    pair.a.restart()
    pair.b.restart()
    pair.a.resync()
    pair.b.resync()
    # The committed state never moved: every page still reads pre-update.
    current = fs.current_version(cap)
    for i in range(6):
        assert fs.read_page(current, PagePath.of(i)) == b"old %d" % i
    # The client's redo path: abort the stranded update, run it again.
    fs.abort(handle.version)
    redo = fs.create_version(cap)
    for i in range(6):
        fs.write_page(redo.version, PagePath.of(i), b"new %d" % i)
    fs.commit(redo.version)
    current = fs.current_version(cap)
    for i in range(6):
        assert fs.read_page(current, PagePath.of(i)) == b"new %d" % i
    assert cluster.shards.consistent()
    assert check_cluster(cluster).ok


def test_foreign_server_cannot_touch_an_in_flight_update():
    """An uncommitted version's pages may still sit in its manager's
    deferred write buffer; a replica that cannot see that buffer must
    refuse to read, write, or commit the version (else a failover commit
    would publish a version whose pages are not durable)."""
    from repro.errors import NotManagingServer

    cluster = build_cluster(shards=2, servers=2, seed=13)
    fs0, fs1 = cluster.fs(0), cluster.fs(1)
    cap = fs0.create_file(b"seed")
    setup = fs0.create_version(cap)
    fs0.append_page(setup.version, ROOT, b"page 0")
    fs0.commit(setup.version)

    handle = fs0.create_version(cap)
    fs0.write_page(handle.version, PagePath.of(0), b"in flight")
    with pytest.raises(NotManagingServer):
        fs1.write_page(handle.version, PagePath.of(0), b"hijack")
    with pytest.raises(NotManagingServer):
        fs1.commit(handle.version)
    # The managing server itself is unaffected.
    fs0.commit(handle.version)
    assert fs1.read_page(fs1.current_version(cap), PagePath.of(0)) == b"in flight"


def test_batched_flush_reduces_messages_per_commit():
    """Acceptance: a commit flush costs one replicated request (4
    messages: request, companion exchange, reply) per touched shard, fewer
    than a page-by-page flush's one request per page plus the swap's."""
    flush = _commit_flush()
    pages = flush.tags["pages"]
    messages = sum(s.counters.get("net.messages", 0) for s in flush.walk())
    assert pages == 7
    assert messages <= 4 * 4 < 4 * (pages + 1)