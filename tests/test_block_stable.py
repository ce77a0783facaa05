"""Companion-pair stable storage (§4): replication, collisions, recovery."""

import pytest

from repro.errors import CompanionConflict, ServerCrashed, ServerUnreachable
from repro.capability import new_port
from repro.block.stable import EXTENT, StablePair
from repro.block.sharding import ShardedBlockClient
from repro.obs import Recorder
from repro.sim.faults import DropPolicy
from repro.sim.network import Network


@pytest.fixture
def net():
    return Network()


@pytest.fixture
def pair(net, disk_backend):
    # Runs the whole suite twice: simulated memory AND the durable
    # file-backed disk, so every §4 invariant holds on real files too.
    pair = StablePair(net, 0x500, capacity=64, block_size=256, **disk_backend())
    yield pair
    pair.close()


@pytest.fixture
def client(net, pair):
    return ShardedBlockClient(net, "cli", [0x500], account=1)


def test_write_lands_on_both_disks(pair, client):
    block = client.allocate_write(b"twice")
    assert pair.disk_a.read(block) == pair.disk_b.read(block)
    assert pair.consistent()


def test_companion_first_ordering(pair):
    """The companion's disk is written before the receiving server's."""
    op = pair.a.begin_batch(1, [(pair.a._choose_block(), b"data")], adopt=True)
    (block,) = op.blocks
    # After the begin (companion step), B has the block, A does not yet.
    assert pair.disk_b.holds(block) and pair.b.local.owner_of(block) == 1
    assert not pair.disk_a.holds(block) and pair.a.local.owner_of(block) is None
    pair.a.finish_op(op)
    assert pair.disk_a.holds(block) and pair.a.local.owner_of(block) == 1


def test_read_served_locally(pair, client, net):
    block = client.allocate_write(b"x")
    reads_b = pair.disk_b.stats.reads
    client.read(block)
    assert pair.disk_b.stats.reads == reads_b  # companion not consulted


def test_corrupted_read_repaired_from_companion(pair, client):
    block = client.allocate_write(b"precious")
    pair.disk_a.corrupt(block)
    assert client.read(block) == b"precious"
    # Local copy was repaired in place.
    assert pair.disk_a.read(block) == b"precious"


def test_allocate_collision_detected(pair):
    """Both halves pick the same number simultaneously; the op whose
    companion step arrives second is refused before any damage."""
    op_a = pair.a._new_batch(1, [(pair.a._choose_block(), b"A")], [], adopt=True)
    op_b = pair.b._new_batch(1, [(pair.b._choose_block(), b"B")], [], adopt=True)
    assert op_a.blocks == op_b.blocks  # the accidental collision
    # A's companion step reaches B, which has its own pending op: refused.
    with pytest.raises(CompanionConflict):
        pair.a._companion_step(op_a)
    assert not pair.a._pending and not pair.disk_b.holds(op_b.blocks[0])
    # B's operation proceeds unharmed.
    pair.b._companion_step(op_b)
    pair.b.finish_op(op_b)
    assert pair.consistent()
    # A retries (the whole allocate_write) and gets a different block.
    retry = pair.a.cmd_allocate_write(1, b"A")
    assert retry != op_b.blocks[0]
    assert pair.disk_a.read(retry) == pair.disk_b.read(retry) == b"A"
    assert pair.consistent()


def test_write_collision_detected(pair, client, net):
    block = client.allocate_write(b"base")
    op_a = pair.a.begin_batch(1, [(block, b"via A")])
    # A second client writes the same block through B while A's op is in
    # flight: B's companion step reaches A, which has a pending marker.
    with pytest.raises(CompanionConflict):
        pair.b.cmd_write(1, block, b"via B")
    pair.a.finish_op(op_a)
    assert pair.disk_a.read(block) == pair.disk_b.read(block) == b"via A"
    # After completion the other write goes through.
    pair.b.cmd_write(1, block, b"via B")
    assert pair.disk_a.read(block) == pair.disk_b.read(block) == b"via B"


def test_same_server_overlap_is_conflict(pair, client):
    block = client.allocate_write(b"base")
    op = pair.a.begin_batch(1, [(block, b"first")])
    with pytest.raises(CompanionConflict):
        pair.a.begin_batch(1, [(block, b"second")])
    pair.a.finish_op(op)
    assert pair.disk_a.read(block) == pair.disk_b.read(block) == b"first"


def test_client_fails_over_to_companion(pair, client):
    block = client.allocate_write(b"durable")
    pair.a.crash()
    assert client.read(block) == b"durable"


def test_writes_while_companion_down_use_intentions(pair, client):
    block = client.allocate_write(b"v1")
    pair.b.crash()
    client.write(block, b"v2")  # served by A alone, intention recorded
    fresh = client.allocate_write(b"new")  # also A alone
    assert pair.disk_a.read(block) == b"v2"
    assert not pair.disk_b.holds(fresh)
    # B restarts: refuses clients until resync, then catches up.
    pair.b.restart()
    with pytest.raises(ServerCrashed):
        pair.b.cmd_read(1, block)
    applied = pair.b.resync()
    assert applied >= 2
    assert pair.disk_b.read(block) == b"v2"
    assert pair.disk_b.read(fresh) == b"new"
    assert pair.consistent()


def test_a_write_while_the_companion_recovers_is_an_intention_too(pair, client):
    """B has restarted but not resynced: a write through A must not land
    on B, where the resync would then replay the older intention over it.
    B refuses, A records an intention, and the resync replays both in
    order."""
    block = client.allocate_write(b"v0")
    pair.b.crash()
    client.write(block, b"v1")  # A alone: an intention for B
    pair.b.restart()
    client.write(block, b"v2")  # B refuses until resynced: an intention
    assert pair.disk_b.read(block) == b"v0"
    assert pair.b.resync() == 2
    assert pair.disk_a.read(block) == pair.disk_b.read(block) == b"v2"
    assert pair.consistent()


def test_a_recovering_companion_serves_no_repair(pair, client):
    """A corrupt block is not repaired from a half that has not resynced:
    its copy predates the writes it missed.  The read fails, typed, until
    the resync; then the repair comes from a current copy."""
    block = client.allocate_write(b"v0")
    pair.b.crash()
    client.write(block, b"v1")
    pair.b.restart()
    pair.disk_a.corrupt(block)
    with pytest.raises(ServerCrashed):
        client.read(block)
    pair.b.resync()
    assert client.read(block) == b"v1"
    assert pair.disk_a.read(block) == pair.disk_b.read(block) == b"v1"


def test_recovering_half_refuses_every_companion_command_but_the_resyncs(pair, client):
    block = client.allocate_write(b"v0")
    pair.b.crash()
    pair.b.restart()
    for call in (
        lambda: pair.b.cmd_companion_write_many("blockA", 1, [(block, b"x")]),
        lambda: pair.b.cmd_companion_reserve_many(1, [block + 1]),
        lambda: pair.b.cmd_companion_free(1, block),
        lambda: pair.b.cmd_companion_read(1, block),
        lambda: pair.b.cmd_companion_pooled(),
    ):
        with pytest.raises(ServerCrashed):
            call()
    assert pair.b.cmd_fetch_intentions() == []
    pair.b.cmd_ack_intentions(0)
    assert pair.disk_b.read(block) == b"v0"


def test_resync_ends_only_on_an_empty_fetch(pair, client):
    """A write that reaches the origin while the half is mid-resync is
    refused by the half and recorded; the resync fetches again and
    applies it before it leaves recovery."""
    block = client.allocate_write(b"v0")
    pair.b.crash()
    client.write(block, b"v1")
    pair.b.restart()
    apply = pair.b.local.write_many
    raced = []

    def apply_then_race(*args, **kwargs):
        apply(*args, **kwargs)
        if not raced:
            raced.append(client.write(block, b"v2"))  # between fetch and ack

    pair.b.local.write_many = apply_then_race
    assert pair.b.resync() == 2
    assert pair.a._intentions == [] and pair.b.available
    assert pair.disk_a.read(block) == pair.disk_b.read(block) == b"v2"


def test_a_batch_the_companion_refuses_leaves_no_marker(pair):
    """Not only a conflict: any refusal at the companion step drops the
    origin's markers, so the block is not held pending for ever."""
    from repro.errors import NotBlockOwner

    pair.b.local.reserve(7, [5])  # B holds 5 for another account
    with pytest.raises(NotBlockOwner):
        pair.a.begin_batch(1, [(5, b"x")], adopt=True)
    assert not pair.a._pending and not pair.disk_a.holds(5)
    pair.b.local.free(7, 5)
    pair.a.finish_op(pair.a.begin_batch(1, [(5, b"x")], adopt=True))
    assert pair.disk_a.read(5) == pair.disk_b.read(5) == b"x"


def test_crash_during_resync_loses_nothing(pair, client):
    """The two-phase resync: a crash after fetching but before finishing
    the apply leaves the intentions at the companion; the next resync
    re-applies them (idempotently)."""
    block = client.allocate_write(b"v1")
    pair.b.crash()
    client.write(block, b"v2")
    client.write(block, b"v3")
    pair.b.restart()
    # Simulate a crash mid-resync: fetch (non-destructively), apply only
    # the first intention, then die before acknowledging.
    intentions = pair.b._call_companion("fetch_intentions")
    assert len(intentions) == 2
    first = intentions[0]
    pair.b.local.write_many(first.account, [(first.block_no, first.data)])
    pair.b.crash()
    # The intentions are all still at A.
    assert len(pair.a._intentions) == 2
    # A full restart + resync completes the job.
    pair.b.restart()
    applied = pair.b.resync()
    assert applied == 2
    assert pair.disk_b.read(block) == b"v3"
    assert pair.consistent()
    # And the acknowledged list is gone.
    assert pair.a._intentions == []


def test_free_replicates(pair, client):
    block = client.allocate_write(b"bye")
    client.free(block)
    assert not pair.disk_a.holds(block)
    assert not pair.disk_b.holds(block)


def test_free_while_companion_down(pair, client):
    block = client.allocate_write(b"x")
    pair.b.crash()
    client.free(block)
    pair.b.restart()
    pair.b.resync()
    assert not pair.disk_b.holds(block)


def test_test_and_set_through_pair(pair, client):
    block = client.allocate_write(b"ref:" + b"\x00" * 4)
    result = client.test_and_set(block, 4, b"\x00" * 4, b"\x00\x00\x00\x07")
    assert result.success
    assert pair.disk_a.read(block) == pair.disk_b.read(block)
    # Second CAS with stale expectation fails and reports the winner.
    result2 = client.test_and_set(block, 4, b"\x00" * 4, b"\x00\x00\x00\x09")
    assert not result2.success
    assert result2.current == b"\x00\x00\x00\x07"


def test_recover_lists_blocks(pair, client):
    blocks = {client.allocate_write(b"%d" % i) for i in range(4)}
    assert set(client.recover()) == blocks


def test_reserve_then_write(pair, net):
    """Deferred-write allocation: number reserved on both halves first."""
    client = ShardedBlockClient(net, "cli", [0x500], account=1)
    block = client.allocate()
    assert pair.a.local.owner_of(block) == 1
    assert pair.b.local.owner_of(block) == 1
    client.write(block, b"later")
    assert pair.disk_a.read(block) == b"later"
    assert pair.consistent()


def test_crashed_half_rejects_companion_traffic(pair):
    pair.b.crash()
    with pytest.raises((ServerCrashed, ServerUnreachable)):
        pair.b.cmd_companion_write_many("blockA", 1, [(5, b"x")])


def _verb(name, client, page, ref):
    """Drive one write verb of the block service."""
    if name == "write":
        client.write(page, b"w")
    elif name == "allocate_write":
        client.allocate_write(b"w")
    elif name == "test_and_set":
        client.test_and_set(ref, 0, b"v0", b"v1")
    elif name == "write_many":
        client.write_many([(page, b"w")], [(ref, 0, b"v0", b"v1")])
    else:  # a migration target installing a streamed block at number 40
        client.txn.call(0x530, "ingest", account=1, block_no=40, data=b"w")


@pytest.mark.parametrize(
    "verb", ["write", "allocate_write", "test_and_set", "write_many", "ingest"]
)
def test_every_write_verb_reaches_the_companion_as_one_batch(net, verb):
    pair = StablePair(net, 0x530, capacity=64, block_size=64)
    client = ShardedBlockClient(net, "cli", [0x530], account=1)
    page, ref = client.allocate_write(b"v0"), client.allocate_write(b"v0")
    sent = []
    net.tracer = lambda sender, dest, payload: sent.append(payload.command)
    _verb(verb, client, page, ref)
    assert sent == [verb, "companion_write_many"]
    assert pair.consistent() and not pair.a._pending


# -- the observability layer watching the pair -------------------------------


@pytest.fixture
def recorder():
    return Recorder()


@pytest.fixture
def obs_pair(recorder):
    net = Network(recorder=recorder)
    recorder.bind_clock(net.clock)
    return StablePair(net, 0x500, capacity=64, block_size=256, recorder=recorder)


def test_span_shows_companion_first_write_order(obs_pair, recorder):
    """The §4 ordering — "writes are always carried out on the companion
    disk first" — read straight off the span's event stream."""
    with recorder.span("stable.write") as span:
        block = obs_pair.a.cmd_allocate_write(1, b"replicated")
    writes = span.events_named("disk.write")
    assert [event.tags["disk"] for event in writes] == ["blockB", "blockA"]
    assert writes[0].tick < writes[1].tick
    assert writes[0].tags["block"] == writes[1].tags["block"] == block
    assert span.counters["rpc.companion_write_many"] == 1


def test_span_shows_only_companion_write_when_origin_crashes(obs_pair, recorder):
    """Inject a crash between the companion write and the local write: the
    span records exactly one disk write — the companion's — and the data
    is already durable there (why companion-first is crash-safe)."""
    with recorder.span("stable.write") as span:
        op = obs_pair.a.begin_batch(1, [(1, b"half-written")], adopt=True)
        obs_pair.a.crash()  # the origin dies before its own write
    writes = span.events_named("disk.write")
    assert [event.tags["disk"] for event in writes] == ["blockB"]
    assert obs_pair.disk_b.read(1) == b"half-written"
    assert not obs_pair.disk_a.holds(1)
    with pytest.raises(ServerCrashed):
        obs_pair.a.finish_op(op)


def test_resync_metrics_count_applied_intentions(obs_pair, recorder):
    block = obs_pair.a.cmd_allocate_write(1, b"v1")
    obs_pair.b.crash()
    obs_pair.a.cmd_write(1, block, b"v2")
    intents = recorder.metrics.counter("stable.intention").value
    assert intents == 1
    obs_pair.b.restart()
    obs_pair.b.resync()
    assert recorder.metrics.counter("stable.resync_applied").value == 1
    assert obs_pair.consistent()


# -- regressions: checked reads, retransmit accounting ----------------------


def test_tas_repairs_corrupted_local_copy(pair, client):
    """The compare of a test-and-set must run against verified data: with
    the local copy corrupted, the TAS still succeeds via the companion's
    copy and repairs the local block in place."""
    block = client.allocate_write(b"R" * 8)
    pair.disk_a.corrupt(block)
    result = client.test_and_set(block, 0, b"R" * 8, b"S" * 8)
    assert result.success
    assert pair.disk_a.read(block) == b"S" * 8
    assert pair.disk_b.read(block) == b"S" * 8
    assert pair.consistent()


def test_tas_on_corrupt_block_does_not_false_fail(pair, client):
    """A corrupted local block used to feed garbage into the compare,
    falsely failing (or passing) the swap; the checked read prevents it."""
    block = client.allocate_write(b"expected")
    pair.disk_a.corrupt(block)
    result = client.test_and_set(block, 0, b"WRONG!!!", b"ignored!")
    assert not result.success
    assert result.current == b"expected"  # the true bytes, not garbage


def test_a_swap_taken_through_one_half_is_refused_through_the_other(pair, client):
    """§5.2's critical section survives a half crash: a swap replicates
    companion-first, so a client failing over to the surviving half finds
    the reference already set and loses the race."""
    block = client.allocate_write(b"\x00" * 4)
    assert client.test_and_set(block, 0, b"\x00" * 4, b"\x00\x00\x00\x07").success
    pair.a.crash()
    lost = client.test_and_set(block, 0, b"\x00" * 4, b"\x00\x00\x00\x08")
    assert not lost.success and lost.current == b"\x00\x00\x00\x07"


def test_companion_retransmissions_counted_distinctly():
    """A dropped companion message is retransmitted by the transaction
    loop: the exchange is one ``rpc.companion_write_many`` event and the
    retransmission is counted apart, as ``rpc.retries``."""
    recorder = Recorder()
    net = Network(recorder=recorder)
    recorder.bind_clock(net.clock)
    pair = StablePair(net, 0x500, capacity=64, block_size=256)
    client = ShardedBlockClient(net, "cli", [0x500], account=1)
    block = client.allocate_write(b"v1")
    base_rpc = recorder.metrics.counter("rpc.companion_write_many").value
    # Drop exactly the companion-write message of the next write (send 1
    # is client->A, send 2 is A->B).
    net.drop_policy = DropPolicy(drop_nth=frozenset({2}))
    with recorder.span("stable.write") as span:
        client.write(block, b"v2")
    assert recorder.metrics.counter("rpc.companion_write_many").value - base_rpc == 1
    assert recorder.metrics.counter("rpc.retries").value == 1
    assert span.counters["rpc.companion_write_many"] == 1
    assert span.counters["rpc.retries"] == 1
    assert pair.disk_b.read(block) == b"v2"
    assert pair.consistent()


def test_allocation_probe_cost_stays_linear(net):
    """The rotating cursor keeps allocation O(1) amortised: 500 allocations
    probe O(n) blocks in total, not the O(n^2) a rescan-from-1 policy
    costs (~125k probes here)."""
    pair = StablePair(net, 0x510, capacity=2048, block_size=64)
    client = ShardedBlockClient(net, "cli", [0x510], account=1)
    probed = {"total": 0}
    original = pair.disk_a.first_free

    def probing(start=1):
        result = original(start)
        probed["total"] += result - start + 1
        return result

    pair.disk_a.first_free = probing
    n = 500
    for _ in range(n):
        client.allocate_write(b"x")
    assert probed["total"] <= 4 * n


def test_allocation_cursor_wraps_to_find_free_space(net):
    """DiskFull at the cursor must not be final while free blocks remain
    below it: the search wraps to block 1 once."""
    from repro.errors import DiskFull

    pair = StablePair(net, 0x511, capacity=8, block_size=64)
    client = ShardedBlockClient(net, "cli", [0x511], account=1)
    blocks = [client.allocate_write(b"fill") for _ in range(8)]
    with pytest.raises(DiskFull):
        client.allocate_write(b"no room")
    # first_free only returns never-written numbers, so exhaustion is
    # permanent on this medium — but the wrap itself must happen: the
    # cursor sits past the end and a fresh DiskFull is raised only after
    # rescanning from 1.
    assert pair.a._alloc_cursor > 8
    assert len(blocks) == 8


# -- reservation extents and the pool -----------------------------------------


def _owners(half):
    return {b: half.local.owner_of(b) for b in half.local.allocated_blocks()}


def test_allocate_reserves_an_extent_with_one_exchange_and_one_sync_per_half(
    pair, client, net
):
    syncs = lambda: [getattr(d, "fsyncs", 0) for d in (pair.disk_a, pair.disk_b)]
    before = syncs()
    block = client.allocate()
    # The whole extent is owned by the requester on both disks at once...
    assert _owners(pair.a) == _owners(pair.b) == dict.fromkeys(range(1, EXTENT + 1), 1)
    assert block == 1 and list(pair.a._pool) == list(range(2, EXTENT + 1))
    if hasattr(pair.disk_a, "fsyncs"):
        # (a new segment's first sync also syncs the directory entry)
        assert [now - then for now, then in zip(syncs(), before)] in ([1, 1], [2, 2])
    # ...and what follows is answered from memory: no message, no sync.
    messages, before = net.stats.messages, syncs()
    rest = [client.allocate() for _ in range(EXTENT - 1)]
    assert rest == list(range(2, EXTENT + 1))
    assert net.stats.messages - messages == 2 * len(rest)
    assert syncs() == before and not pair.a._pool
    # A number handed out is as durable as it ever was: the deferred write
    # lands on it, on both halves.
    client.write(rest[-1], b"later")
    assert pair.disk_a.read(rest[-1]) == pair.disk_b.read(rest[-1]) == b"later"


def _overlap_steps():
    """Every interleaving of {A, B} x {companion step, finish} that keeps
    each half's own order — after both marked the same extent pending."""
    from itertools import permutations

    steps = [("a", "step"), ("a", "finish"), ("b", "step"), ("b", "finish")]
    return [
        order
        for order in permutations(steps)
        if order.index(("a", "step")) < order.index(("a", "finish"))
        and order.index(("b", "step")) < order.index(("b", "finish"))
    ]


@pytest.mark.parametrize("order", _overlap_steps(), ids=lambda o: "-".join(h + s[0] for h, s in o))
def test_overlapping_extents_collide_once_before_either_disk_changed(pair, order):
    halves = {"a": pair.a, "b": pair.b}
    ops = {name: half._new_extent(1) for name, half in halves.items()}
    assert ops["a"].blocks == ops["b"].blocks  # the accidental collision
    lost = []
    for name, step in order:
        if name in lost:
            continue  # its request was refused; the client retries later
        if step == "finish":
            halves[name].finish_op(ops[name])
            continue
        disks = (_owners(pair.a), _owners(pair.b))
        try:
            halves[name]._companion_step(ops[name])
        except CompanionConflict:
            lost.append(name)
            assert (_owners(pair.a), _owners(pair.b)) == disks  # no damage
    assert len(lost) == 1
    (winner,) = set(halves) - set(lost)
    assert _owners(pair.a) == _owners(pair.b) == dict.fromkeys(ops[winner].blocks, 1)
    # The loser's retry takes disjoint numbers.
    retry = halves[lost[0]].begin_reserve(1)
    assert not set(retry.blocks) & set(ops[winner].blocks)
    halves[lost[0]].finish_op(retry)
    assert _owners(pair.a) == _owners(pair.b)
    assert len(_owners(pair.a)) == 2 * EXTENT
    assert not pair.a._pending and not pair.b._pending


def test_partly_overlapping_extents_collide_too(pair, client):
    taken = [client.allocate_write(b"x") for _ in range(8)]
    for block in taken:
        client.free(block)  # A's cursor is past them, B's is not
    op_a = pair.a._new_extent(1)
    op_b = pair.b._new_extent(1)
    assert set(op_a.blocks) != set(op_b.blocks)
    assert set(op_a.blocks) & set(op_b.blocks)
    with pytest.raises(CompanionConflict):
        pair.a._companion_step(op_a)
    assert not _owners(pair.a) and not _owners(pair.b)
    pair.b._companion_step(op_b)
    pair.b.finish_op(op_b)
    assert _owners(pair.a) == _owners(pair.b) == dict.fromkeys(op_b.blocks, 1)


def test_companion_refuses_an_extent_holding_a_number_it_already_owns(pair):
    """Not only a pending marker: an owned number refuses the whole
    extent, before any of it is recorded."""
    pair.b.local.reserve(7, [5])
    with pytest.raises(CompanionConflict):
        pair.a.begin_reserve(1, [4, 5, 6])
    assert not _owners(pair.a) and _owners(pair.b) == {5: 7}
    assert not pair.a._pending


def test_pooled_numbers_are_in_no_recover_and_no_manifest(pair, client):
    block = client.allocate()
    assert len(pair.a._pool) == EXTENT - 1
    assert client.recover() == [block]
    assert pair.a.cmd_manifest() == [(block, 1)]
    # Through the other half as well: recover asks the companion what it
    # still holds, so no collector snapshot names a number A can hand out.
    assert pair.b.cmd_recover(1) == [block]
    # With A gone its pool is gone, and the numbers are plain orphans.
    pair.a.crash()
    assert pair.b.cmd_recover(1) == list(range(1, EXTENT + 1))


def test_freeing_a_pooled_number_through_either_half_takes_it_out(pair, client):
    client.allocate()
    pooled = list(pair.a._pool)
    pair.a.cmd_free(1, pooled[0])
    pair.b.cmd_free(1, pooled[1])  # reaches A as a companion_free
    assert list(pair.a._pool) == pooled[2:]
    handed = [client.allocate() for _ in pooled[2:]]
    assert handed == pooled[2:]
    assert client.allocate() not in pooled  # a new extent, not a freed number
    assert pair.consistent()


def test_pool_is_per_account(pair, net):
    one = ShardedBlockClient(net, "one", [0x500], account=1)
    two = ShardedBlockClient(net, "two", [0x500], account=2)
    a, b = one.allocate(), two.allocate()
    assert pair.a.local.owner_of(a) == 1 and pair.a.local.owner_of(b) == 2
    assert pair.a.local.owner_of(two.allocate()) == 2
    assert pair.a.local.owner_of(one.allocate()) == 1


def test_extent_is_capped_by_what_is_free_then_disk_full(net, disk_backend):
    from repro.errors import DiskFull

    pair = StablePair(net, 0x520, capacity=20, block_size=64, **disk_backend())
    client = ShardedBlockClient(net, "cli", [0x520], account=1)
    try:
        first = [client.allocate() for _ in range(EXTENT)]
        assert not pair.a._pool
        rest = [client.allocate() for _ in range(4)]  # an extent of four
        assert not pair.a._pool
        assert sorted(first + rest) == list(range(1, 21))
        with pytest.raises(DiskFull):
            client.allocate()
        assert not pair.a._pending
        assert _owners(pair.a) == _owners(pair.b)
    finally:
        pair.close()


def test_extent_reserved_while_companion_down_is_resynced(pair, client):
    pair.b.crash()
    block = client.allocate()
    assert len(pair.a._intentions) == EXTENT
    assert not _owners(pair.b)
    pair.b.restart()
    assert pair.b.resync() == EXTENT
    assert _owners(pair.b) == _owners(pair.a)
    client.write(block, b"both")
    assert pair.disk_b.read(block) == b"both"


def test_crash_with_a_warm_pool_leaks_only_orphans_the_collector_reaps(disk_backend):
    """What a half forgets across a restart is its pool and nothing else:
    the numbers stay owned on both disks, are never handed out again, and
    the garbage collector's sweep frees them like any orphan."""
    from repro.core.gc import GarbageCollector
    from repro.core.pathname import PagePath
    from repro.testbed import build_cluster

    cluster = build_cluster(seed=31, disk_capacity=256, **disk_backend())
    try:
        fs, pair = cluster.fs(), cluster.pair
        cap = fs.create_file(b"v0")
        handle = fs.create_version(cap)
        fs.write_page(handle.version, PagePath.ROOT, b"v1")
        fs.commit(handle.version)
        lost = sorted(pair.a._pool)
        assert lost
        pair.a.crash()
        pair.a.restart()
        pair.a.resync()
        assert not pair.a._pool
        for half in pair.halves():
            assert all(half.local.owner_of(b) is not None for b in lost)
            assert not any(half.local.disk.holds(b) for b in lost)
        # New allocations never reuse a forgotten number...
        handle = fs.create_version(cap)
        fs.write_page(handle.version, PagePath.ROOT, b"v2")
        fs.commit(handle.version)
        in_use = set(fs.store.blocks.recover()) - set(lost)
        assert in_use
        # ...and the sweep takes exactly the orphans (and the new pool is
        # not its to see).
        pooled = sorted(pair.a._pool)
        stats = GarbageCollector(fs).collect()
        assert not stats.sweep_skipped and stats.swept >= len(lost)
        for half in pair.halves():
            assert all(half.local.owner_of(b) is None for b in lost)
        assert sorted(pair.a._pool) == pooled
        assert fs.read_page(fs.current_version(cap), PagePath.ROOT) == b"v2"
        assert pair.consistent()
    finally:
        cluster.close()
