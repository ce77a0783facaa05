"""Claim C7: companion-pair stable storage (§4).

"These collisions are detected, however, before any damage is done,
because writes are always carried out on the companion disk first."

The table: the message cost of replicated writes, collision detection
outcomes, read failover, and crash/resync cost.
"""

import pytest

from repro.errors import CompanionConflict
from repro.block.stable import StablePair
from repro.block.sharding import ShardedBlockClient
from repro.sim.network import Network


def _pair(capacity=1 << 20, **backend):
    net = Network()
    pair = StablePair(net, 0x900, capacity=capacity, block_size=512, **backend)
    client = ShardedBlockClient(net, "cli", [0x900], account=1)
    return net, pair, client


def test_c7_replicated_write_cost(benchmark, report, disk_backend):
    net, pair, client = _pair(**disk_backend())

    def one_write():
        return client.allocate_write(b"x" * 256)

    benchmark(one_write)
    before = net.stats.messages
    client.allocate_write(b"y" * 256)
    cost = net.stats.messages - before
    report.row(f"messages per replicated allocate+write: {cost}")
    report.row("(client->A request/reply + A->B companion_write_many request/reply)")
    assert cost == 4
    assert pair.consistent()


def test_c7_collisions_detected_before_damage(benchmark, report, disk_backend):
    outcomes = {"detected": 0}

    def collision_round():
        net, pair, client = _pair(**disk_backend())
        block = client.allocate_write(b"base")
        op = pair.a.begin_batch(1, [(block, b"via A")])
        with pytest.raises(CompanionConflict):
            pair.b.cmd_write(1, block, b"via B")
        pair.a.finish_op(op)
        assert pair.disk_a.read(block) == pair.disk_b.read(block) == b"via A"
        assert pair.consistent()
        outcomes["detected"] += 1

    benchmark(collision_round)
    report.row(f"simultaneous-write collisions injected: {outcomes['detected']} rounds")
    report.row("every one detected at the companion step; disks never diverged")


def test_c7_read_failover_and_repair(benchmark, report, disk_backend):
    net, pair, client = _pair(**disk_backend())
    blocks = [client.allocate_write(b"block%d" % i) for i in range(8)]
    for block in blocks:
        pair.disk_a.corrupt(block)

    def read_all():
        return [client.read(block) for block in blocks]

    data = benchmark(read_all)
    assert data == [b"block%d" % i for i in range(8)]
    report.row("8 corrupted local blocks: all served via the companion and")
    report.row("repaired in place")
    assert pair.consistent()


def test_c7_crash_resync_cost(benchmark, report, disk_backend):
    costs = {}

    def crash_cycle():
        net, pair, client = _pair(**disk_backend())
        for i in range(4):
            client.allocate_write(b"pre%d" % i)
        pair.b.crash()
        for i in range(6):
            client.allocate_write(b"during%d" % i)
        pair.b.restart()
        applied = pair.b.resync()
        costs["intentions"] = applied
        assert pair.consistent()
        return applied

    benchmark(crash_cycle)
    report.row(f"writes missed during the outage: 6; intentions replayed: {costs['intentions']}")
    report.row("after resync both disks are bit-identical")
