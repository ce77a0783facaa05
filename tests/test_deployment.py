"""One deployment builder, one cluster handle.

``testbed.assemble`` hangs every deployment on its network; the four
``build_*`` functions differ only in the network and the block tier they
hand it.  What follows from that, checked here: every builder returns
the same :class:`~repro.testbed.Cluster` with the same working surface,
and a seed names the same topology — paper ports, daemon directory,
epoch-1 placement — on the simulator and over sockets.
"""

from __future__ import annotations

import pytest

from repro.core.pathname import PagePath
from repro.net import build_tcp_cluster
from repro.testbed import Cluster, build_cluster, build_hybrid_cluster

ROOT = PagePath.ROOT

BUILDERS = {
    "pair": lambda: build_cluster(servers=2, seed=5),
    "sharded": lambda: build_cluster(shards=3, servers=2, seed=5),
    "hybrid": lambda: build_hybrid_cluster(servers=2, seed=5),
    "tcp": lambda: build_tcp_cluster(servers=2, seed=5),
    "tcp-sharded": lambda: build_tcp_cluster(servers=2, shards=3, seed=5),
}


def _disks(cluster):
    return [disk for pair in cluster.pairs for disk in (pair.disk_a, pair.disk_b)]


@pytest.mark.parametrize("teardown", ["close", "stop"])
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_every_builder_returns_the_same_working_handle(build, teardown):
    cluster = build()
    closed = []
    try:
        assert type(cluster) is Cluster
        assert [fs.name for fs in cluster.servers] == ["fs0", "fs1"]
        assert len(cluster.endpoints) == 2

        client = cluster.client("host")
        cap = client.create_file(b"created")
        client.transact(cap, lambda u: u.write(ROOT, b"committed"))
        assert client.read(cap) == b"committed"
        # Any server serves any file: the table and the issuer are shared.
        assert cluster.fs(1).read_page(cluster.fs(1).current_version(cap), ROOT) == (
            b"committed"
        )

        for disk in _disks(cluster):
            disk.close = lambda disk=disk, release=disk.close: (
                closed.append(disk),
                release(),
            )
    finally:
        getattr(cluster, teardown)()
    assert closed == _disks(cluster)
    # A network that hosts daemons has stopped them; the simulator has none.
    hosts_daemons = hasattr(cluster.network, "daemon")
    assert cluster.network.is_up("fs0") == (not hosts_daemons)


def test_one_pair_is_the_one_shard_deployment():
    """The default deployment is a placement map of one companion pair:
    shard 0's range starts at block 1, so its numbers are the pair's own,
    and the file server reaches it through the shard-routing client."""
    from repro.block.sharding import ShardedBlockClient

    cluster = build_cluster(servers=2, seed=5)
    (only,) = cluster.shards.placement.ranges
    assert only.lo == 1 and only.port == cluster.block_port
    assert cluster.pairs == [cluster.pair] == cluster.shards.pairs
    assert [cluster.pair.a.name, cluster.pair.b.name] == ["shard0A", "shard0B"]
    for fs in cluster.servers:
        assert isinstance(fs.store.blocks, ShardedBlockClient)
    cap = cluster.fs().create_file(b"one shard")
    block = cluster.registry.file(cap.obj).entry_block
    assert cluster.pair.disk_a.peek(block) == cluster.pair.disk_b.peek(block)


def test_one_seed_names_one_topology_on_both_wires():
    sim = build_cluster(servers=2, seed=23)
    tcp = build_tcp_cluster(servers=2, seed=23)
    try:
        assert (tcp.block_port, tcp.service_port) == (sim.block_port, sim.service_port)
    finally:
        tcp.stop()

    sim = build_cluster(shards=3, seed=23)
    tcp = build_tcp_cluster(shards=3, seed=23)
    try:
        assert tcp.shards.ports == sim.shards.ports
        assert (tcp.block_port, tcp.service_port) == (sim.block_port, sim.service_port)
    finally:
        tcp.stop()


def test_sharded_discovery_publishes_the_same_directory_on_both_wires():
    sim = build_cluster(shards=2, servers=2, seed=31, discovery=True)
    tcp = build_tcp_cluster(shards=2, servers=2, seed=31, discovery=True)
    try:
        assert tcp.discovery_port == sim.discovery_port

        def listing(cluster):
            return [
                (entry["name"], entry["kind"], entry["port"])
                for entry in cluster.discovery.cmd_directory()
            ]

        assert listing(tcp) == listing(sim)
        assert [name for name, _, _ in listing(sim)] == [
            "fs0", "fs1", "shard0A", "shard0B", "shard1A", "shard1B",
        ]
        assert tcp.discovery.cmd_placement() == sim.discovery.cmd_placement()
        assert sim.discovery.cmd_placement().epoch == 1

        # The one network-dependent line: sockets have addresses to list.
        for entry in tcp.discovery.cmd_directory():
            assert (entry["host"], entry["tcp_port"]) == tcp.network.address_of(
                entry["name"]
            )
        assert all(e["host"] is None for e in sim.discovery.cmd_directory())
        assert sim.spec().endswith("=") and "127.0.0.1:" in tcp.spec()
    finally:
        tcp.stop()
