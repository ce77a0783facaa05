"""The discovery / placement service: registry, heartbeats, epoch-CAS
publication, and client bootstrap — over the simulated network and over
real TCP daemons."""

from __future__ import annotations

import pytest

from repro.block.sharding import PlacementMap
from repro.capability import new_port
from repro.core.pathname import PagePath
from repro.errors import PlacementStale, UnknownObject
from repro.net.discovery import (
    DEFAULT_HEARTBEAT_TTL,
    DiscoveryClient,
    attach_discovery,
)
from repro.sim.network import Network
from repro.testbed import build_cluster

DISC_PORT = 0xD15C


def _sim_pair():
    network = Network()
    server, _ = attach_discovery(network, DISC_PORT, service_port=0xF00D)
    client = DiscoveryClient(network, "tester", DISC_PORT)
    return network, server, client


def test_register_heartbeat_and_ttl_liveness():
    network, server, client = _sim_pair()
    client.register("fs0", kind="fs", port=0xF00D)
    client.register("shard0A", kind="stable", port=0xB10C)
    directory = client.directory()
    assert [e["name"] for e in directory] == ["fs0", "shard0A"]
    assert all(e["alive"] for e in directory)

    # Run the clock past the TTL: both go dead, a heartbeat revives one.
    network.clock.advance(DEFAULT_HEARTBEAT_TTL + 1)
    directory = {e["name"]: e for e in client.directory()}
    assert not directory["fs0"]["alive"]
    assert not directory["shard0A"]["alive"]
    assert client.heartbeat("fs0") is True
    directory = {e["name"]: e for e in client.directory()}
    assert directory["fs0"]["alive"]
    assert not directory["shard0A"]["alive"]

    # Deregistration removes the entry outright.
    assert client.deregister("shard0A") is True
    assert client.deregister("shard0A") is False
    assert [e["name"] for e in client.directory()] == ["fs0"]


def test_heartbeat_script_reregisters_forgotten_daemons():
    network, server, client = _sim_pair()
    registrations = {
        "fs0": {"kind": "fs", "port": 0xF00D},
        "shard0A": {"kind": "stable", "port": 0xB10C},
    }
    for name, info in registrations.items():
        client.register(name, **info)
    # A discovery restart loses the soft-state registry.
    server._entries.clear()
    assert client.heartbeat("fs0") is False
    # A daemon whose heartbeat is refused registers again: one pass
    # rebuilds the registry, kinds and ports intact.
    for name, info in registrations.items():
        if not client.heartbeat(name):
            client.register(name, **info)
    directory = {e["name"]: e for e in client.directory()}
    assert set(directory) == {"fs0", "shard0A"}
    assert directory["shard0A"]["kind"] == "stable"
    assert directory["shard0A"]["port"] == 0xB10C


def test_publish_placement_is_epoch_cas():
    network, server, client = _sim_pair()
    ports = [0x100, 0x200]
    epoch1 = PlacementMap.initial(ports, stride=64)
    epoch2 = epoch1.moved(0, 0x300)

    # Nothing published yet.
    assert client.placement() is None
    # Out-of-order publish refused: the registry holds nothing (epoch 0).
    with pytest.raises(PlacementStale):
        client.publish_placement(epoch2, expect_epoch=1)
    assert client.publish_placement(epoch1, expect_epoch=0) == 1
    # Re-publishing the same epoch is a stale publisher.
    with pytest.raises(PlacementStale):
        client.publish_placement(epoch1, expect_epoch=0)
    # A skip (publishing epoch 3 over epoch 1) is refused even with the
    # right expectation — the map must advance one bump at a time.
    epoch3 = epoch2.moved(1, 0x400)
    with pytest.raises(PlacementStale):
        client.publish_placement(epoch3, expect_epoch=1)
    assert client.publish_placement(epoch2, expect_epoch=1) == 2
    assert client.placement().epoch == 2
    # The losing CAS never rolled anything back.
    assert client.placement() == epoch2


def test_bootstrap_payload():
    network, server, client = _sim_pair()
    client.register("fs0", kind="fs", port=0xF00D)
    placement = PlacementMap.initial([0x100], stride=64)
    client.publish_placement(placement, expect_epoch=0)
    payload = client.bootstrap()
    assert payload["service_port"] == 0xF00D
    assert payload["placement"] == placement
    assert [e["name"] for e in payload["daemons"]] == ["fs0"]

    # A registry with no file service recorded refuses to bootstrap.
    bare_net = Network()
    attach_discovery(bare_net, DISC_PORT)
    bare = DiscoveryClient(bare_net, "tester", DISC_PORT)
    with pytest.raises(UnknownObject):
        bare.bootstrap()


def test_sharded_testbed_attaches_and_republishes():
    """``build_cluster(discovery=True)``: every daemon
    registered, the map published, and a live migration republishes the
    bumped map and swaps the pair halves in the directory."""
    cluster = build_cluster(shards=2, servers=2, seed=3, discovery=True)
    disc = cluster.discovery
    service = cluster.shards
    client = DiscoveryClient(cluster.network, "probe", cluster.discovery_port)

    names = {e["name"] for e in client.directory()}
    assert {"fs0", "fs1", "shard0A", "shard0B", "shard1A", "shard1B"} <= names
    assert client.placement().epoch == 1
    assert client.bootstrap()["service_port"] == cluster.service_port

    old_halves = {h.name for h in service.pairs[0].halves()}
    report = service.migrate(0, new_port(cluster.rng))
    assert report.epoch == 2
    # The publisher hook pushed the new map and updated the directory.
    assert client.placement().epoch == 2
    names = {e["name"] for e in client.directory()}
    assert not (old_halves & names)
    new_halves = {h.name for h in service.pairs[0].halves()}
    assert new_halves <= names


def test_tcp_cluster_discovery_and_bootstrap_join():
    """The whole story over real sockets: the spec's ``discovery`` entry
    alone is enough to join, commit, and read back — service port,
    placement map (wire-encoded), and daemon addresses all come from the
    registry."""
    from repro.client.api import FileClient
    from repro.net import bootstrap, build_tcp_cluster

    cluster = build_tcp_cluster(servers=2, shards=2, seed=7, discovery=True)
    try:
        spec = cluster.spec()
        assert "discovery:" in spec
        disc_entry = next(
            e for e in spec.split(";") if e.startswith("discovery:")
        )
        network, payload = bootstrap(disc_entry)
        assert payload["service_port"] == cluster.service_port
        assert payload["placement"].epoch == 1
        assert payload["placement"] == cluster.shards.placement
        kinds = {e["kind"] for e in payload["daemons"]}
        assert kinds == {"fs", "stable"}
        assert all(
            e["host"] is not None and e["tcp_port"] is not None
            for e in payload["daemons"]
        )

        client = FileClient.from_discovery(disc_entry, node="joiner")
        cap = client.create_file(b"bootstrapped")
        client.transact(
            cap, lambda u: u.write(PagePath.ROOT, b"over tcp via discovery")
        )
        assert client.read(cap) == b"over tcp via discovery"
    finally:
        cluster.stop()


def test_tcp_bootstrap_requires_discovery_entry():
    from repro.net import bootstrap

    with pytest.raises(ValueError):
        bootstrap("service:abc=127.0.0.1:1")
    with pytest.raises(ValueError):
        bootstrap("discovery:abc=")
