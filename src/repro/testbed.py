"""One-call construction of a complete deployment.

Everything above the block layer needs the same scaffolding: a network, a
block tier (companion pairs behind a placement map — one pair is the
one-shard case — or hybrid media), one or more replicated file server
processes, a shared registry and capability issuer.  :func:`assemble`
hangs it on a network — the simulated one or real sockets — and is the
only code that does; the ``build_*`` functions make the network and the
tier and call it.  Tests, benchmarks and examples all start here.

    cluster = build_cluster(servers=2, seed=7)
    cap = cluster.fs().create_file(b"hello")

The cluster is deterministic for a given seed: block ports, then the
service port, then the discovery port are drawn in that order on either
network, so one seed names one topology on both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.capability import CapabilityIssuer, new_port
from repro.block.sharding import ShardedBlockClient, ShardedBlockService
from repro.block.stable import StablePair
from repro.core.cache import PageCache
from repro.core.gc import GarbageCollector
from repro.core.registry import FileRegistry
from repro.core.service import FileService
from repro.core.store import HybridPageStore, PageStore
from repro.obs import NULL_RECORDER
from repro.sim.network import Network
from repro.sim.rpc import RpcEndpoint, _registry

# The account under which the file service owns its blocks.
FILE_SERVICE_ACCOUNT = 1


@dataclass
class Cluster:
    """A running deployment, on the simulated network or on sockets."""

    network: Network
    rng: random.Random
    service_port: int
    shards: ShardedBlockService  # the block tier's companion pairs
    registry: FileRegistry
    issuer: CapabilityIssuer
    servers: list[FileService]
    endpoints: list[RpcEndpoint]
    optical_pair: StablePair | None = None  # set on hybrid deployments
    recorder: object = NULL_RECORDER  # the shared observability recorder
    history: object = None  # shared HistoryRecorder (verify.history), if any
    discovery: object = None  # DiscoveryServer when built with discovery=True
    discovery_port: int | None = None

    @property
    def pair(self) -> StablePair:
        """Shard 0's companion pair: a one-shard deployment's only one."""
        return self.shards.pairs[0]

    @property
    def block_port(self) -> int:
        """Shard 0's service port."""
        return self.shards.ports[0]

    @property
    def pairs(self) -> list[StablePair]:
        """Every companion pair the deployment's durable state lives on:
        the live shards, retired ones (their disks hold the pre-cutover
        history until decommissioned) and a hybrid deployment's optical
        pair."""
        optical = [self.optical_pair] if self.optical_pair is not None else []
        return [*self.shards.pairs, *self.shards.retired_pairs, *optical]

    def fs(self, index: int = 0) -> FileService:
        """The ``index``-th file server process."""
        return self.servers[index]

    def gc(self, index: int = 0) -> GarbageCollector:
        """A garbage collector bound to one server."""
        return GarbageCollector(self.servers[index])

    @property
    def clock(self):
        return self.network.clock

    def client(self, node: str, **kwargs):
        """A FileClient on ``node``, bound to this deployment's network."""
        from repro.client.api import FileClient

        return FileClient(self.network, node, self.service_port, **kwargs)

    def spec(self) -> str:
        """The connection spec other processes parse (see
        :mod:`repro.net.cluster`); a simulated node has no address and
        lists none."""
        ports = [("service", self.service_port), ("block", self.block_port)]
        if self.discovery_port is not None:
            ports.append(("discovery", self.discovery_port))
        ports += [
            ("shard%d" % i, port) for i, port in enumerate(self.shards.ports) if i
        ]
        entries = []
        registry = _registry(self.network)
        for label, port in ports:
            addresses = [
                "%s:%d" % address
                for name in sorted(registry.get(port, []))
                if (address := _address_of(self.network, name)) is not None
            ]
            entries.append(f"{label}:{port:x}={','.join(addresses)}")
        return ";".join(entries)

    def close(self) -> None:
        """Stop every daemon the network hosts (the simulator hosts none),
        then release every pair's disks; every in-process teardown ends
        here."""
        getattr(self.network, "close", lambda: None)()
        for pair in self.pairs:
            pair.close()

    stop = close


def _address_of(network, name: str) -> tuple[str, int] | None:
    """A node's socket address; None on the simulator, which has none."""
    lookup = getattr(network, "address_of", None)
    return lookup(name) if lookup is not None else None


# -- block tiers -------------------------------------------------------------
#
# A tier draws its ports from the deployment's rng, starts its pairs on
# the network and returns ``(shards, store_for)``: ``shards`` is the
# ShardedBlockService holding the pairs, and ``store_for(name)`` is the
# page store of file server ``name``.


def block_tier(
    network, rng, recorder, history, *, shards, capacity, cache_capacity,
    write_once=False, data_dir=None,
):
    """``shards`` companion pairs behind a placement map; every file
    server gets a block client that routes by it."""
    ports = [new_port(rng) for _ in range(shards)]
    service = ShardedBlockService(
        network, ports, capacity=capacity, write_once=write_once,
        recorder=recorder, data_dir=data_dir,
    )

    def store_for(name):
        return PageStore(
            service.client(
                name, FILE_SERVICE_ACCOUNT, recorder=recorder, history=history
            ),
            PageCache(cache_capacity, recorder=recorder),
            recorder=recorder,
        )

    return service, store_for


def assemble(
    network,
    seed: int,
    servers: int,
    tier,
    recorder=NULL_RECORDER,
    history=None,
    discovery: bool = False,
) -> Cluster:
    """Hang a deployment on ``network``: the block tier, then ``servers``
    file servers sharing the registry (the replicated file table) and the
    capability issuer, so any server can serve any file — the deployment
    §5.4.1 describes — and, when asked, a discovery server.

    ``recorder`` is threaded through every layer below, so one recorder
    sees the whole deployment.
    """
    rng = random.Random(seed)
    recorder.bind_clock(network.clock)
    shards, store_for = tier(network, rng, recorder, history)
    service_port = new_port(rng)
    cluster = Cluster(
        network=network,
        rng=rng,
        service_port=service_port,
        shards=shards,
        registry=FileRegistry(),
        issuer=CapabilityIssuer(service_port),
        servers=[],
        endpoints=[],
        recorder=recorder,
        history=history,
    )
    for i in range(servers):
        name = f"fs{i}"
        service = FileService(
            name,
            network,
            cluster.registry,
            cluster.issuer,
            cluster.block_port,
            FILE_SERVICE_ACCOUNT,
            rng=rng,
            store=store_for(name),
            recorder=recorder,
            history=history,
        )
        cluster.servers.append(service)
        cluster.endpoints.append(RpcEndpoint(network, name, service_port, service))
    if discovery:
        _attach_discovery(cluster)
    return cluster


def _attach_discovery(cluster: Cluster) -> None:
    """Add a :class:`repro.net.discovery.DiscoveryServer`: every file
    server and pair half is registered (with its socket address when it
    has one), and the placement map is published there and re-published
    on every epoch bump."""
    from repro.net.discovery import attach_discovery

    network, shards = cluster.network, cluster.shards
    cluster.discovery_port = new_port(cluster.rng)
    cluster.discovery, endpoint = attach_discovery(
        network,
        cluster.discovery_port,
        service_port=cluster.service_port,
        recorder=cluster.recorder,
    )
    cluster.endpoints.append(endpoint)
    disc = cluster.discovery

    def register(name: str, kind: str, port: int) -> None:
        host, tcp_port = _address_of(network, name) or (None, None)
        disc.cmd_register(
            name=name, kind=kind, serves=port, host=host, tcp_port=tcp_port
        )

    def register_pairs(pairs) -> None:
        for pair in pairs:
            for half in pair.halves():
                register(half.name, "stable", pair.port)

    for fs in cluster.servers:
        register(fs.name, "fs", cluster.service_port)
    register_pairs(cluster.pairs)
    disc.cmd_publish_placement(shards.placement, 0)

    # Every epoch bump republishes, so bootstrapping clients always see
    # the newest map the operator committed; the directory follows the
    # pair churn (new pairs register, retired halves deregister).
    def republish(placement, previous) -> None:
        disc.cmd_publish_placement(placement, previous)
        register_pairs(shards.pairs)
        for pair in shards.retired_pairs:
            for half in pair.halves():
                disc.cmd_deregister(half.name)

    shards.publishers.append(republish)


def build_hybrid_cluster(
    servers: int = 1,
    seed: int = 42,
    magnetic_capacity: int = 1 << 16,
    optical_capacity: int = 1 << 20,
    cache_capacity: int = 4096,
    hop_ticks: int = 10,
    recorder=None,
) -> Cluster:
    """Build a deployment on hybrid media (Figure 2): version pages on a
    rewritable magnetic pair (the one shard), all other pages on a
    genuinely write-once optical pair (overwrites raise), which hangs off
    ``cluster.optical_pair``.
    """
    from repro.block.hybrid import HybridBlockClient

    optical = None

    def hybrid_tier(network, rng, recorder, history):
        nonlocal optical
        magnetic_port = new_port(rng)
        optical_port = new_port(rng)
        magnetic = ShardedBlockService(
            network, [magnetic_port], capacity=magnetic_capacity,
            recorder=recorder,
        )
        optical = StablePair(
            network, optical_port, capacity=optical_capacity,
            name_a="optA", name_b="optB", write_once=True, recorder=recorder,
        )

        def store_for(name):
            return HybridPageStore(
                HybridBlockClient(
                    magnetic.client(name, FILE_SERVICE_ACCOUNT),
                    ShardedBlockClient(
                        network, name, [optical_port], FILE_SERVICE_ACCOUNT
                    ),
                ),
                PageCache(cache_capacity, recorder=recorder),
                recorder=recorder,
            )

        return magnetic, store_for

    network = Network(hop_ticks=hop_ticks, recorder=recorder)
    cluster = assemble(network, seed, servers, hybrid_tier, network.recorder)
    cluster.optical_pair = optical
    return cluster


def build_cluster(
    servers: int = 1,
    shards: int = 1,
    seed: int = 42,
    disk_capacity: int = 1 << 20,
    cache_capacity: int = 4096,
    write_once: bool = False,
    hop_ticks: int = 10,
    recorder=None,
    history=None,
    discovery: bool = False,
    data_dir: str | None = None,
) -> Cluster:
    """Build a network, ``shards`` companion pairs of ``disk_capacity``
    blocks each behind a placement map, and ``servers`` file servers.

    File servers reach every pair through one shard-routing block client;
    the placement map keeps everything above the block layer
    shard-oblivious.  ``cluster.shards`` exposes the pairs (balance
    audits, splits, migrations), ``cluster.pairs`` every pair the state
    lives on, and ``cluster.pair`` / ``cluster.block_port`` shard 0.
    Every half's disk is an :class:`~repro.block.fdisk.FDisk`: on an
    in-memory kernel of its own, or on real files under ``data_dir``.

    ``recorder`` (a :class:`repro.obs.Recorder`) sees the whole
    deployment (see :func:`assemble`); the default is the no-op recorder
    and costs nothing.  With ``discovery=True`` a
    :class:`repro.net.discovery.DiscoveryServer` joins the deployment:
    every daemon is registered, the placement map is published there (and
    re-published on every epoch bump), and clients can bootstrap from
    ``cluster.discovery_port``.
    """
    network = Network(hop_ticks=hop_ticks, recorder=recorder)
    tier = partial(
        block_tier, shards=shards, capacity=disk_capacity,
        cache_capacity=cache_capacity, write_once=write_once,
        data_dir=data_dir,
    )
    return assemble(
        network, seed, servers, tier, network.recorder, history, discovery
    )
