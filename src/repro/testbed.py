"""One-call construction of a complete simulated deployment.

Everything above the block layer needs the same scaffolding: a network, a
stable pair (or single block server), one or more replicated file server
processes, a shared registry and capability issuer.  :func:`build_cluster`
assembles it; tests, benchmarks and examples all start here.

    cluster = build_cluster(servers=2, seed=7)
    cap = cluster.fs().create_file(b"hello")

The cluster is deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.capability import CapabilityIssuer, new_port
from repro.block.stable import StablePair
from repro.core.gc import GarbageCollector
from repro.core.registry import FileRegistry
from repro.core.service import FileService
from repro.core.system_tree import SystemTree
from repro.obs import NULL_RECORDER
from repro.sim.faults import FaultPlan
from repro.sim.network import Network
from repro.sim.rpc import RpcEndpoint

# The account under which the file service owns its blocks.
FILE_SERVICE_ACCOUNT = 1


@dataclass
class Cluster:
    """A running simulated deployment."""

    network: Network
    rng: random.Random
    block_port: int
    service_port: int
    pair: StablePair
    registry: FileRegistry
    issuer: CapabilityIssuer
    servers: list[FileService]
    endpoints: list[RpcEndpoint]
    faults: FaultPlan = field(default_factory=FaultPlan)
    optical_pair: StablePair | None = None  # set on hybrid deployments
    shards: object = None  # ShardedBlockService on sharded deployments
    recorder: object = NULL_RECORDER  # the shared observability recorder
    history: object = None  # shared HistoryRecorder (verify.history), if any
    discovery: object = None  # DiscoveryServer when built with discovery=True
    discovery_port: int | None = None

    def fs(self, index: int = 0) -> FileService:
        """The ``index``-th file server process."""
        return self.servers[index]

    def system_tree(self, index: int = 0) -> SystemTree:
        """Super-file operations bound to one server."""
        return SystemTree(self.servers[index])

    def gc(self, index: int = 0) -> GarbageCollector:
        """A garbage collector bound to one server."""
        return GarbageCollector(self.servers[index])

    @property
    def clock(self):
        return self.network.clock

    def close(self) -> None:
        """Release the deployment's disks; every in-process teardown of a
        disk-backed cluster ends here."""
        (self.shards if self.shards is not None else self.pair).close()
        if self.optical_pair is not None:
            self.optical_pair.close()


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
    rewritable magnetic pair, all other pages on a genuinely write-once
    optical pair (overwrites raise).  ``cluster.pair`` is the magnetic
    pair; the optical pair hangs off ``cluster.optical_pair``.
    """
    from repro.block.hybrid import HybridBlockClient
    from repro.core.store import HybridPageStore
    from repro.core.cache import PageCache

    rng = random.Random(seed)
    if recorder is None:
        recorder = NULL_RECORDER
    network = Network(hop_ticks=hop_ticks, recorder=recorder)
    recorder.bind_clock(network.clock)
    magnetic_port = new_port(rng)
    optical_port = new_port(rng)
    service_port = new_port(rng)
    magnetic = StablePair(
        network, magnetic_port, capacity=magnetic_capacity,
        name_a="magA", name_b="magB", recorder=recorder,
    )
    optical = StablePair(
        network, optical_port, capacity=optical_capacity,
        name_a="optA", name_b="optB", write_once=True, recorder=recorder,
    )
    registry = FileRegistry()
    issuer = CapabilityIssuer(service_port)
    fs_list: list[FileService] = []
    endpoints: list[RpcEndpoint] = []
    for i in range(servers):
        name = f"fs{i}"
        from repro.block.stable import StableClient

        hybrid = HybridBlockClient(
            StableClient(network, name, magnetic_port, FILE_SERVICE_ACCOUNT),
            StableClient(network, name, optical_port, FILE_SERVICE_ACCOUNT),
        )
        service = FileService(
            name,
            network,
            registry,
            issuer,
            magnetic_port,
            FILE_SERVICE_ACCOUNT,
            rng=rng,
            store=HybridPageStore(
                hybrid,
                PageCache(cache_capacity, recorder=recorder),
                recorder=recorder,
            ),
            recorder=recorder,
        )
        fs_list.append(service)
        endpoints.append(RpcEndpoint(network, name, service_port, service))
    cluster = Cluster(
        network=network,
        rng=rng,
        block_port=magnetic_port,
        service_port=service_port,
        pair=magnetic,
        registry=registry,
        issuer=issuer,
        servers=fs_list,
        endpoints=endpoints,
        recorder=recorder,
    )
    cluster.optical_pair = optical
    return cluster


def build_sharded_cluster(
    shards: int = 4,
    servers: int = 1,
    seed: int = 42,
    shard_capacity: int = 4096,
    cache_capacity: int = 4096,
    hop_ticks: int = 10,
    recorder=None,
    history=None,
    discovery: bool = False,
    backend: str = "sim",
    data_dir: str | None = None,
) -> Cluster:
    """Build a deployment whose block storage is ``shards`` companion
    pairs behind a :class:`repro.block.sharding.ShardedBlockService`.

    File servers receive a shard-routing block client and are otherwise
    unchanged — the placement map keeps everything above the block layer
    shard-oblivious.  ``cluster.shards`` exposes the service (pairs,
    balance audits); ``cluster.pair`` and ``cluster.block_port`` point at
    shard 0 so single-pair tooling keeps working.

    With ``discovery=True`` a :class:`repro.net.discovery.DiscoveryServer`
    joins the deployment: every daemon is registered, the placement map
    is published there (and re-published on every epoch bump), and
    clients can bootstrap from ``cluster.discovery_port``.
    """
    from repro.block.sharding import ShardedBlockService
    from repro.core.cache import PageCache
    from repro.core.store import PageStore

    rng = random.Random(seed)
    if recorder is None:
        recorder = NULL_RECORDER
    network = Network(hop_ticks=hop_ticks, recorder=recorder)
    recorder.bind_clock(network.clock)
    shard_ports = [new_port(rng) for _ in range(shards)]
    service_port = new_port(rng)
    service = ShardedBlockService(
        network, shard_ports, capacity=shard_capacity, recorder=recorder,
        backend=backend, data_dir=data_dir,
    )
    registry = FileRegistry()
    issuer = CapabilityIssuer(service_port)
    fs_list: list[FileService] = []
    endpoints: list[RpcEndpoint] = []
    for i in range(servers):
        name = f"fs{i}"
        fs = FileService(
            name,
            network,
            registry,
            issuer,
            shard_ports[0],
            FILE_SERVICE_ACCOUNT,
            rng=rng,
            store=PageStore(
                service.client(
                    name, FILE_SERVICE_ACCOUNT, recorder=recorder, history=history
                ),
                PageCache(cache_capacity, recorder=recorder),
                recorder=recorder,
            ),
            recorder=recorder,
            history=history,
        )
        fs_list.append(fs)
        endpoints.append(RpcEndpoint(network, name, service_port, fs))
    cluster = Cluster(
        network=network,
        rng=rng,
        block_port=shard_ports[0],
        service_port=service_port,
        pair=service.pairs[0],
        registry=registry,
        issuer=issuer,
        servers=fs_list,
        endpoints=endpoints,
        recorder=recorder,
        history=history,
    )
    cluster.shards = service
    if discovery:
        from repro.net.discovery import attach_discovery

        discovery_port = new_port(rng)
        disc, disc_endpoint = attach_discovery(
            network, discovery_port, service_port=service_port, recorder=recorder
        )
        endpoints.append(disc_endpoint)
        for i, fs in enumerate(fs_list):
            disc.cmd_register(name=f"fs{i}", kind="fs", serves=service_port)
        for pair in service.pairs:
            for half in pair.halves():
                disc.cmd_register(name=half.name, kind="stable", serves=pair.port)
        disc.cmd_publish_placement(service.placement, 0)

        # Every epoch bump republishes, so bootstrapping clients always
        # see the newest map the operator committed; the directory follows
        # the pair churn (new pairs register, retired halves deregister).
        def _republish(placement, previous, _disc=disc, _service=service):
            _disc.cmd_publish_placement(placement, previous)
            for pair in _service.pairs:
                for half in pair.halves():
                    _disc.cmd_register(
                        name=half.name, kind="stable", serves=pair.port
                    )
            for pair in _service.retired_pairs:
                for half in pair.halves():
                    _disc.cmd_deregister(half.name)

        service.publishers.append(_republish)
        cluster.discovery = disc
        cluster.discovery_port = discovery_port
    return cluster


def build_cluster(
    servers: int = 1,
    seed: int = 42,
    disk_capacity: int = 1 << 20,
    cache_capacity: int = 4096,
    deferred_writes: bool = True,
    write_once: bool = False,
    hop_ticks: int = 10,
    recorder=None,
    history=None,
    backend: str = "sim",
    data_dir: str | None = None,
) -> Cluster:
    """Build a network + stable block pair + ``servers`` file servers.

    All file servers share the block storage, the registry (the replicated
    file table) and the capability issuer, so any server can serve any
    file — the deployment §5.4.1 describes.

    ``recorder`` (a :class:`repro.obs.Recorder`) is threaded through every
    layer — network, disks, block servers, page stores, file services — so
    one recorder sees the whole deployment; the default is the no-op
    recorder and costs nothing.
    """
    rng = random.Random(seed)
    if recorder is None:
        recorder = NULL_RECORDER
    network = Network(hop_ticks=hop_ticks, recorder=recorder)
    recorder.bind_clock(network.clock)
    block_port = new_port(rng)
    service_port = new_port(rng)
    pair = StablePair(
        network, block_port, capacity=disk_capacity, write_once=write_once,
        recorder=recorder, backend=backend, data_dir=data_dir,
    )
    registry = FileRegistry()
    issuer = CapabilityIssuer(service_port)
    fs_list: list[FileService] = []
    endpoints: list[RpcEndpoint] = []
    for i in range(servers):
        name = f"fs{i}"
        service = FileService(
            name,
            network,
            registry,
            issuer,
            block_port,
            FILE_SERVICE_ACCOUNT,
            cache_capacity=cache_capacity,
            deferred_writes=deferred_writes,
            rng=rng,
            recorder=recorder,
            history=history,
        )
        fs_list.append(service)
        endpoints.append(RpcEndpoint(network, name, service_port, service))
    return Cluster(
        network=network,
        rng=rng,
        block_port=block_port,
        service_port=service_port,
        pair=pair,
        registry=registry,
        issuer=issuer,
        servers=fs_list,
        endpoints=endpoints,
        recorder=recorder,
        history=history,
    )
