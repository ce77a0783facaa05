"""Launch a whole file-service topology as socket daemons on localhost.

:func:`build_tcp_cluster` is the TCP twin of :func:`repro.testbed.
build_cluster`: the same stable pair (or sharded pairs) and replicated
file servers, but every server object is hosted by a real
:class:`~repro.net.server.NetServer` daemon and every message — client to
file server, file server to block storage, companion half to companion
half — crosses a real TCP socket.  Nothing above the transport changes:
``core/service.py`` OCC logic, the stores, the registry are byte-for-byte
the objects the simulation runs.

A cluster serialises to a *spec string* so other OS processes can reach
it (``repro serve`` prints it, ``repro connect`` parses it):

    service:3f9a...=127.0.0.1:40001,127.0.0.1:40002;block:9c21...=...

Each entry is ``label:paper-port-hex=host:tcpport[,host:tcpport...]``,
one address per daemon serving that paper port.  A client only needs the
``service`` entry; the rest document the topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.capability import CapabilityIssuer, new_port
from repro.block.stable import StablePair
from repro.core.registry import FileRegistry
from repro.core.service import FileService
from repro.net.transport import TcpNetwork
from repro.obs import NULL_RECORDER
from repro.sim.rpc import RpcEndpoint, _registry
from repro.testbed import FILE_SERVICE_ACCOUNT


@dataclass
class TcpCluster:
    """A running socket deployment (all daemons in this process)."""

    network: TcpNetwork
    rng: random.Random
    block_port: int
    service_port: int
    pair: StablePair
    registry: FileRegistry
    issuer: CapabilityIssuer
    servers: list[FileService]
    endpoints: list[RpcEndpoint]
    shards: object = None  # ShardedBlockService on sharded deployments
    recorder: object = NULL_RECORDER
    history: object = None
    discovery: object = None  # DiscoveryServer when built with discovery=True
    discovery_port: int | None = None

    def fs(self, index: int = 0) -> FileService:
        return self.servers[index]

    @property
    def clock(self):
        return self.network.clock

    def client(self, node: str, **kwargs):
        """A FileClient bound to this cluster over TCP."""
        from repro.client.api import FileClient

        return FileClient(self.network, node, self.service_port, **kwargs)

    def spec(self) -> str:
        """The connection spec other processes parse (see module doc)."""
        ports = [("service", self.service_port), ("block", self.block_port)]
        if self.discovery_port is not None:
            ports.append(("discovery", self.discovery_port))
        if self.shards is not None:
            ports += [
                ("shard%d" % i, port)
                for i, port in enumerate(self.shards.ports)
                if port != self.block_port
            ]
        entries = []
        registry = _registry(self.network)
        for label, port in ports:
            addresses = []
            for name in sorted(registry.get(port, [])):
                address = self.network.address_of(name)
                if address is not None:
                    addresses.append("%s:%d" % address)
            entries.append(f"{label}:{port:x}={','.join(addresses)}")
        return ";".join(entries)

    def stop(self) -> None:
        """Stop every daemon, drop pooled connections, release the disks."""
        self.network.close()
        (self.shards if self.shards is not None else self.pair).close()


def build_tcp_cluster(
    servers: int = 1,
    shards: int = 0,
    seed: int = 42,
    disk_capacity: int = 1 << 16,
    cache_capacity: int = 4096,
    deferred_writes: bool = True,
    host: str = "127.0.0.1",
    recorder=None,
    history=None,
    call_timeout: float | None = None,
    async_mode: bool = False,  # ignored; bench/layers.py passes it (ROADMAP 4(b))
    lock_timeout: float | None = None,
    discovery: bool = False,
    backend: str = "sim",
    data_dir: str | None = None,
) -> TcpCluster:
    """Build and start a localhost TCP deployment.

    ``shards=0`` gives one companion pair; ``shards=K`` a K-pair sharded
    block tier.  Every daemon binds an OS-assigned port on ``host``.
    ``discovery=True`` adds a discovery daemon: every other
    daemon registers there with its socket address, the placement map is
    published on sharded deployments, the spec string gains a
    ``discovery`` entry, and other processes can join via
    :func:`bootstrap` with only that entry.
    """
    rng = random.Random(seed)
    if recorder is None:
        recorder = NULL_RECORDER
    network = TcpNetwork(host=host, recorder=recorder)
    if call_timeout is not None:
        network.call_timeout = call_timeout
    if lock_timeout is not None:
        network.lock_timeout = lock_timeout
    recorder.bind_clock(network.clock)
    service_port = new_port(rng)
    registry = FileRegistry()
    issuer = CapabilityIssuer(service_port)
    # Replicated file servers share the registry and issuer in memory;
    # their daemons must therefore serialise behind one lock.
    network.share_dispatch_lock([f"fs{i}" for i in range(servers)])

    sharded_service = None
    if shards > 0:
        from repro.block.sharding import ShardedBlockService

        shard_ports = [new_port(rng) for _ in range(shards)]
        sharded_service = ShardedBlockService(
            network, shard_ports, capacity=disk_capacity, recorder=recorder,
            backend=backend, data_dir=data_dir,
        )
        block_port = shard_ports[0]
        pair = sharded_service.pairs[0]
    else:
        block_port = new_port(rng)
        pair = StablePair(
            network, block_port, capacity=disk_capacity, recorder=recorder,
            backend=backend, data_dir=data_dir,
        )

    fs_list: list[FileService] = []
    endpoints: list[RpcEndpoint] = []
    for i in range(servers):
        name = f"fs{i}"
        if sharded_service is not None:
            from repro.core.cache import PageCache
            from repro.core.store import PageStore

            service = FileService(
                name,
                network,
                registry,
                issuer,
                block_port,
                FILE_SERVICE_ACCOUNT,
                rng=rng,
                store=PageStore(
                    sharded_service.client(
                        name, FILE_SERVICE_ACCOUNT, recorder=recorder
                    ),
                    PageCache(cache_capacity, recorder=recorder),
                    recorder=recorder,
                ),
                recorder=recorder,
                history=history,
            )
        else:
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

    disc = None
    discovery_port = None
    if discovery:
        from repro.net.discovery import attach_discovery

        discovery_port = new_port(rng)
        disc, disc_endpoint = attach_discovery(
            network, discovery_port, service_port=service_port, recorder=recorder
        )
        endpoints.append(disc_endpoint)

        def _register(name: str, kind: str, port: int) -> None:
            address = network.address_of(name)
            disc.cmd_register(
                name=name,
                kind=kind,
                serves=port,
                host=address[0] if address else None,
                tcp_port=address[1] if address else None,
            )

        for i in range(servers):
            _register(f"fs{i}", "fs", service_port)
        pairs = sharded_service.pairs if sharded_service is not None else [pair]
        for p in pairs:
            for half in p.halves():
                _register(half.name, "stable", p.port)
        if sharded_service is not None:
            disc.cmd_publish_placement(sharded_service.placement, 0)

            def _republish(placement, previous, _service=sharded_service):
                disc.cmd_publish_placement(placement, previous)
                for p in _service.pairs:
                    for half in p.halves():
                        _register(half.name, "stable", p.port)
                for p in _service.retired_pairs:
                    for half in p.halves():
                        disc.cmd_deregister(half.name)

            sharded_service.publishers.append(_republish)
    return TcpCluster(
        network=network,
        rng=rng,
        block_port=block_port,
        service_port=service_port,
        pair=pair,
        registry=registry,
        issuer=issuer,
        servers=fs_list,
        endpoints=endpoints,
        shards=sharded_service,
        recorder=recorder,
        history=history,
        discovery=disc,
        discovery_port=discovery_port,
    )


def parse_spec(spec: str) -> dict[str, tuple[int, list[tuple[str, int]]]]:
    """Parse a spec string to ``{label: (paper port, [(host, tcpport)...])}``."""
    topology: dict[str, tuple[int, list[tuple[str, int]]]] = {}
    for entry in spec.strip().split(";"):
        if not entry:
            continue
        head, _, addresses_text = entry.partition("=")
        label, _, port_hex = head.partition(":")
        if not label or not port_hex:
            raise ValueError(f"bad spec entry {entry!r}")
        addresses = []
        for address in addresses_text.split(","):
            if not address:
                continue
            host, _, port_text = address.rpartition(":")
            addresses.append((host, int(port_text)))
        topology[label] = (int(port_hex, 16), addresses)
    return topology


def connect(
    spec: str, recorder=None, call_timeout: float | None = None
) -> tuple[TcpNetwork, int]:
    """Join an existing deployment from its spec string.

    Registers every advertised daemon address under a synthetic node name
    and returns ``(network, service paper port)``; hand both to
    :class:`repro.client.api.FileClient` and use the service exactly as
    over the simulated network.
    """
    topology = parse_spec(spec)
    if "service" not in topology:
        raise ValueError("spec has no 'service' entry")
    network = TcpNetwork(recorder=recorder)
    if call_timeout is not None:
        network.call_timeout = call_timeout
    for label, (paper_port, addresses) in topology.items():
        for i, (host, tcp_port) in enumerate(addresses):
            name = f"{label}-{i}"
            network.register(name, host, tcp_port)
            network.listen_port(paper_port, name)
    return network, topology["service"][0]


def bootstrap(
    spec: str, node: str = "bootstrap", recorder=None,
    call_timeout: float | None = None,
) -> tuple[TcpNetwork, dict]:
    """Join a deployment knowing only its ``discovery`` spec entry.

    Dials the discovery daemon, fetches the bootstrap payload (service
    port, placement map, daemon directory), and wires every advertised
    daemon address into a fresh network — the directory replaces the
    hand-written per-port spec entries :func:`connect` needs.  Returns
    ``(network, payload)``; ``payload["service_port"]`` plus the network
    is everything a :class:`~repro.client.api.FileClient` wants.
    """
    from repro.net.discovery import DiscoveryClient

    topology = parse_spec(spec)
    if "discovery" not in topology:
        raise ValueError("spec has no 'discovery' entry")
    discovery_port, addresses = topology["discovery"]
    if not addresses:
        raise ValueError("spec's 'discovery' entry lists no addresses")
    network = TcpNetwork(recorder=recorder)
    if call_timeout is not None:
        network.call_timeout = call_timeout
    for i, (host, tcp_port) in enumerate(addresses):
        name = f"discovery-{i}"
        network.register(name, host, tcp_port)
        network.listen_port(discovery_port, name)
    payload = DiscoveryClient(network, node, discovery_port).bootstrap()
    for entry in payload["daemons"]:
        if entry["host"] is None or entry["tcp_port"] is None:
            continue
        network.register(entry["name"], entry["host"], entry["tcp_port"])
        network.listen_port(entry["port"], entry["name"])
    return network, payload
