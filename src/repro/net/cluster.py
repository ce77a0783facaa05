"""Launch a whole file-service topology as socket daemons on localhost.

:func:`build_tcp_cluster` is the TCP twin of :func:`repro.testbed.
build_cluster`: the same :func:`repro.testbed.assemble` — companion pairs
behind a placement map, replicated file servers, one :class:`~repro.
testbed.Cluster` handle — on a :class:`~repro.net.transport.TcpNetwork`,
so every server object is hosted by a real :class:`~repro.net.server.
NetServer` daemon and every message — client to file server, file server to block
storage, companion half to companion half — crosses a real TCP socket.
Nothing above the transport changes: ``core/service.py`` OCC logic, the
stores, the registry are byte-for-byte the objects the simulation runs.

A cluster serialises to a *spec string* so other OS processes can reach
it (``repro serve`` prints it, ``repro connect`` parses it):

    service:3f9a...=127.0.0.1:40001,127.0.0.1:40002;block:9c21...=...

Each entry is ``label:paper-port-hex=host:tcpport[,host:tcpport...]``,
one address per daemon serving that paper port.  A client only needs the
``service`` entry; the rest document the topology.
"""

from __future__ import annotations

from functools import partial

from repro.net.transport import TcpNetwork
from repro.testbed import Cluster, assemble, block_tier


def build_tcp_cluster(
    servers: int = 1,
    shards: int = 1,
    seed: int = 42,
    disk_capacity: int = 1 << 16,
    cache_capacity: int = 4096,
    host: str = "127.0.0.1",
    recorder=None,
    history=None,
    call_timeout: float | None = None,
    async_mode: bool = False,  # ignored; bench/layers.py passes it (ROADMAP 8(a))
    lock_timeout: float | None = None,
    discovery: bool = False,
    backend: str = "sim",
    data_dir: str | None = None,
) -> Cluster:
    """Build and start a localhost TCP deployment of ``shards`` companion
    pairs behind a placement map.  Every daemon binds an OS-assigned port
    on ``host``.  ``discovery=True`` adds a discovery daemon: every other
    daemon registers there with its socket address, the placement map is
    published, the spec string gains a ``discovery`` entry, and other
    processes can join via :func:`bootstrap` with only that entry.
    """
    network = TcpNetwork(host=host, recorder=recorder)
    if call_timeout is not None:
        network.call_timeout = call_timeout
    if lock_timeout is not None:
        network.lock_timeout = lock_timeout
    # Replicated file servers share the registry and issuer in memory;
    # their daemons must therefore serialise behind one lock.
    network.share_dispatch_lock([f"fs{i}" for i in range(servers)])
    tier = partial(
        block_tier, shards=shards, capacity=disk_capacity,
        cache_capacity=cache_capacity, backend=backend, data_dir=data_dir,
    )
    return assemble(
        network, seed, servers, tier, network.recorder, history, discovery
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
