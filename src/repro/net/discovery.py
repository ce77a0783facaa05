"""Discovery / placement service: the cluster's phone book.

Daemons register here and renew with heartbeats; clients bootstrap from
one well-known address instead of hand-written spec strings; the current
:class:`~repro.block.sharding.PlacementMap` is published here after every
epoch bump, guarded by an epoch compare-and-set so a lost or duplicated
publish can never roll the map backwards.

The server is transport-agnostic: it speaks the same ``cmd_<verb>``
dispatch as every other daemon, so it runs over the simulated network
(:class:`repro.sim.rpc.RpcEndpoint`) and over real TCP daemons
unchanged; its three lookups are declared read-only and never wait for
the daemon's dispatch lock.  Liveness is time-based — an entry whose
last heartbeat is older than ``heartbeat_ttl`` ticks is reported dead
but kept (it may come back; explicit deregistration removes it).

See ``docs/DISCOVERY.md`` for the registry protocol and the cutover
staleness argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlacementStale, UnknownObject
from repro.obs import NULL_RECORDER
from repro.sim.rpc import RpcEndpoint, Transaction, command

# A daemon missing this many ticks of heartbeats is presumed dead.
DEFAULT_HEARTBEAT_TTL = 600


@dataclass
class Registration:
    """One registered daemon."""

    name: str
    kind: str  # "fs" | "stable" | "discovery" | ...
    port: int  # the Amoeba service port it answers on
    host: str | None  # TCP deployments: where its socket listens
    tcp_port: int | None
    last_seen: int  # clock tick of registration or last heartbeat


class DiscoveryServer:
    """The registry + placement publication point.

    One per deployment.  State is in-memory: the registry is soft state
    (daemons re-register after a discovery restart; heartbeats rebuild
    it), and the placement map is re-published by the operator that owns
    the reshape — both standard recovery stories for this kind of
    service.
    """

    def __init__(
        self,
        network,
        service_port: int | None = None,
        heartbeat_ttl: int = DEFAULT_HEARTBEAT_TTL,
        recorder=None,
    ) -> None:
        self.network = network
        self.clock = network.clock
        self.heartbeat_ttl = heartbeat_ttl
        if recorder is None:
            recorder = getattr(network, "recorder", NULL_RECORDER)
        self.recorder = recorder
        self.service_port = service_port
        self._entries: dict[str, Registration] = {}
        self._placement = None  # the latest published PlacementMap

    # -- registry ----------------------------------------------------------

    def _alive(self, entry: Registration) -> bool:
        return self.clock.now - entry.last_seen <= self.heartbeat_ttl

    def cmd_register(
        self,
        name: str,
        kind: str,
        serves: int,
        host: str | None = None,
        tcp_port: int | None = None,
    ) -> int:
        """Register (or re-register) a daemon.  ``serves`` is the Amoeba
        service port it answers on (named to dodge the RPC layer's own
        ``port`` argument).  Returns the current tick, which doubles as
        the heartbeat deadline base."""
        self._entries[name] = Registration(
            name, kind, serves, host, tcp_port, self.clock.now
        )
        if self.recorder.enabled:
            self.recorder.count("discovery.registrations")
        return self.clock.now

    def cmd_deregister(self, name: str) -> bool:
        return self._entries.pop(name, None) is not None

    def cmd_heartbeat(self, name: str) -> bool:
        """Renew a registration.  ``False`` tells the daemon it is unknown
        (a discovery restart forgot it) and must re-register."""
        entry = self._entries.get(name)
        if entry is None:
            return False
        entry.last_seen = self.clock.now
        if self.recorder.enabled:
            self.recorder.count("discovery.heartbeats")
        return True

    @command(read_only=True)
    def cmd_directory(self) -> list[dict]:
        """Every registration with its liveness verdict."""
        return [
            {
                "name": e.name,
                "kind": e.kind,
                "port": e.port,
                "host": e.host,
                "tcp_port": e.tcp_port,
                "alive": self._alive(e),
                "last_seen": e.last_seen,
            }
            for e in sorted(self._entries.values(), key=lambda e: e.name)
        ]

    # -- placement publication --------------------------------------------

    @command(read_only=True)
    def cmd_placement(self):
        """The latest published placement map (``None`` before the first
        publish)."""
        return self._placement

    def cmd_publish_placement(self, placement, expect_epoch: int) -> int:
        """Install a new placement map, compare-and-set on the epoch.

        The publisher states which epoch it believes is current
        (``expect_epoch``; 0 = none published yet) and the new map must
        be exactly one bump ahead — the same single-test-and-set
        discipline the paper uses for commit publication.  Anything else
        is a stale publisher and is refused with
        :class:`~repro.errors.PlacementStale`.
        """
        current = self._placement.epoch if self._placement is not None else 0
        if expect_epoch != current or placement.epoch != current + 1:
            raise PlacementStale(
                f"publish expected registry epoch {expect_epoch} -> "
                f"{placement.epoch}, but the registry holds {current}"
            )
        self._placement = placement
        if self.recorder.enabled:
            self.recorder.gauge("placement.epoch", placement.epoch)
            self.recorder.count("discovery.publishes")
        return placement.epoch

    # -- bootstrap ---------------------------------------------------------

    @command(read_only=True)
    def cmd_bootstrap(self) -> dict:
        """Everything a fresh client needs: the file-service port, the
        placement map, and the daemon directory (TCP clients dial the
        listed addresses)."""
        if self.service_port is None:
            raise UnknownObject("this registry has no file service recorded")
        return {
            "service_port": self.service_port,
            "placement": self._placement,
            "daemons": self.cmd_directory(),
        }


def attach_discovery(
    network,
    port: int,
    service_port: int | None = None,
    heartbeat_ttl: int = DEFAULT_HEARTBEAT_TTL,
    recorder=None,
    name: str = "discovery",
) -> tuple[DiscoveryServer, RpcEndpoint]:
    """Build a discovery server and attach it to a network on ``port``."""
    server = DiscoveryServer(
        network,
        service_port=service_port,
        heartbeat_ttl=heartbeat_ttl,
        recorder=recorder,
    )
    endpoint = RpcEndpoint(network, name, port, server)
    return server, endpoint


class DiscoveryClient:
    """Typed client for the discovery verbs, usable from sim tasks, CLI
    tools, and daemon-side heartbeat loops alike."""

    def __init__(self, network, node: str, port: int) -> None:
        self.network = network
        self.txn = Transaction(network, node)
        self.port = port

    def register(self, name, kind, port, host=None, tcp_port=None) -> int:
        return self.txn.call(
            self.port,
            "register",
            name=name,
            kind=kind,
            serves=port,
            host=host,
            tcp_port=tcp_port,
        )

    def deregister(self, name: str) -> bool:
        return self.txn.call(self.port, "deregister", name=name)

    def heartbeat(self, name: str) -> bool:
        return self.txn.call(self.port, "heartbeat", name=name)

    def directory(self) -> list[dict]:
        return self.txn.call(self.port, "directory")

    def placement(self):
        return self.txn.call(self.port, "placement")

    def publish_placement(self, placement, expect_epoch: int) -> int:
        return self.txn.call(
            self.port,
            "publish_placement",
            placement=placement,
            expect_epoch=expect_epoch,
        )

    def bootstrap(self) -> dict:
        return self.txn.call(self.port, "bootstrap")

