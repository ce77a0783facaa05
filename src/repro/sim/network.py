"""A deterministic point-to-point network.

Models the Amoeba LAN at the level the paper's protocols care about:
messages between named nodes, per-hop latency charged to the logical clock,
message counting (the currency of several of the paper's efficiency
claims), partitions, and fault-injected drops.

Delivery is synchronous — a ``send`` either reaches the destination handler
immediately (after charging latency) or raises — because the Amoeba
transaction primitive the paper builds on is itself synchronous
request/response.  Asynchrony between *clients* is modelled one level up by
the cooperative scheduler, not by message buffering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import MessageDropped, ServerUnreachable
from repro.obs import NULL_RECORDER
from repro.sim.clock import LogicalClock
from repro.sim.faults import DropPolicy

# One network hop costs this many logical ticks by default.  The value is
# arbitrary but shared, so message counts and latencies stay proportional.
DEFAULT_HOP_TICKS = 10


@dataclass
class NetworkStats:
    """Counters the benchmarks report."""

    messages: int = 0
    bytes: int = 0
    drops: int = 0
    unreachable: int = 0

    def snapshot(self) -> "NetworkStats":
        return NetworkStats(self.messages, self.bytes, self.drops, self.unreachable)

    def delta(self, earlier: "NetworkStats") -> "NetworkStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return NetworkStats(
            self.messages - earlier.messages,
            self.bytes - earlier.bytes,
            self.drops - earlier.drops,
            self.unreachable - earlier.unreachable,
        )


class Network:
    """The simulated LAN connecting clients and servers.

    Nodes attach under a unique name with a handler
    ``handler(sender, payload) -> reply``.  ``send`` routes a payload to a
    node and returns the reply.  Partitions make selected node pairs
    mutually unreachable.
    """

    # Pauses (seconds) before each extra sweep of a port's servers
    # (``repro.sim.rpc.Transaction``): none, since nothing can heal while
    # a synchronous call is in flight.
    SWEEP_PAUSES: tuple[float, ...] = ()

    def __init__(
        self,
        clock: LogicalClock | None = None,
        hop_ticks: int = DEFAULT_HOP_TICKS,
        drop_policy: DropPolicy | None = None,
        recorder=None,
    ) -> None:
        self.clock = clock if clock is not None else LogicalClock()
        self.hop_ticks = hop_ticks
        self.drop_policy = drop_policy if drop_policy is not None else DropPolicy()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.stats = NetworkStats()
        self._handlers: dict[str, Callable[[str, Any], Any]] = {}
        self._detached: set[str] = set()
        self._partitions: set[frozenset[str]] = set()
        # Optional tracer: called as tracer(sender, dest, payload) before
        # delivery.  Protocol tests use it to assert message sequences.
        self.tracer: Callable[[str, str, Any], None] | None = None

    # -- topology ----------------------------------------------------------

    def attach(self, name: str, handler: Callable[[str, Any], Any]) -> None:
        """Attach a node.  Re-attaching replaces the handler (restart)."""
        self._handlers[name] = handler
        self._detached.discard(name)

    def detach(self, name: str) -> None:
        """Detach a node: it stops answering (models a crashed host)."""
        self._detached.add(name)

    def reattach(self, name: str) -> None:
        """Bring a previously detached node back (restart after crash).
        A node that never registered a handler (pure client) just loses
        its detached mark."""
        self._detached.discard(name)

    def partition(self, a: str, b: str) -> None:
        """Make nodes ``a`` and ``b`` mutually unreachable."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Remove the partition between ``a`` and ``b`` if present."""
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def reachable(self, sender: str, dest: str) -> bool:
        """Whether a message from ``sender`` can currently reach ``dest``."""
        if dest not in self._handlers or dest in self._detached:
            return False
        return frozenset((sender, dest)) not in self._partitions

    # -- delivery ----------------------------------------------------------

    def send(self, sender: str, dest: str, payload: Any, size: int = 0) -> Any:
        """Deliver ``payload`` from ``sender`` to ``dest`` and return the reply.

        Charges one hop of latency for the request and one for the reply.
        Raises :class:`ServerUnreachable` if the destination is absent,
        detached, or partitioned away, and :class:`MessageDropped` if the
        drop policy eats the message.
        """
        self.clock.advance(self.hop_ticks)
        self.stats.messages += 1
        self.stats.bytes += size
        if self.recorder.enabled:
            self.recorder.count("net.messages")
            # Per-span message accounting: a commit (or flush) span carries
            # the number of messages sent on its behalf without storing an
            # event object per message.
            span = self.recorder.current_span
            if span is not None:
                span.inc("net.messages")
        if self.tracer is not None:
            self.tracer(sender, dest, payload)
        if self.drop_policy.should_drop():
            self.stats.drops += 1
            self.recorder.count("net.drops")
            raise MessageDropped(f"{sender} -> {dest}")
        if not self.reachable(sender, dest):
            self.stats.unreachable += 1
            self.recorder.count("net.unreachable")
            raise ServerUnreachable(f"{sender} -> {dest}")
        reply = self._handlers[dest](sender, payload)
        # Reply hop.
        self.clock.advance(self.hop_ticks)
        self.stats.messages += 1
        if self.recorder.enabled:
            self.recorder.count("net.messages")
            span = self.recorder.current_span
            if span is not None:
                span.inc("net.messages")
        return reply

    # -- introspection -------------------------------------------------------

    def nodes(self) -> list[str]:
        """Names of all attached (possibly detached) nodes."""
        return sorted(self._handlers)

    def is_up(self, name: str) -> bool:
        return name in self._handlers and name not in self._detached
