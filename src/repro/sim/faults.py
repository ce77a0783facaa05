"""Declarative fault injection for the simulation.

The paper's central robustness claims are about behaviour *under failure*:
server crashes mid-update, disk crashes, lost messages.  This module gives
tests and the soak a small vocabulary for injecting those faults
deterministically: a :class:`DropPolicy` for the network, and
:class:`FaultScript` of seeded :class:`FaultEvent` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DropPolicy:
    """Decide which messages the network drops.

    ``drop_every`` drops every k-th message (1-based); ``drop_nth`` drops
    specific message sequence numbers.  Both may be combined.  The default
    policy drops nothing.
    """

    drop_every: int | None = None
    drop_nth: frozenset[int] = frozenset()
    _seq: int = field(default=0, repr=False)
    dropped: int = field(default=0, repr=False)

    def should_drop(self) -> bool:
        """Advance the message sequence number and decide this message's fate."""
        self._seq += 1
        drop = False
        if self.drop_every is not None and self._seq % self.drop_every == 0:
            drop = True
        if self._seq in self.drop_nth:
            drop = True
        if drop:
            self.dropped += 1
        return drop

    def reset(self) -> None:
        self._seq = 0
        self.dropped = 0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, keyed to a scheduler step count.

    ``action`` names what happens (the soak harness in
    :mod:`repro.sim.explore` maps actions onto a cluster):

    * ``crash_server`` / ``restart_server`` — one file server process, by
      index in ``target``;
    * ``half_down`` / ``half_up`` — one half of a stable pair (``target``
      is ``("a",)`` or ``("b",)``; the companion keeps serving);
    * ``pair_down`` / ``pair_up`` — a whole companion pair (on sharded
      deployments ``target`` is the shard index: a full shard outage);
    * ``partition`` / ``heal`` — cut or restore the link between the two
      named nodes in ``target``;
    * ``drops_on`` / ``drops_off`` — start or stop a lossy-network window
      (``target`` carries the drop-every-k period).
    """

    at_step: int
    action: str
    target: tuple = ()


class FaultScript:
    """An ordered programme of :class:`FaultEvent`\\ s for one run.

    The driving scheduler polls :meth:`due` after every step; events whose
    step has arrived are handed back exactly once, in order.  Scripts are
    plain data, so a failing soak seed replays its exact fault sequence.
    """

    def __init__(self, events: "list[FaultEvent] | tuple[FaultEvent, ...]" = ()) -> None:
        self._pending = sorted(events, key=lambda event: event.at_step)
        self.fired: list[FaultEvent] = []

    def due(self, step: int) -> list[FaultEvent]:
        """Pop and return every event scheduled at or before ``step``."""
        out: list[FaultEvent] = []
        while self._pending and self._pending[0].at_step <= step:
            event = self._pending.pop(0)
            self.fired.append(event)
            out.append(event)
        return out
