"""Logical time for the simulation.

All cost accounting in the reproduction is in *logical ticks*.  Components
charge time to the clock (a network hop, a disk write, a page copy), so
benchmarks can report deterministic latencies independent of the host
machine.  Wall-clock performance of hot paths is measured separately by
pytest-benchmark.
"""

from __future__ import annotations


class LogicalClock:
    """A monotonically advancing logical clock.

    The clock also hands out globally unique, strictly increasing event
    identifiers, which the SWALLOW-style baseline uses as Reed pseudo-time
    timestamps.
    """

    def __init__(self) -> None:
        self._now = 0
        self._events = 0

    @property
    def now(self) -> int:
        """Current logical time in ticks."""
        return self._now

    def advance(self, ticks: int = 1) -> int:
        """Advance time by ``ticks`` (must be non-negative) and return it."""
        if ticks < 0:
            raise ValueError(f"cannot advance clock by {ticks}")
        self._now += ticks
        return self._now

    def timestamp(self) -> int:
        """Return a unique, strictly increasing pseudo-time stamp.

        Consecutive calls return distinct values even if logical time has
        not advanced, by sub-ordering on an event counter.  Stamps are
        comparable across the whole simulation.
        """
        self._events += 1
        return (self._now << 20) | (self._events & 0xFFFFF)

    def reset(self) -> None:
        """Reset to time zero (between independent experiment runs)."""
        self._now = 0
        self._events = 0
