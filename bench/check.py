"""Correctness oracles: what the benchmark knows the service must return.

Two client-side models.  :class:`PageOracle` remembers the last
acknowledged bytes of every page (``commit_durable``, ``read_hot``,
``bulk_recover``); :class:`CounterOracle` counts acknowledged increments,
whose total the counter files must sum to (``mixed_contended``).  Any
mismatch, missing page or exception is one failed operation in the
:class:`Tally`.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

COUNTER_BYTES = 8


def page_bytes(seed: int, file_no: int, page_no: int, version: int, size: int) -> bytes:
    """The content of one page version: a readable tag, then seeded noise."""
    tag = b"f%d p%d v%d|" % (file_no, page_no, version)
    noise = random.Random(f"{seed}/{file_no}/{page_no}/{version}").randbytes(size)
    return (tag + noise)[:size]


@dataclass
class Tally:
    """Operations attempted and failed, across threads."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, note: str) -> None:
        """One attempted operation raised, or returned the wrong bytes."""
        with self._lock:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    @property
    def failed_op_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class PageOracle:
    """Last-acknowledged bytes per ``(file, page)``."""

    def __init__(self) -> None:
        self.pages: dict[tuple[int, int], bytes] = {}
        self.user_bytes = 0  # payload bytes acknowledged as committed

    def acknowledge(self, writes: dict[tuple[int, int], bytes]) -> None:
        """Record the writes of an update the service acknowledged."""
        self.pages.update(writes)
        self.user_bytes += sum(len(data) for data in writes.values())

    def verify(self, key: tuple[int, int], data: bytes, tally: Tally, where: str) -> bool:
        expected = self.pages.get(key)
        if data == expected:
            return True
        tally.fail(
            "%s: page %r holds %d byte(s) %r..., expected %r..."
            % (where, key, len(data), data[:24], (expected or b"")[:24])
        )
        return False


class CounterOracle:
    """Acknowledged increments per thread; the counters must sum to them."""

    def __init__(self, files: int) -> None:
        self.files = files
        self._acked = 0
        self._lock = threading.Lock()

    def acknowledge(self) -> None:
        with self._lock:
            self._acked += 1

    @property
    def acked(self) -> int:
        return self._acked

    @property
    def user_bytes(self) -> int:
        return (self.files + self._acked) * COUNTER_BYTES

    def verify_sum(self, values: list[bytes], tally: Tally, where: str) -> bool:
        total = sum(decode_counter(raw) for raw in values)
        if total == self._acked:
            return True
        tally.fail(
            "%s: counters sum to %d, %d increment(s) were acknowledged"
            % (where, total, self._acked)
        )
        return False


def encode_counter(value: int) -> bytes:
    return value.to_bytes(COUNTER_BYTES, "big")


def decode_counter(raw: bytes) -> int:
    return int.from_bytes(raw, "big")
