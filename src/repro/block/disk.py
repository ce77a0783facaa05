"""A simulated disk of fixed-size blocks.

Reproduces the storage properties the paper's protocols depend on:

* **Atomic block writes** — "Writing a block must be an atomic action, with
  an acknowledgement that is returned after the block has been stored on
  disk.  This property is vital for the implementation of atomic update on
  files." (§4).  A simulated write either happens entirely or not at all;
  a *torn* write can only be produced deliberately via
  :meth:`SimDisk.corrupt`.
* **Crash behaviour** — "Magnetic disks and optical disks do not usually
  lose their information in a crash, but it does happen occasionally.  In
  any case, they are at least temporarily inaccessible."  :meth:`crash`
  makes the disk inaccessible; :meth:`restore` brings it back with data
  intact; :meth:`corrupt` models the occasional block loss.
* **Write-once (optical) media** — the paper argues the version mechanism
  suits write-once disks; ``write_once=True`` enforces that no block is
  ever overwritten (claim C10's bench runs the whole service on such a
  disk).

Integrity is checked with a per-block checksum, standing in for the disk
controller's ECC: reads of corrupted blocks raise :class:`CorruptBlock`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import (
    BlockTooLarge,
    CorruptBlock,
    DiskCrashed,
    DiskFull,
    NoSuchBlock,
    WriteOnceViolation,
)
from repro.obs import NULL_RECORDER
from repro.sim.clock import LogicalClock

# Logical-tick cost of one disk operation.  A disk access is an order of
# magnitude slower than a network hop (10 ticks), as it was in 1985.
READ_TICKS = 100
WRITE_TICKS = 150


@dataclass
class DiskStats:
    """Operation counters for cost accounting in benchmarks."""

    reads: int = 0
    writes: int = 0
    frees: int = 0
    overwrites: int = 0  # writes to an already-written block number

    def snapshot(self) -> "DiskStats":
        return DiskStats(self.reads, self.writes, self.frees, self.overwrites)

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        return DiskStats(
            self.reads - earlier.reads,
            self.writes - earlier.writes,
            self.frees - earlier.frees,
            self.overwrites - earlier.overwrites,
        )


class SimDisk:
    """An array of ``capacity`` fixed-size blocks, numbered from 1.

    Block number 0 is reserved as the nil reference throughout the system
    (the paper's commit/base references use nil to terminate version
    chains), so the disk never allocates it.
    """

    def __init__(
        self,
        capacity: int,
        block_size: int,
        clock: LogicalClock | None = None,
        write_once: bool = False,
        name: str = "disk",
        recorder=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("disk needs at least one block")
        self.capacity = capacity
        self.block_size = block_size
        self.write_once = write_once
        self.name = name
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.clock = clock if clock is not None else LogicalClock()
        self.stats = DiskStats()
        self._blocks: dict[int, bytes] = {}
        self._checksums: dict[int, int] = {}
        self._ever_written: set[int] = set()
        self._crashed = False

    # -- failure injection ---------------------------------------------------

    def crash(self) -> None:
        """Make the disk inaccessible (contents are retained)."""
        self._crashed = True

    def restore(self) -> None:
        """Bring a crashed disk back online with its contents intact."""
        self._crashed = False

    def corrupt(self, block_no: int) -> None:
        """Flip bits in a stored block (models media decay / torn write)."""
        if block_no in self._blocks:
            data = bytearray(self._blocks[block_no])
            if data:
                data[0] ^= 0xFF
            else:
                data = bytearray(b"\xff")
            # Deliberately do NOT update the checksum.
            self._blocks[block_no] = bytes(data)

    # -- operations ------------------------------------------------------------

    def _check_up(self) -> None:
        if self._crashed:
            raise DiskCrashed("disk is crashed / inaccessible")

    def write(self, block_no: int, data: bytes) -> None:
        """Atomically store ``data`` in ``block_no``.

        Raises :class:`WriteOnceViolation` on overwrite when the disk is
        write-once, :class:`BlockTooLarge` if the data exceeds the block
        size, and :class:`DiskCrashed` if the disk is down.
        """
        self._check_up()
        if not 1 <= block_no <= self.capacity:
            raise NoSuchBlock(f"block {block_no} out of range 1..{self.capacity}")
        if len(data) > self.block_size:
            raise BlockTooLarge(
                f"{len(data)} bytes > block size {self.block_size}"
            )
        if block_no in self._ever_written:
            if self.write_once:
                raise WriteOnceViolation(
                    f"block {block_no} already written on write-once media"
                )
            self.stats.overwrites += 1
        self.clock.advance(WRITE_TICKS)
        self._blocks[block_no] = data
        self._checksums[block_no] = zlib.crc32(data)
        self._ever_written.add(block_no)
        self.stats.writes += 1
        if self.recorder.enabled:
            self.recorder.event("disk.write", disk=self.name, block=block_no)

    def read(self, block_no: int) -> bytes:
        """Return the stored block, verifying integrity.

        Raises :class:`NoSuchBlock` for never-written blocks and
        :class:`CorruptBlock` when the checksum fails.
        """
        self._check_up()
        if block_no not in self._blocks:
            raise NoSuchBlock(f"block {block_no} not written")
        self.clock.advance(READ_TICKS)
        data = self._blocks[block_no]
        if zlib.crc32(data) != self._checksums[block_no]:
            raise CorruptBlock(f"block {block_no} failed its checksum")
        self.stats.reads += 1
        if self.recorder.enabled:
            self.recorder.event("disk.read", disk=self.name, block=block_no)
        return data

    def write_many(
        self, writes: list[tuple[int, bytes]], owners: dict[int, int] | None = None
    ) -> None:
        """Store a batch, one atomic write per block.  ``owners`` is the
        durable disk's (``FDisk`` journals them with the batch): memory
        keeps no owner records, so they go nowhere here."""
        for block_no, data in writes:
            self.write(block_no, data)

    def erase(self, block_no: int, disown: bool = False) -> None:
        """Erase a block's contents (used by deallocation on magnetic media).

        On write-once media erasing is impossible; the block simply stays.
        ``disown`` is the durable disk's, like ``owners`` above.
        """
        self._check_up()
        if self.write_once:
            return
        self._blocks.pop(block_no, None)
        self._checksums.pop(block_no, None)
        self._ever_written.discard(block_no)
        self.stats.frees += 1
        if self.recorder.enabled:
            self.recorder.event("disk.free", disk=self.name, block=block_no)

    def holds(self, block_no: int) -> bool:
        """Whether the block currently stores data (no integrity check)."""
        return block_no in self._blocks

    def peek(self, block_no: int) -> bytes | None:
        """The stored bytes as they are — no integrity check, no tick, no
        error — or None when the block holds nothing.  For audits that
        compare media (``StablePair.consistent``)."""
        return self._blocks.get(block_no)

    def close(self) -> None:
        """Release what the disk holds open (nothing, in memory)."""

    # -- the durable disk's journal hooks: nothing to journal in memory -----

    def recovered_owners(self) -> dict[int, int]:
        """The owner map a restart recovers: none, in memory."""
        return {}

    def add_intention(
        self, kind: str, account: int, block_no: int, data: bytes = b"",
        sync: bool = True,
    ) -> None:
        """An intentions-list entry lives only in the stable server."""

    def ack_intentions(self, count: int) -> None:
        """See :meth:`add_intention`."""

    def recovered_intentions(self) -> list[tuple[str, int, int, bytes]]:
        """The intentions a restart recovers: none, in memory."""
        return []

    def sync_journal(self) -> None:
        """Every write above is already as stable as memory gets."""

    def first_free(self, start: int = 1) -> int:
        """Lowest never-written block number at or after ``start``.

        Raises :class:`DiskFull` when none remains.  Allocation policy
        proper lives in the block server; this is the media-level probe.
        """
        for block_no in range(max(start, 1), self.capacity + 1):
            if block_no not in self._ever_written:
                return block_no
        raise DiskFull(f"no free block at or after {start}")

    @property
    def blocks_in_use(self) -> int:
        return len(self._blocks)
