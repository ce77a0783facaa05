"""The block server.

§4 of the paper: "We assume the block service implements as a minimum
commands to allocate, deallocate, read and write fixed size blocks of data.
Protection must be provided, so that a block, allocated by user A cannot be
accessed by user B without A's permission.  Writing a block must be an
atomic action [...].  The block server can implement a simple locking
facility.  [...]  Block servers can support a recovery operation, which
given an account number, returns a list of block numbers owned by that
account."

This module implements exactly that command set, plus the **test-and-set**
primitive §5.2 asks of the disk server ("If the disk server implements a
test-and-set operation, any server can be allowed to carry out a commit"):
an atomic compare-and-swap of a byte range inside a block, which the file
service uses on the commit-reference field of version pages.

All commands are plain methods: a block server is never attached to a
network on its own, only as the local store inside each half of a
companion pair (:class:`~repro.block.stable.StableServer`), whose
commands are the block service's wire surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import (
    BlockLocked,
    DiskFull,
    NoSuchBlock,
    NotBlockOwner,
    ServerCrashed,
)
from repro.block.disk import SimDisk
from repro.sim.clock import LogicalClock

# Serialized pages carry a fixed header in front of up to 32K of page body
# (client data + reference table); the disk block must hold both.
PAGE_BODY_SIZE = 32768
PAGE_HEADER_SIZE = 128
BLOCK_SIZE = PAGE_BODY_SIZE + PAGE_HEADER_SIZE

# The shared "anyone may read/write" pseudo-account.  The file service uses
# one real account per service so replicated file servers can reach each
# other's blocks; PUBLIC exists for tests and simple clients.
PUBLIC_ACCOUNT = 0


@dataclass
class TasResult:
    """Outcome of a test-and-set: whether the swap happened, and the bytes
    that were current at the probed offset (after the operation)."""

    success: bool
    current: bytes


def compare_and_swap(
    data: bytes, offset: int, expected: bytes, new: bytes
) -> tuple[TasResult, bytes | None]:
    """The test-and-set itself, on a block's bytes: compare ``expected``
    against ``data`` at ``offset`` and splice ``new`` in on a match.

    Returns the outcome and the swapped block — ``None`` when the compare
    failed and nothing is to be written.  Every test-and-set in the block
    tier (one disk, a companion pair, a swap riding a commit flush) is
    this function plus its own way of reading and writing the block.
    """
    if len(new) != len(expected):
        raise ValueError("test_and_set: expected and new must be equal length")
    end = offset + len(expected)
    if end > len(data):
        raise ValueError(
            f"test_and_set range {offset}..{end} beyond block of {len(data)} bytes"
        )
    current = data[offset:end]
    if current != expected:
        return TasResult(False, current), None
    return TasResult(True, new), data[:offset] + new + data[end:]


class BlockServer:
    """One block server over one simulated disk.

    ``name`` identifies the server on the network and in intentions lists.
    Crashing a block server (``crash()``) makes every command raise
    :class:`ServerCrashed` until ``restart()``; the underlying disk keeps
    its contents, as §4 assumes for magnetic media.
    """

    def __init__(
        self,
        name: str,
        disk: SimDisk,
        clock: LogicalClock | None = None,
    ) -> None:
        self.name = name
        self.disk = disk
        self.recorder = disk.recorder
        self.clock = clock if clock is not None else disk.clock
        self._owner: dict[int, int] = {}
        self._locks: dict[int, int] = {}  # block -> locker id (a port)
        self._alloc_cursor = 1
        self._crashed = False
        # A durable disk (block.fdisk.FDisk) journals the owner map; seed
        # from it so a process restart recovers protection state, and keep
        # it updated on every allocate/free — in the same journal append as
        # the data the request writes or erases.  SimDisk has no such hooks.
        self._journalled = hasattr(disk, "recovered_owners")
        if self._journalled:
            self._owner.update(disk.recovered_owners())

    # -- lifecycle -------------------------------------------------------

    def crash(self) -> None:
        """Crash the server process (disk contents survive)."""
        self._crashed = True

    def restart(self) -> None:
        """Restart after a crash.  Locks do not survive the crash — the
        paper's lock-recovery story relies on waiters noticing the holder
        died, and a dead server's own lock table dies with it."""
        self._crashed = False
        self._locks.clear()

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _check_up(self) -> None:
        if self._crashed:
            raise ServerCrashed(f"block server {self.name} is crashed")

    # -- protection helpers ----------------------------------------------

    def _check_owner(self, block_no: int, account: int) -> None:
        owner = self._owner.get(block_no)
        if owner is None:
            raise NoSuchBlock(f"block {block_no} is not allocated")
        if owner != account and owner != PUBLIC_ACCOUNT:
            raise NotBlockOwner(
                f"block {block_no} belongs to account {owner}, not {account}"
            )

    # -- commands ----------------------------------------------------------

    def _pick(self, hint: int | None) -> int:
        """Choose (or accept) a free block number; grants nothing yet."""
        self._check_up()
        if hint is not None:
            if hint in self._owner:
                raise DiskFull(f"hinted block {hint} is already allocated")
            block_no = hint
        else:
            block_no = self._alloc_cursor
            while block_no in self._owner or self.disk.holds(block_no):
                block_no += 1
                if block_no > self.disk.capacity:
                    raise DiskFull("no free blocks")
            self._alloc_cursor = block_no + 1
        if block_no > self.disk.capacity:
            raise DiskFull(f"block {block_no} beyond capacity {self.disk.capacity}")
        return block_no

    def _grant(self, block_no: int, account: int) -> None:
        self._owner[block_no] = account
        if self.recorder.enabled:
            self.recorder.event("block.alloc", server=self.name, block=block_no)

    def _write_granting(
        self, writes: list[tuple[int, bytes]], grants: dict[int, int]
    ) -> None:
        """Write a batch and grant ``grants`` (block → account) with it: on
        a journalled disk the OWNER records and the data are one append
        and one sync.  Nothing is granted if the write fails."""
        if self._journalled:
            self.disk.write_many(writes, grants)
        else:
            for block_no, data in writes:
                self.disk.write(block_no, data)
        for block_no, account in grants.items():
            self._grant(block_no, account)

    def allocate(self, account: int, hint: int | None = None) -> int:
        """Allocate a free block for ``account`` and return its number.

        ``hint`` asks for a specific block number (used by the companion
        protocol, where the initiating server chooses the number for both
        disks); without a hint the lowest free number is chosen.
        """
        block_no = self._pick(hint)
        if self._journalled:
            self.disk.set_owner(block_no, account)
        self._grant(block_no, account)
        return block_no

    def reserve(self, account: int, blocks: list[int]) -> None:
        """Allocate an extent of chosen block numbers for ``account``, no
        data yet: on a journalled disk all the OWNER records are one
        append and one sync.  Nothing is granted if any number is taken."""
        grants = {self._pick(block_no): account for block_no in blocks}
        self._write_granting([], grants)

    def write(self, account: int, block_no: int, data: bytes) -> None:
        """Atomically write ``data`` to an allocated block owned by ``account``."""
        self._check_up()
        self._check_owner(block_no, account)
        self.disk.write(block_no, data)

    def allocate_write(
        self, account: int, data: bytes, *, hint: int | None = None
    ) -> int:
        """Allocate a block and write it in one command (the common case:
        copy-on-write shadowing always writes fresh blocks)."""
        block_no = self._pick(hint)
        self._write_granting([(block_no, data)], {block_no: account})
        return block_no

    def write_many(
        self, account: int, writes: list[tuple[int, bytes]], adopt: bool = False
    ) -> None:
        """Atomically write a batch of allocated blocks.

        On a durable disk the whole batch becomes stable at one journal
        sync (``FDisk.write_many``); on a plain SimDisk it degrades to a
        loop of atomic writes.  Ownership is checked for every member
        before anything is written.  With ``adopt`` — the companion-side
        apply, where the other half chose the numbers — members nobody
        owns yet are allocated to ``account`` in the same transaction.
        """
        self._check_up()
        grants: dict[int, int] = {}
        for block_no, _ in writes:
            if adopt and block_no not in self._owner:
                grants[self._pick(block_no)] = account
            else:
                self._check_owner(block_no, account)
        self._write_granting(writes, grants)

    def read(self, account: int, block_no: int) -> bytes:
        """Read an allocated block, enforcing ownership."""
        self._check_up()
        self._check_owner(block_no, account)
        return self.disk.read(block_no)

    def free(self, account: int, block_no: int) -> None:
        """Deallocate a block; its contents are erased (on magnetic media)."""
        self._check_up()
        self._check_owner(block_no, account)
        del self._owner[block_no]
        self._locks.pop(block_no, None)
        if self._journalled:
            self.disk.erase(block_no, disown=True)  # DISOWN + ERASE, one sync
        else:
            self.disk.erase(block_no)

    def test_and_set(
        self,
        account: int,
        block_no: int,
        offset: int,
        expected: bytes,
        new: bytes,
    ) -> TasResult:
        """Atomic compare-and-swap of ``len(expected)`` bytes at ``offset``.

        If the stored bytes equal ``expected``, they are replaced by ``new``
        (which must be the same length) and ``success`` is True.  Otherwise
        nothing changes and the caller gets the bytes actually stored — for
        the commit protocol that is the commit reference of the version
        that got there first (§5.2, Figure 6).

        The read-modify-write happens within one command, which the
        simulation executes atomically — this *is* the single critical
        section of version commit.
        """
        self._check_up()
        self._check_owner(block_no, account)
        result, swapped = compare_and_swap(
            self.disk.read(block_no), offset, expected, new
        )
        if swapped is not None:
            self.disk.write(block_no, swapped)
        if self.recorder.enabled:
            self.recorder.event(
                "block.tas", server=self.name, block=block_no, success=result.success
            )
        return result

    # -- the simple locking facility ----------------------------------------

    def lock(self, block_no: int, locker: int) -> bool:
        """Try to lock a block for ``locker``; True on success.

        Re-locking by the same locker succeeds (the facility is advisory
        and re-entrant, which is all the file service needs).
        """
        self._check_up()
        holder = self._locks.get(block_no)
        if holder is None or holder == locker:
            self._locks[block_no] = locker
            return True
        return False

    def unlock(self, block_no: int, locker: int) -> None:
        """Release a lock held by ``locker``; foreign unlocks raise."""
        self._check_up()
        holder = self._locks.get(block_no)
        if holder is None:
            return
        if holder != locker:
            raise BlockLocked(
                f"block {block_no} locked by {holder}, not {locker}"
            )
        del self._locks[block_no]

    def lock_holder(self, block_no: int) -> int | None:
        self._check_up()
        return self._locks.get(block_no)

    # -- recovery -----------------------------------------------------------

    def recover(self, account: int) -> list[int]:
        """The §4 recovery operation: all block numbers owned by ``account``.

        "A client, e.g., a file server, can then use its redundancy
        information to restore its file system after a severe crash."
        """
        self._check_up()
        return sorted(
            block for block, owner in self._owner.items() if owner == account
        )

    def owner_of(self, block_no: int) -> int | None:
        """The owning account of a block, or None if unallocated."""
        return self._owner.get(block_no)

    def allocated_blocks(self) -> Iterable[int]:
        """All allocated block numbers (GC uses this for sweep audits)."""
        return sorted(self._owner)
