"""The block server.

§4 of the paper: "We assume the block service implements as a minimum
commands to allocate, deallocate, read and write fixed size blocks of data.
Protection must be provided, so that a block, allocated by user A cannot be
accessed by user B without A's permission.  Writing a block must be an
atomic action [...].  The block server can implement a simple locking
facility.  [...]  Block servers can support a recovery operation, which
given an account number, returns a list of block numbers owned by that
account."

This module is one disk's share of that: ownership and protection,
reservation, one batched write, read, free and recovery.  The
**test-and-set** §5.2 asks of the disk server ("If the disk server
implements a test-and-set operation, any server can be allowed to carry
out a commit") is :func:`compare_and_swap` plus that write; the optional
locking facility is not built (the commit's test-and-set is the critical
section the file service needs).

All commands are plain methods: a block server is never attached to a
network on its own, only as the local store inside each half of a
companion pair (:class:`~repro.block.stable.StableServer`), whose
commands — allocate_write, write, test_and_set and write_many among them
— are the block service's wire surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import (
    DiskFull,
    NoSuchBlock,
    NotBlockOwner,
    ServerCrashed,
)
from repro.block.fdisk import FDisk
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
    tier is a swap riding a replicated batch
    (``StableServer.begin_batch``): this function on the checked local
    copy, then the swapped block written behind the batch's pages.
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
    """One block server over one disk.

    ``name`` identifies the server on the network and in intentions lists.
    Crashing a block server (``crash()``) kills its process: the disk's
    descriptors and the owner map in memory are gone, and every command
    raises :class:`ServerCrashed` until ``restart()``.  The disk keeps
    what was synced, as §4 assumes for magnetic media; ``restart()``
    reopens it, and the owner map comes back from its journal.
    """

    def __init__(
        self,
        name: str,
        disk: FDisk,
        clock: LogicalClock | None = None,
    ) -> None:
        self.name = name
        self.disk = disk
        self.recorder = disk.recorder
        self.clock = clock if clock is not None else disk.clock
        self._owner: dict[int, int] = disk.recovered_owners()
        self._crashed = False

    # -- lifecycle -------------------------------------------------------

    def crash(self, power_loss: bool = False) -> None:
        """Crash the server process; with ``power_loss`` its machine loses
        power too (see :meth:`FDisk.crash`)."""
        self._crashed = True
        self._owner = {}
        self.disk.crash(power_loss)

    def restart(self) -> None:
        """Restart after a crash: reopen the disk and recover from it."""
        if self._crashed:
            self.disk = self.disk.reopen()
            self._owner = self.disk.recovered_owners()
            self._crashed = False

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

    def _pick(self, block_no: int) -> int:
        """Accept a chosen block number that is free here; grants nothing
        yet.  The stable server chooses numbers for both halves."""
        self._check_up()
        if block_no in self._owner:
            raise DiskFull(f"block {block_no} is already allocated")
        if block_no > self.disk.capacity:
            raise DiskFull(f"block {block_no} beyond capacity {self.disk.capacity}")
        return block_no

    def _write_granting(
        self, writes: list[tuple[int, bytes]], grants: dict[int, int]
    ) -> None:
        """Write a batch and grant ``grants`` (block → account) with it: the
        OWNER records and the data are one append and one sync.  Nothing is
        granted if the write fails."""
        self.disk.write_many(writes, grants)
        self._owner.update(grants)
        if self.recorder.enabled and grants:
            # One event per batch: an extent refill inside a commit would
            # otherwise hang EXTENT events on every retained commit span.
            self.recorder.event("block.alloc", server=self.name, blocks=len(grants))

    def reserve(self, account: int, blocks: list[int]) -> None:
        """Allocate an extent of chosen block numbers for ``account``, no
        data yet: all the OWNER records are one append and one sync.
        Nothing is granted if any number is taken."""
        grants = {self._pick(block_no): account for block_no in blocks}
        self._write_granting([], grants)

    def write_many(
        self, account: int, writes: list[tuple[int, bytes]], adopt: bool = False
    ) -> None:
        """Atomically write a batch of allocated blocks — the only way data
        reaches this disk.

        The whole batch becomes stable at one journal sync
        (``FDisk.write_many``).  Ownership is checked for every member
        before anything is written.  With ``adopt`` — an allocating write,
        where the stable server chose the numbers — members nobody owns
        yet are allocated to ``account`` in the same transaction.
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
        self.disk.erase(block_no, disown=True)  # DISOWN + ERASE, one sync

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
