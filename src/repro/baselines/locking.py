"""An XDFS-style transactional file server (the locking baseline).

Modelled on the description in §3 of the paper:

* "Open transaction and close transaction commands bracket a series of
  read write commands to one or more files, and the system guarantees the
  atomic property for these transactions."
* "XDFS realises the atomic property via so-called intentions lists, a
  list of changes to the file."
* "There are three kinds of locks, read locks, intention-write locks, and
  commit locks.  When a server has locked a datum for some time, a timer
  expires and the lock becomes vulnerable.  Another server, waiting on
  that lock, can then prod the first, requesting it to release its lock.
  If it is in a state to do so, it releases its lock, otherwise it ignores
  the prod."

Lock compatibility: read locks share with read and intention-write locks;
intention-write locks exclude each other; commit locks exclude everything.
Commit upgrades the transaction's intention-write locks to commit locks
(waiting out readers), writes the intentions list durably, applies it to
the pages in place, then releases.  A crash between writing the list and
finishing the application is repaired at restart by *redoing* the list;
a crash before that point leaves locks to be cleared and buffered updates
to be discarded — that cleanup is exactly the recovery work the paper's
optimistic design eliminates (claim C4 benchmarks it).

Blocking is cooperative: an operation that must wait raises
:class:`WouldBlock`; the caller yields and retries.  Waiters prod
vulnerable locks: a holder that is not in its commit phase is wounded
(aborted) so the waiter can make progress — which also breaks deadlocks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import BaselineError, TransactionAborted
from repro.block.sharding import ShardedBlockClient
from repro.sim.network import Network

# A lock older than this many logical ticks is vulnerable to prodding.
VULNERABLE_AGE = 2_000

_LIST_HEAD = struct.Struct(">QI")  # transaction id, entry count
_LIST_ENTRY = struct.Struct(">QII")  # file id, page index, data length


class WouldBlock(BaselineError):
    """The operation must wait for a lock; yield and retry."""


@dataclass
class _Lock:
    kind: str  # "read" | "iwrite" | "commit"
    txn: int
    since: int  # logical time of acquisition


@dataclass
class _Txn:
    txn_id: int
    status: str = "open"  # open | committing | committed | aborted
    # Buffered updates: the intentions list under construction.
    intentions: dict[tuple[int, int], bytes] = field(default_factory=dict)
    locks: set[tuple[int, int]] = field(default_factory=set)


class LockingFileService:
    """A page-addressed transactional file server using 2PL."""

    def __init__(
        self, name: str, network: Network, block_port: int, account: int
    ) -> None:
        self.name = name
        self.network = network
        self.clock = network.clock
        self.blocks = ShardedBlockClient(network, name, [block_port], account)
        self._next_file = 1
        self._next_txn = 1
        self._page_table: dict[tuple[int, int], int] = {}  # (file, idx) -> block
        self._locks: dict[tuple[int, int], list[_Lock]] = {}
        self._txns: dict[int, _Txn] = {}
        self._intention_blocks: dict[int, list[int]] = {}  # txn -> durable list
        self._crashed = False
        self.stats_aborted_by_prod = 0

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------

    def create_file(self, pages: list[bytes]) -> int:
        """Create a file of ``len(pages)`` pages; returns its id."""
        self._check_up()
        file_id = self._next_file
        self._next_file += 1
        for index, data in enumerate(pages):
            block = self.blocks.allocate_write(data)
            self._page_table[(file_id, index)] = block
        return file_id

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def open_transaction(self) -> int:
        self._check_up()
        txn_id = self._next_txn
        self._next_txn += 1
        self._txns[txn_id] = _Txn(txn_id)
        return txn_id

    def read(self, txn_id: int, file_id: int, index: int) -> bytes:
        """Read a page under a read lock."""
        txn = self._live(txn_id)
        key = (file_id, index)
        self._acquire(txn, key, "read")
        if key in txn.intentions:
            return txn.intentions[key]
        return self.blocks.read(self._page_block(key))

    def write(self, txn_id: int, file_id: int, index: int, data: bytes) -> None:
        """Buffer a page write under an intention-write lock."""
        txn = self._live(txn_id)
        key = (file_id, index)
        self._acquire(txn, key, "iwrite")
        txn.intentions[key] = data

    def close_transaction(self, txn_id: int) -> None:
        """Commit: upgrade to commit locks, make the intentions list
        durable, apply it, release everything."""
        txn = self._live(txn_id)
        # Entering the commit phase makes the transaction immune to prods
        # ("otherwise it ignores the prod"); it stays committing across
        # retries while it waits out the remaining readers.
        txn.status = "committing"
        for key in sorted(txn.intentions):
            self._acquire(txn, key, "commit")
        self._write_intentions(txn)
        self._apply_intentions(txn)
        self._discard_intentions(txn.txn_id)
        self._release_all(txn)
        txn.status = "committed"

    def abort_transaction(self, txn_id: int) -> None:
        txn = self._txns.get(txn_id)
        if txn is None or txn.status in ("committed", "aborted"):
            return
        self._release_all(txn)
        txn.status = "aborted"
        txn.intentions.clear()

    # ------------------------------------------------------------------
    # locking internals
    # ------------------------------------------------------------------

    _COMPATIBLE = {
        ("read", "read"): True,
        ("read", "iwrite"): True,
        ("iwrite", "read"): True,
        ("read", "commit"): False,
        ("commit", "read"): False,
        ("iwrite", "iwrite"): False,
        ("iwrite", "commit"): False,
        ("commit", "iwrite"): False,
        ("commit", "commit"): False,
    }

    def _acquire(self, txn: _Txn, key: tuple[int, int], kind: str) -> None:
        queue = self._locks.setdefault(key, [])
        mine = [lock for lock in queue if lock.txn == txn.txn_id]
        for lock in mine:
            if lock.kind == kind or (lock.kind, kind) in (
                ("commit", "read"),
                ("commit", "iwrite"),
                ("iwrite", "iwrite"),
            ):
                return  # already held at sufficient strength
        blockers = [
            lock
            for lock in queue
            if lock.txn != txn.txn_id
            and not self._COMPATIBLE[(lock.kind, kind)]
        ]
        if kind == "commit":
            # Upgrade: my own iwrite lock becomes the commit lock; only
            # *other* transactions' locks can block.
            pass
        if blockers:
            self._prod(blockers, txn)
            blockers = [
                lock
                for lock in self._locks.get(key, [])
                if lock.txn != txn.txn_id
                and not self._COMPATIBLE[(lock.kind, kind)]
            ]
            if blockers:
                raise WouldBlock(
                    f"txn {txn.txn_id}: {kind} lock on {key} blocked by "
                    f"{[(b.txn, b.kind) for b in blockers]}"
                )
        if kind == "commit":
            # Replace my iwrite entry with a commit entry.
            queue[:] = [
                lock for lock in queue if lock.txn != txn.txn_id
            ]
        queue.append(_Lock(kind, txn.txn_id, self.clock.now))
        txn.locks.add(key)

    def _prod(self, blockers: list[_Lock], prodder: _Txn) -> None:
        """Prod vulnerable locks: a holder not in its commit phase releases
        by aborting ("if it is in a state to do so, it releases its lock,
        otherwise it ignores the prod").

        Commit-phase holders ignore ordinary prods, but two committers can
        deadlock on each other's read locks; after a much longer age the
        younger committer yields to the older one (wound-wait), which keeps
        the system live without ever wounding a healthy commit.
        """
        for lock in blockers:
            age = self.clock.now - lock.since
            if age < VULNERABLE_AGE:
                continue
            holder = self._txns.get(lock.txn)
            if holder is None or holder.status in ("committed", "aborted"):
                continue
            if holder.status == "committing":
                if age >= 4 * VULNERABLE_AGE and holder.txn_id > prodder.txn_id:
                    self.abort_transaction(lock.txn)
                    self.stats_aborted_by_prod += 1
                continue
            self.abort_transaction(lock.txn)
            self.stats_aborted_by_prod += 1

    def _release_all(self, txn: _Txn) -> None:
        for key in txn.locks:
            queue = self._locks.get(key)
            if queue:
                queue[:] = [lock for lock in queue if lock.txn != txn.txn_id]
                if not queue:
                    del self._locks[key]
        txn.locks.clear()

    # ------------------------------------------------------------------
    # intentions lists and recovery
    # ------------------------------------------------------------------

    def _write_intentions(self, txn: _Txn) -> None:
        """Serialise the intentions list to durable blocks before applying."""
        body = _LIST_HEAD.pack(txn.txn_id, len(txn.intentions))
        for (file_id, index), data in sorted(txn.intentions.items()):
            body += _LIST_ENTRY.pack(file_id, index, len(data)) + data
        block = self.blocks.allocate_write(body)
        self._intention_blocks[txn.txn_id] = [block]

    def _apply_intentions(self, txn: _Txn) -> None:
        for key, data in sorted(txn.intentions.items()):
            self.blocks.write(self._page_block(key), data)

    def _discard_intentions(self, txn_id: int) -> None:
        for block in self._intention_blocks.pop(txn_id, []):
            self.blocks.free(block)

    def crash(self) -> None:
        """Crash the server: open transactions and the lock table are lost
        in memory, but locks conceptually persist until recovery clears
        them, and durable intentions lists await replay."""
        self._crashed = True

    def recover(self) -> dict[str, int]:
        """Restart after a crash.  Returns the recovery work performed:
        intentions replayed (redo) and locks cleared (the rollback side) —
        the cost the Amoeba design claims to avoid entirely."""
        replayed = 0
        redone_txns: set[int] = set()
        for txn_id, blocks in list(self._intention_blocks.items()):
            redone_txns.add(txn_id)
            for block in blocks:
                raw = self.blocks.read(block)
                _, count = _LIST_HEAD.unpack_from(raw, 0)
                offset = _LIST_HEAD.size
                for _ in range(count):
                    file_id, index, dlen = _LIST_ENTRY.unpack_from(raw, offset)
                    offset += _LIST_ENTRY.size
                    data = raw[offset:offset + dlen]
                    offset += dlen
                    self.blocks.write(self._page_block((file_id, index)), data)
                    replayed += 1
            self._discard_intentions(txn_id)
        locks_cleared = sum(len(queue) for queue in self._locks.values())
        self._locks.clear()
        open_discarded = 0
        for txn in self._txns.values():
            if txn.txn_id in redone_txns:
                # Its durable intentions were replayed: it committed.
                txn.status = "committed"
                txn.locks.clear()
                continue
            if txn.status in ("open", "committing"):
                txn.status = "aborted"
                txn.intentions.clear()
                txn.locks.clear()
                open_discarded += 1
        self._crashed = False
        return {
            "intentions_replayed": replayed,
            "locks_cleared": locks_cleared,
            "transactions_rolled_back": open_discarded,
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check_up(self) -> None:
        if self._crashed:
            from repro.errors import ServerCrashed

            raise ServerCrashed(f"locking server {self.name} is crashed")

    def _live(self, txn_id: int) -> _Txn:
        self._check_up()
        txn = self._txns.get(txn_id)
        if txn is None:
            raise BaselineError(f"unknown transaction {txn_id}")
        if txn.status == "aborted":
            raise TransactionAborted(f"transaction {txn_id} was aborted")
        if txn.status == "committed":
            raise BaselineError(f"transaction {txn_id} already committed")
        return txn

    def _page_block(self, key: tuple[int, int]) -> int:
        try:
            return self._page_table[key]
        except KeyError:
            raise BaselineError(f"no page {key}") from None

    def read_committed(self, file_id: int, index: int) -> bytes:
        """A non-transactional read of the last committed page state."""
        self._check_up()
        return self.blocks.read(self._page_block((file_id, index)))
