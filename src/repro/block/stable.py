"""Companion-pair stable storage (§4 of the paper).

"In our proposed method, each block is stored by two servers on two
different disk drives (in contrast to Lampson and Sturgis' method which
uses one server and two disk drives)."

The protocol, as the paper gives it:

* **Allocate & write** — the receiving server A allocates a block number,
  sends data + number to its companion B; B writes at that address and
  acknowledges; finally A writes its own copy and returns the identifier.
* **Write** — same companion-first message exchange.
* **Read** — served locally; the companion is consulted only when the local
  copy is corrupted.
* **Collisions** — two clients allocating (or writing) the same block
  number simultaneously through the two different servers are "detected
  before any damage is done, because writes are always carried out on the
  companion disk first"; the losing operation is redone after a wait.
* **Crashes** — "After a crash, the block server compares notes with its
  companion, and restores its disk before accepting any requests.  To this
  end, block servers make intentions lists for crashed companion servers.
  Clients send requests to the alternative block server if the primary
  fails to respond."

Collision detection here uses *pending-operation markers*: a server marks a
block while it has an operation in flight on it; a companion-step arriving
at a server that has its own pending operation on the same block raises
:class:`CompanionConflict`.  Because every operation visits the other
server before finishing locally, any two concurrent operations on the same
block through different servers are guaranteed to meet at one origin's
marker, whatever the interleaving (tests enumerate these interleavings via
the explicit ``begin_*`` / ``finish_op`` steps).

Two requests carry more than one block.  A bare ``allocate`` is answered
from a *pool*: a half reserves block numbers :data:`EXTENT` at a time —
one companion exchange and one sync per half for the whole extent — and
hands them out from memory (see :meth:`StableServer.cmd_allocate` for what
that pool may and may not do).  And ``write_many`` carries a commit's
pages together with its conditional swaps, so a commit is one replicated
request (see :meth:`StableServer.cmd_write_many`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    CompanionConflict,
    CorruptBlock,
    DiskFull,
    PlacementStale,
    ServerCrashed,
    ServerUnreachable,
    WriteOnceViolation,
)
from repro.block.disk import SimDisk
from repro.block.server import BLOCK_SIZE, BlockServer, TasResult, compare_and_swap
from repro.sim.network import Network
from repro.sim.rpc import Request, RpcEndpoint, Transaction, command


# Histogram buckets for flush-batch sizes (pages per write_many).
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

# Block numbers are reserved this many at a time (fewer when fewer are
# free): one companion exchange and one sync per half buy EXTENT allocates.
EXTENT = 16

# One conditional swap riding a ``write_many``: (block, offset, expected, new).
Swap = tuple[int, int, bytes, bytes]


@dataclass
class _PendingOp:
    """An operation in flight at its origin server."""

    op_id: int
    kind: str  # "alloc", "write", "free", "reserve"; "tas": a swap in a batch
    account: int
    block_no: int  # of a "reserve": the extent's first number
    data: bytes = b""
    companion_done: bool = False
    extent: list[int] = field(default_factory=list)  # all of a "reserve"

    @property
    def blocks(self) -> list[int]:
        """Every block number this operation holds a pending marker on."""
        return self.extent or [self.block_no]


@dataclass
class _Intention:
    """One entry of the intentions list kept for a crashed companion."""

    kind: str  # "write", "reserve" or "free"
    account: int
    block_no: int
    data: bytes = b""


class StableServer:
    """One half of a companion pair.

    Exposes the block-server command set (allocate_write / write / read /
    free / test_and_set / lock / unlock / recover) with companion-first
    replication underneath, plus the companion-facing commands.
    """

    def __init__(
        self,
        name: str,
        companion_name: str,
        disk: SimDisk,
        network: Network,
    ) -> None:
        self.name = name
        self.companion_name = companion_name
        self.network = network
        self.local = BlockServer(name + ".bs", disk)
        self.recorder = disk.recorder
        self._pending: dict[int, _PendingOp] = {}
        self._next_op = 1
        self._alloc_cursor = 1  # rotating allocation cursor (see _choose_block)
        # Reserved block numbers not handed out yet, block -> owning account,
        # oldest first (see cmd_allocate).  Memory only: a restart forgets it.
        self._pool: dict[int, int] = {}
        self._intentions: list[_Intention] = []
        # A durable disk (block.fdisk.FDisk) journals the intentions list;
        # seed from it so intentions recorded for a crashed companion
        # survive *this* server's own process death too.
        self._persist_intent = getattr(disk, "add_intention", None)
        self._persist_intent_ack = getattr(disk, "ack_intentions", None)
        recovered = getattr(disk, "recovered_intentions", None)
        if recovered is not None:
            self._intentions = [
                _Intention(kind, account, block_no, data)
                for kind, account, block_no, data in recovered()
            ]
        self._recovering = False
        self._crashed = False
        # Migration support (see repro.block.rebalance): while a live
        # migration streams this server's blocks, a dirty set records every
        # block mutated since the stream's snapshot; after cutover the
        # retired-epoch stamp turns every client verb into PlacementStale.
        self._dirty: set[int] | None = None
        self._retired_epoch: int | None = None
        self.restarts = 0

    # -- lifecycle --------------------------------------------------------

    def crash(self) -> None:
        """Crash this half: in-memory pending markers are lost, the network
        stops routing to it, the disk keeps its contents."""
        self._crashed = True
        self._pending.clear()
        self._pool.clear()  # the numbers stay owned on disk; the GC reaps them
        self._dirty = None  # in-memory tracking is lost with the process
        self.local.crash()
        self.network.detach(self.name)

    def restart(self) -> None:
        """Restart after a crash; the server answers companion traffic but
        refuses client commands until :meth:`resync` has run ("restores its
        disk before accepting any requests")."""
        self._crashed = False
        self._recovering = True
        self.restarts += 1
        self.local.restart()
        self.network.reattach(self.name)

    def resync(self) -> int:
        """Compare notes with the companion: fetch and apply the intentions
        list recorded while this server was down.  Returns the number of
        intentions applied.

        Two-phase: the fetch leaves the list in place at the companion and
        only the acknowledgement after a full apply clears it — so a crash
        mid-resync loses nothing (the next resync re-applies; the writes
        are idempotent)."""
        intentions: list[_Intention] = self._call_companion("fetch_intentions")
        for intent in intentions:
            if intent.kind == "write":
                self.local.write_many(
                    intent.account, [(intent.block_no, intent.data)], adopt=True
                )
            elif intent.kind == "reserve":
                if self.local.owner_of(intent.block_no) is None:
                    self.local.allocate(intent.account, hint=intent.block_no)
            elif intent.kind == "free":
                if self.local.owner_of(intent.block_no) is not None:
                    self.local.free(intent.account, intent.block_no)
        self._call_companion("ack_intentions", count=len(intentions))
        self._recovering = False
        if intentions:
            self.recorder.count("stable.resync_applied", len(intentions))
        return len(intentions)

    @property
    def available(self) -> bool:
        return not self._crashed and not self._recovering

    def _check_up(self) -> None:
        if self._crashed:
            raise ServerCrashed(f"{self.name} is crashed")

    def _check_serving(self) -> None:
        self._check_up()
        if self._recovering:
            raise ServerCrashed(f"{self.name} is recovering; resync first")
        if self._retired_epoch is not None:
            raise PlacementStale(
                f"{self.name} was cut over at placement epoch "
                f"{self._retired_epoch}; refetch the placement map"
            )

    def _record_intentions(self, intents: list[_Intention]) -> None:
        """Append to the intentions list — durably when the disk journals,
        with one sync for the whole batch."""
        self._intentions.extend(intents)
        if self._persist_intent is not None:
            for intent in intents:
                self._persist_intent(
                    intent.kind, intent.account, intent.block_no, intent.data,
                    sync=False,
                )
            self.local.disk.sync_journal()

    # -- migration support (dirty tracking + retirement) --------------------

    def retire(self, epoch: int) -> None:
        """Stamp this half retired as of a placement epoch: every client
        verb now answers :class:`PlacementStale`.  The stamp survives
        crash/restart cycles (it lives on the server object the way a
        durable retirement record would on a real disk); companion-facing
        commands keep working so the pair can still audit and resync."""
        self._retired_epoch = epoch

    def unretire(self) -> None:
        """Roll back a retirement stamp (migration abort before cutover)."""
        self._retired_epoch = None

    def _note_dirty(self, block_no: int) -> None:
        if self._dirty is not None:
            self._dirty.add(block_no)

    # -- companion messaging ------------------------------------------------

    def _call_companion(self, command: str, **params: Any) -> Any:
        """One message exchange with the companion (counted by the network).

        Dropped messages are retried — the Amoeba transaction primitive the
        servers talk over does its own retransmission.  Every transmission
        attempt is a ``stable.companion_rpc`` event (a dropped request still
        crossed the wire), and retransmissions are additionally counted as
        ``stable.companion_retransmit`` so drop-rate experiments see the
        true traffic.
        """
        from repro.errors import MessageDropped

        last: Exception | None = None
        for attempt in range(4):
            if self.recorder.enabled:
                self.recorder.event(
                    "stable.companion_rpc",
                    origin=self.name,
                    command=command,
                    attempt=attempt + 1,
                )
                if attempt > 0:
                    self.recorder.event(
                        "stable.companion_retransmit",
                        origin=self.name,
                        command=command,
                    )
            try:
                return self.network.send(
                    self.name, self.companion_name, Request(command, params)
                )
            except MessageDropped as exc:
                last = exc
        assert last is not None
        raise last

    def _companion_step(self, op: _PendingOp) -> None:
        """Send the operation to the companion (the companion-first write).

        On companion unreachability, record an intention instead; the
        operation then completes locally only, as the paper prescribes.
        On :class:`CompanionConflict` the pending marker is dropped and the
        conflict propagates to the client for retry.
        """
        try:
            if op.kind == "reserve":
                self._call_companion(
                    "companion_reserve_many",
                    account=op.account,
                    blocks=list(op.extent),
                )
            elif op.kind in ("alloc", "write"):
                self._call_companion(
                    "companion_write",
                    origin=self.name,
                    account=op.account,
                    block_no=op.block_no,
                    data=op.data,
                )
            elif op.kind == "free":
                self._call_companion(
                    "companion_free", account=op.account, block_no=op.block_no
                )
            op.companion_done = True
        except CompanionConflict:
            self._drop_markers(op)
            raise
        except (ServerUnreachable, ServerCrashed):
            kind = op.kind if op.kind in ("free", "reserve") else "write"
            self._record_intentions(
                [_Intention(kind, op.account, b, op.data) for b in op.blocks]
            )
            if self.recorder.enabled:
                self.recorder.event(
                    "stable.intention",
                    origin=self.name,
                    kind=op.kind,
                    block=op.block_no,
                )

    # -- stepwise operation API (tests interleave begin/finish) -------------

    def begin_allocate_write(self, account: int, data: bytes) -> _PendingOp:
        """Choose a block number, mark it pending, run the companion step."""
        self._check_serving()
        block_no = self._choose_block()
        op = self._new_op("alloc", account, block_no, data)
        self._companion_step(op)
        return op

    def begin_reserve(
        self, account: int, numbers: list[int] | None = None
    ) -> _PendingOp:
        """Reserve an extent of block numbers on both disks without
        writing data yet (deferred-write page stores need the number for
        parent references before the data is final): up to :data:`EXTENT`
        freshly chosen numbers, or exactly ``numbers``."""
        self._check_serving()
        op = self._new_extent(account, numbers)
        self._companion_step(op)
        return op

    def begin_write(self, account: int, block_no: int, data: bytes) -> _PendingOp:
        """Mark an existing block pending and run the companion step."""
        self._check_serving()
        self.local._check_owner(block_no, account)  # protection first
        op = self._new_op("write", account, block_no, data)
        self._companion_step(op)
        return op

    def begin_free(self, account: int, block_no: int) -> _PendingOp:
        self._check_serving()
        self.local._check_owner(block_no, account)
        op = self._new_op("free", account, block_no)
        self._companion_step(op)
        return op

    def finish_op(self, op: _PendingOp) -> int:
        """Complete the local half of an operation and clear its marker."""
        self._check_serving()
        if op.kind == "alloc":
            self.local.allocate_write(op.account, op.data, hint=op.block_no)
        elif op.kind == "reserve":
            self.local.reserve(op.account, op.extent)
        elif op.kind == "write":
            self.local.write(op.account, op.block_no, op.data)
        elif op.kind == "free":
            self.local.free(op.account, op.block_no)
            self._pool.pop(op.block_no, None)
        self._drop_markers(op)
        for block_no in op.blocks:
            self._note_dirty(block_no)
        return op.block_no

    def _drop_markers(self, op: _PendingOp) -> None:
        for block_no in op.blocks:
            self._pending.pop(block_no, None)

    def _new_op(self, kind: str, account: int, block_no: int, data: bytes = b"") -> _PendingOp:
        if block_no in self._pending:
            # Two clients of the *same* server: serialized by the server
            # itself in real Amoeba; in the simulation a same-server overlap
            # is a conflict the client retries.
            raise CompanionConflict(
                f"{self.name}: block {block_no} already has an operation in flight"
            )
        op = _PendingOp(self._next_op, kind, account, block_no, data)
        self._next_op += 1
        self._pending[block_no] = op
        return op

    def _new_extent(
        self, account: int, numbers: list[int] | None = None
    ) -> _PendingOp:
        """Mark a whole extent pending under one "reserve" operation:
        ``numbers`` as given, or up to :data:`EXTENT` chosen here."""
        op = _PendingOp(self._next_op, "reserve", account, 0)
        self._next_op += 1
        try:
            for block_no in numbers if numbers is not None else self._fresh_numbers():
                if block_no in self._pending:
                    raise CompanionConflict(
                        f"{self.name}: block {block_no} already has an "
                        f"operation in flight"
                    )
                self._pending[block_no] = op
                op.extent.append(block_no)
        except BaseException:
            self._drop_markers(op)
            raise
        op.block_no = op.extent[0]
        return op

    def _fresh_numbers(self):
        """Up to :data:`EXTENT` free block numbers, one at a time — the
        caller marks each pending before asking for the next.  Fewer when
        the disk has fewer left; :class:`DiskFull` when it has none."""
        for taken in range(EXTENT):
            try:
                yield self._choose_block()
            except DiskFull:
                if not taken:
                    raise
                return

    def _choose_block(self) -> int:
        """Pick a block number free on the local disk and not pending here.

        Both halves choose independently from the same number space, so
        simultaneous allocations can "accidentally" collide — which the
        companion step detects (§4, allocate collisions).

        A rotating cursor remembers where the last search ended, so a
        filling disk costs O(1) amortised per allocation instead of
        rescanning every allocated block from number 1 each time; blocks
        freed behind the cursor are found again after one wrap.
        """
        hint = self._alloc_cursor
        wrapped = False
        while True:
            try:
                candidate = self.local.disk.first_free(hint)
            except DiskFull:
                if wrapped or self._alloc_cursor == 1:
                    raise
                hint = 1
                wrapped = True
                continue
            if candidate not in self._pending and self.local.owner_of(candidate) is None:
                self._alloc_cursor = candidate + 1
                return candidate
            hint = candidate + 1

    # -- client command set ---------------------------------------------------

    def cmd_allocate_write(self, account: int, data: bytes) -> int:
        op = self.begin_allocate_write(account, data)
        return self.finish_op(op)

    def cmd_allocate(self, account: int) -> int:
        """Hand out one reserved block number, from memory.

        The pool holds numbers already owned by ``account`` on both disks
        (:meth:`begin_reserve`), so a number handed out is as durable as
        one reserved on its own; only an empty pool costs an exchange.
        The pool itself is volatile and must stay invisible:

        * a number in it is never reported — ``recover`` and ``manifest``
          omit it, so no garbage collector snapshot holds a number that
          can still be handed out;
        * freeing a pooled number, through either half, takes it out;
        * a restart forgets the pool: the numbers stay owned, unwritten
          and unreferenced, and the collector's sweep reaps them like any
          orphan.
        """
        self._check_serving()
        block_no = next(
            (b for b, owner in self._pool.items() if owner == account), None
        )
        if block_no is None:
            op = self.begin_reserve(account)
            self.finish_op(op)
            self._pool.update(dict.fromkeys(op.extent, account))
            block_no = op.block_no
        del self._pool[block_no]
        # From here the number is a migration's to carry (the manifest
        # left it out while it was pooled).
        self._note_dirty(block_no)
        return block_no

    def cmd_write(self, account: int, block_no: int, data: bytes) -> None:
        op = self.begin_write(account, block_no, data)
        self.finish_op(op)

    def _checked_read(self, account: int, block_no: int) -> bytes:
        """Read a block through the integrity check; on corruption, fetch
        the companion's copy and repair the local one in place.

        Every server-side read of client data goes through here — serving
        (or comparing against) a corrupted local block would propagate
        garbage the companion still holds intact.
        """
        try:
            return self.local.read(account, block_no)
        except CorruptBlock:
            data = self._call_companion(
                "companion_read", account=account, block_no=block_no
            )
            try:
                self.local.write(account, block_no, data)  # repair in place
            except WriteOnceViolation:
                pass  # optical media cannot be repaired; serve the copy
            return data

    def cmd_read(self, account: int, block_no: int) -> bytes:
        """Read locally; on corruption, fetch from the companion and repair.

        "For reads, the block server need not consult its companion server,
        except when the block on its disk is corrupted."
        """
        self._check_serving()
        return self._checked_read(account, block_no)

    def cmd_free(self, account: int, block_no: int) -> None:
        op = self.begin_free(account, block_no)
        self.finish_op(op)

    def cmd_test_and_set(
        self, account: int, block_no: int, offset: int, expected: bytes, new: bytes
    ) -> TasResult:
        """Atomic compare-and-swap, replicated to both disks: a
        :meth:`cmd_write_many` of no pages and one swap."""
        return self._write_batch(account, [], [(block_no, offset, expected, new)])[0]

    def cmd_write_many(
        self,
        account: int,
        writes: list[tuple[int, bytes]],
        swaps: list[Swap] = (),
    ) -> list[TasResult]:
        """Write a batch of blocks, and test-and-set others, in one
        replicated transaction; returns one :class:`TasResult` per swap.

        The whole batch crosses to the companion in a single message
        exchange (companion-first, like any write), then is applied
        locally — an M-page commit flush costs one round trip instead of
        M, and one append and one sync per half.  Pending markers cover
        every block in the batch for the whole exchange, so concurrent
        operations on any member collide exactly as they would against
        individual writes.

        Each swap ``(block, offset, expected, new)`` is compared against
        the local copy; on a match the swapped block joins the batch
        *behind* every page and is propagated companion-first like any
        write, so concurrent test-and-sets through different halves
        collide and one retries — giving the mutual exclusion §5.2's
        commit depends on.  A failed compare reports the bytes found and
        stops nothing else in the batch.

        **Pages before reference.**  §5.2: "First it ascertains that all
        of V.b's pages are safely on disk".  A commit's swap sets a commit
        reference to a version whose pages are this batch's writes, so on
        neither half may the swap become durable before them: within the
        one append the swapped blocks come last, and a torn append keeps a
        prefix.
        """
        return self._write_batch(account, writes, swaps)

    def _write_batch(
        self, account: int, writes: list[tuple[int, bytes]], swaps: list[Swap]
    ) -> list[TasResult]:
        """:meth:`cmd_write_many`, shared with :meth:`cmd_test_and_set`."""
        self._check_serving()
        for block_no, _ in writes:
            self.local._check_owner(block_no, account)
        members = list(writes)
        results: list[TasResult] = []
        for block_no, offset, expected, new in swaps:
            self.local._check_owner(block_no, account)
            # The compare must run against verified data: a corrupted local
            # block would compare garbage and falsely fail (or succeed), so
            # the read goes through the same checked/repair path as cmd_read.
            result, swapped = compare_and_swap(
                self._checked_read(account, block_no), offset, expected, new
            )
            results.append(result)
            if swapped is not None:
                members.append((block_no, swapped))  # behind every page
        if not members:
            return results
        ops: list[_PendingOp] = []
        try:
            for i, (block_no, data) in enumerate(members):
                kind = "write" if i < len(writes) else "tas"
                ops.append(self._new_op(kind, account, block_no, data))
        except CompanionConflict:
            for op in ops:
                self._drop_markers(op)
            raise
        if self.recorder.enabled:
            self.recorder.event(
                "stable.write_many",
                origin=self.name,
                pages=len(writes),
                swaps=len(members) - len(writes),
            )
            self.recorder.count("stable.write_many_blocks", len(members))
            self.recorder.observe(
                "stable.batch_pages", len(members), bounds=_BATCH_BUCKETS
            )
        try:
            self._call_companion(
                "companion_write_many",
                origin=self.name,
                account=account,
                writes=members,
            )
            for op in ops:
                op.companion_done = True
        except CompanionConflict:
            for op in ops:
                self._drop_markers(op)
            raise
        except (ServerUnreachable, ServerCrashed):
            self._record_intentions(
                [_Intention("write", account, b, data) for b, data in members]
            )
            if self.recorder.enabled:
                self.recorder.event(
                    "stable.intention",
                    origin=self.name,
                    kind="write_many",
                    blocks=len(members),
                )
        # The local apply is one batched disk transaction: a single journal
        # sync on durable media, a loop of atomic writes on SimDisk.
        self.local.write_many(account, members)
        for op in ops:
            self._drop_markers(op)
            self._note_dirty(op.block_no)
        return results

    def cmd_lock(self, block_no: int, locker: int) -> bool:
        """Lock a block, replicated companion-first (same pattern as tas).

        Lock state must live on both halves: a client that fails over to
        the companion mid-critical-section would otherwise see the block
        unlocked and the mutual exclusion §5.2's commit depends on would
        silently evaporate.  If the companion refuses (the lock is held
        there by someone else), nothing changes locally; if the local grant
        then fails, the companion's grant is rolled back.  A companion that
        is down is skipped — its lock table died with it anyway.
        """
        self._check_serving()
        companion_granted: bool | None = None
        try:
            companion_granted = self._call_companion(
                "companion_lock", block_no=block_no, locker=locker
            )
        except (ServerUnreachable, ServerCrashed):
            pass  # companion down: its in-memory lock table is gone anyway
        if companion_granted is False:
            return False
        granted = self.local.lock(block_no, locker)
        if not granted and companion_granted:
            try:
                self._call_companion(
                    "companion_unlock", block_no=block_no, locker=locker
                )
            except (ServerUnreachable, ServerCrashed):
                pass
        return granted

    def cmd_unlock(self, block_no: int, locker: int) -> None:
        """Release a lock on both halves, companion-first."""
        self._check_serving()
        try:
            self._call_companion(
                "companion_unlock", block_no=block_no, locker=locker
            )
        except (ServerUnreachable, ServerCrashed):
            pass
        return self.local.unlock(block_no, locker)

    def cmd_recover(self, account: int) -> list[int]:
        """The §4 recovery operation — minus the numbers either half
        still holds in its pool: a collector that snapshots this list must
        never see a number that can yet be handed out."""
        self._check_serving()
        pooled = set(self._pool)
        try:
            pooled.update(self._call_companion("companion_pooled"))
        except (ServerUnreachable, ServerCrashed):
            pass  # a companion that is down has no pool left
        return [b for b in self.local.recover(account) if b not in pooled]

    # -- companion command set -------------------------------------------------

    def cmd_companion_write(
        self, origin: str, account: int, block_no: int, data: bytes
    ) -> None:
        """The companion-first write arriving from the other half.

        Collision check: if *this* server has its own operation in flight
        on the same block, two clients hit the same block through different
        servers simultaneously — refuse, before any damage is done.
        """
        self._check_up()
        mine = self._pending.get(block_no)
        if mine is not None:
            raise CompanionConflict(
                f"{self.name}: companion write collides with local {mine.kind} "
                f"op on block {block_no}"
            )
        self.local.write_many(account, [(block_no, data)], adopt=True)
        self._note_dirty(block_no)

    def cmd_companion_reserve_many(self, account: int, blocks: list[int]) -> None:
        """Reserve an extent chosen by the other half (no data yet).

        Every number is checked before any is recorded: one this half has
        an operation in flight on, or already owns, refuses the whole
        extent before any damage is done."""
        self._check_up()
        for block_no in blocks:
            mine = self._pending.get(block_no)
            if mine is not None:
                raise CompanionConflict(
                    f"{self.name}: companion reserve collides with local "
                    f"{mine.kind} op on block {block_no}"
                )
            if self.local.owner_of(block_no) is not None:
                raise CompanionConflict(
                    f"{self.name}: companion reserve of block {block_no}, "
                    f"which is already allocated here"
                )
        self.local.reserve(account, blocks)
        for block_no in blocks:
            self._note_dirty(block_no)

    def cmd_companion_pooled(self) -> list[int]:
        """The numbers this half's pool still holds (for ``recover``)."""
        self._check_up()
        return list(self._pool)

    def cmd_companion_free(self, account: int, block_no: int) -> None:
        self._check_up()
        if block_no in self._pending:
            raise CompanionConflict(
                f"{self.name}: companion free collides on block {block_no}"
            )
        if self.local.owner_of(block_no) is not None:
            self.local.free(account, block_no)
        self._pool.pop(block_no, None)
        self._note_dirty(block_no)

    def cmd_companion_read(self, account: int, block_no: int) -> bytes:
        self._check_up()
        return self.local.read(account, block_no)

    def cmd_companion_lock(self, block_no: int, locker: int) -> bool:
        """The companion-first half of a replicated lock."""
        self._check_up()
        return self.local.lock(block_no, locker)

    def cmd_companion_unlock(self, block_no: int, locker: int) -> None:
        """The companion-first half of a replicated unlock."""
        self._check_up()
        self.local.unlock(block_no, locker)

    def cmd_companion_write_many(
        self, origin: str, account: int, writes: list[tuple[int, bytes]]
    ) -> None:
        """A whole flush batch arriving from the other half in one message.

        Collision checks run for *every* block before any write is applied
        — "before any damage is done" must hold for the batch as a whole.
        The order of ``writes`` is the order of the records: the origin
        puts a commit's swapped blocks last (pages before reference).
        """
        self._check_up()
        for block_no, _ in writes:
            mine = self._pending.get(block_no)
            if mine is not None:
                raise CompanionConflict(
                    f"{self.name}: companion batch collides with local "
                    f"{mine.kind} op on block {block_no}"
                )
        self.local.write_many(account, list(writes), adopt=True)
        for block_no, _ in writes:
            self._note_dirty(block_no)

    def cmd_fetch_intentions(self) -> list[_Intention]:
        """Hand the restarting companion the operations it missed.  The
        list stays here until the companion acknowledges having applied
        it — a crash mid-resync must not lose the missed writes."""
        self._check_up()
        return list(self._intentions)

    def cmd_ack_intentions(self, count: int) -> None:
        """The companion applied the first ``count`` intentions: drop them."""
        self._check_up()
        self._intentions = self._intentions[count:]
        if self._persist_intent_ack is not None and count:
            self._persist_intent_ack(count)

    # -- migration command set -------------------------------------------------
    #
    # These verbs serve the live-migration driver (repro.block.rebalance),
    # not ordinary clients, so like the companion set they check only
    # _crashed: a retired source must keep answering export/manifest/dirty
    # queries during the cutover fence, and a recovering half may still be
    # audited.  Only manifest and retired_epoch are read-only: export's
    # checked read can repair, and dirty_blocks' reset mutates the set.

    def cmd_track_dirty(self, on: bool) -> bool:
        """Arm (or disarm) dirty-block tracking for a migration stream."""
        self._check_up()
        self._dirty = set() if on else None
        return bool(on)

    def _check_migration_read(self) -> None:
        """Migration reads must come from an up-to-date disk: crashed and
        recovering halves refuse (their twin answers), but a *retired*
        half keeps serving — the fence reads it after cutting clients off."""
        self._check_up()
        if self._recovering:
            raise ServerCrashed(f"{self.name} is recovering; resync first")

    def cmd_dirty_blocks(self, reset: bool = False) -> list[int]:
        """Blocks mutated since tracking was armed (or last reset)."""
        self._check_migration_read()
        if self._dirty is None:
            return []
        blocks = sorted(self._dirty)
        if reset:
            self._dirty.clear()
        return blocks

    @command(read_only=True)
    def cmd_manifest(self) -> list[tuple[int, int]]:
        """Every allocated block with its owning account, for streaming
        (this half's pooled numbers left out: they enter a migration when
        they are handed out)."""
        self._check_migration_read()
        return sorted(
            (block_no, self.local.owner_of(block_no))
            for block_no in self.local.allocated_blocks()
            if block_no not in self._pool
        )

    def cmd_export(self, account: int, block_no: int) -> bytes | None:
        """Read a block for migration, through the corruption-repair path.
        ``None``: the block is allocated and nothing was written yet — a
        reservation (a deferred page of an update still open)."""
        self._check_migration_read()
        self.local._check_owner(block_no, account)
        if not self.local.disk.holds(block_no):
            return None
        return self._checked_read(account, block_no)

    def cmd_ingest(self, account: int, block_no: int, data: bytes | None) -> int:
        """Install a streamed block at an exact local number on a migration
        target, replicated companion-first like any write; ``data`` of
        ``None`` installs a reservation (owner, no data), so that the file
        server's later flush of that block lands.  Idempotent: a
        re-streamed block is overwritten; a block whose source owner changed
        between rounds — or that was freed and reserved again — is freed
        and re-allocated."""
        self._check_serving()
        owner = self.local.owner_of(block_no)
        if owner is not None and (
            owner != account or (data is None and self.local.disk.holds(block_no))
        ):
            op = self._new_op("free", owner, block_no)
            self._companion_step(op)
            self.finish_op(op)
            owner = None
        if data is None:
            if owner is None:
                self.finish_op(self.begin_reserve(account, [block_no]))
            return block_no
        kind = "write" if owner is not None else "alloc"
        op = self._new_op(kind, account, block_no, data)
        self._companion_step(op)
        return self.finish_op(op)

    def cmd_retire(self, epoch: int) -> None:
        """Wire form of :meth:`retire`, for an operator driving remotely."""
        self._check_up()
        self.retire(epoch)

    @command(read_only=True)
    def cmd_retired_epoch(self) -> int | None:
        self._check_up()
        return self._retired_epoch


class StablePair:
    """A companion pair: construction convenience plus a direct API.

    Builds two :class:`StableServer` halves over two disks, attaches both to
    the network on one shared service ``port`` (so a
    :class:`repro.sim.rpc.Transaction` fails over between them), and keeps
    references for tests and fault injection.
    """

    def __init__(
        self,
        network: Network,
        port: int,
        capacity: int = 4096,
        block_size: int = BLOCK_SIZE,
        name_a: str = "blockA",
        name_b: str = "blockB",
        write_once: bool = False,
        recorder=None,
        backend: str = "sim",
        data_dir: str | None = None,
    ) -> None:
        self.network = network
        self.port = port
        self.capacity = capacity
        self.backend = backend
        if recorder is None:
            recorder = getattr(network, "recorder", None)
        if backend == "disk":
            # File-backed halves, one directory per disk.  Re-building a
            # pair on an existing data_dir recovers both halves' blocks,
            # owner maps and intentions lists from their journals.
            from pathlib import Path

            from repro.block.fdisk import FDisk

            if data_dir is None:
                raise ValueError("backend='disk' needs a data_dir")
            base = Path(data_dir)
            self.disk_a = FDisk(
                base / name_a, capacity, block_size, network.clock,
                write_once, name=name_a, recorder=recorder,
            )
            self.disk_b = FDisk(
                base / name_b, capacity, block_size, network.clock,
                write_once, name=name_b, recorder=recorder,
            )
        elif backend == "sim":
            self.disk_a = SimDisk(
                capacity, block_size, network.clock, write_once,
                name=name_a, recorder=recorder,
            )
            self.disk_b = SimDisk(
                capacity, block_size, network.clock, write_once,
                name=name_b, recorder=recorder,
            )
        else:
            raise ValueError(f"unknown disk backend {backend!r}")
        self.a = StableServer(name_a, name_b, self.disk_a, network)
        self.b = StableServer(name_b, name_a, self.disk_b, network)
        self.endpoint_a = RpcEndpoint(network, name_a, port, self.a)
        self.endpoint_b = RpcEndpoint(network, name_b, port, self.b)

    def halves(self) -> tuple[StableServer, StableServer]:
        return self.a, self.b

    def consistent(self) -> bool:
        """Whether both disks agree on every allocated block (audit)."""
        blocks = set(self.a.local.allocated_blocks()) | set(
            self.b.local.allocated_blocks()
        )
        for block_no in blocks:
            da = self.disk_a.peek(block_no)
            db = self.disk_b.peek(block_no)
            if da is not None and db is not None and da != db:
                return False
        return True

    def close(self) -> None:
        """Release both disks (a file-backed disk syncs what is unsynced
        and closes its segment descriptors)."""
        self.disk_a.close()
        self.disk_b.close()

