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

Every write takes one path: a *batch* — pages, conditional swaps riding
behind them, and for ``allocate_write`` a number this half chose — sent
to the companion in one ``companion_write_many`` exchange and then
applied locally in one disk transaction.  ``write``, ``allocate_write``,
``test_and_set``, ``write_many`` and migration's ``ingest`` are all that
batch (:meth:`StableServer.begin_batch`), so a commit's M pages and its
swap cost one round trip and one sync per half.  Reservations and frees
take the same companion-first shape with their own exchange.

Collision detection uses *pending-operation markers*: a server marks a
block while it has an operation in flight on it; a companion step arriving
at a server that has its own pending operation on the same block raises
:class:`CompanionConflict`.  Because every operation visits the other
server before finishing locally, any two concurrent operations on the same
block through different servers are guaranteed to meet at one origin's
marker, whatever the interleaving (tests enumerate these interleavings via
the explicit ``begin_*`` / ``finish_op`` steps).

A restarted half refuses every companion command but the resync's own
until its resync has run: the origin records an intention instead, so the
replayed list is complete and in order, and no repair reads a stale copy.

A bare ``allocate`` is answered from a *pool*: a half reserves block
numbers :data:`EXTENT` at a time — one companion exchange and one sync
per half for the whole extent — and hands them out from memory (see
:meth:`StableServer.cmd_allocate` for what that pool may and may not do).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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
from repro.sim.rpc import RpcEndpoint, Transaction, command


# Histogram buckets for flush-batch sizes (pages per write_many).
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

# Block numbers are reserved this many at a time (fewer when fewer are
# free): one companion exchange and one sync per half buy EXTENT allocates.
EXTENT = 32

# One conditional swap riding a ``write_many``: (block, offset, expected, new).
Swap = tuple[int, int, bytes, bytes]


@dataclass
class _PendingOp:
    """An operation in flight at its origin server: a pending marker holds
    each of its blocks from its begin step to its finish step."""

    kind: str  # "write" (a batch), "reserve" or "free"
    account: int
    blocks: list[int] = field(default_factory=list)  # every marked number
    # Of a "write": the members in record order (a swapped block behind
    # every page), one result per swap, and whether numbers nobody owns yet
    # are allocated to ``account`` by the write (allocate_write, ingest).
    writes: list[tuple[int, bytes]] = field(default_factory=list)
    results: list[TasResult] = field(default_factory=list)
    adopt: bool = False


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
    free / test_and_set / write_many / allocate / recover) with
    companion-first replication underneath, plus the companion-facing
    commands.
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
        # One message exchange with the companion, through the one
        # transaction loop: a dropped message is re-sent, a companion that
        # is down or recovering raises.
        self._call_companion = partial(
            Transaction(network, name).call_nodes, (companion_name,)
        )
        self.local = BlockServer(name + ".bs", disk)
        self.recorder = disk.recorder
        self._pending: dict[int, _PendingOp] = {}
        self._alloc_cursor = 1  # rotating allocation cursor (see _choose_block)
        # Reserved block numbers not handed out yet, block -> owning account,
        # oldest first (see cmd_allocate).  Memory only: a restart forgets it.
        self._pool: dict[int, int] = {}
        # A durable disk (block.fdisk.FDisk) journals the intentions list:
        # those recorded for a crashed companion survive *this* server's
        # own process death too.
        self._intentions = [
            _Intention(kind, account, block_no, data)
            for kind, account, block_no, data in disk.recovered_intentions()
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
        """Restart after a crash.  Until :meth:`resync` has run the server
        answers nothing but its companion's resync ("restores its disk
        before accepting any requests")."""
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
        are idempotent).  The companion keeps recording intentions while
        this half recovers, so the loop ends only on an empty fetch."""
        applied = 0
        while intentions := self._call_companion("fetch_intentions"):
            for intent in intentions:
                owner = self.local.owner_of(intent.block_no)
                if intent.kind == "write":
                    self.local.write_many(
                        intent.account, [(intent.block_no, intent.data)], adopt=True
                    )
                elif intent.kind == "reserve" and owner is None:
                    self.local.reserve(intent.account, [intent.block_no])
                elif intent.kind == "free" and owner is not None:
                    self.local.free(intent.account, intent.block_no)
            self._call_companion("ack_intentions", count=len(intentions))
            applied += len(intentions)
        self._recovering = False
        if applied:
            self.recorder.count("stable.resync_applied", applied)
        return applied

    @property
    def available(self) -> bool:
        return not self._crashed and not self._recovering

    def _check_up(self) -> None:
        if self._crashed:
            raise ServerCrashed(f"{self.name} is crashed")

    def _check_current(self) -> None:
        """Up, and resynced: what its disk holds is the pair's latest.  A
        recovering half takes no companion write (its resync would replay
        an older intention over it) and serves no repair or migration
        read (its copy may be stale)."""
        self._check_up()
        if self._recovering:
            raise ServerCrashed(f"{self.name} is recovering; resync first")

    def _check_serving(self) -> None:
        self._check_current()
        if self._retired_epoch is not None:
            raise PlacementStale(
                f"{self.name} was cut over at placement epoch "
                f"{self._retired_epoch}; refetch the placement map"
            )

    def _record_intentions(self, intents: list[_Intention]) -> None:
        """Append to the intentions list — durably on a journalled disk,
        with one sync for the whole batch."""
        self._intentions.extend(intents)
        disk = self.local.disk
        for intent in intents:
            disk.add_intention(
                intent.kind, intent.account, intent.block_no, intent.data,
                sync=False,
            )
        disk.sync_journal()

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

    def _companion_step(self, op: _PendingOp) -> None:
        """Send the operation to the companion (the companion-first write).

        A companion that is down or recovering gets an intention instead;
        the operation then completes locally only, as the paper prescribes.
        Any refusal — :class:`CompanionConflict` above all — drops the
        pending markers and propagates to the client, which retries.
        """
        try:
            if op.kind == "write":
                self._call_companion(
                    "companion_write_many",
                    origin=self.name,
                    account=op.account,
                    writes=op.writes,
                )
            elif op.kind == "reserve":
                self._call_companion(
                    "companion_reserve_many", account=op.account, blocks=op.blocks
                )
            else:
                self._call_companion(
                    "companion_free", account=op.account, block_no=op.blocks[0]
                )
        except (ServerUnreachable, ServerCrashed):
            if op.kind == "write":
                intents = [
                    _Intention("write", op.account, b, data) for b, data in op.writes
                ]
            else:
                intents = [_Intention(op.kind, op.account, b) for b in op.blocks]
            self._record_intentions(intents)
            if self.recorder.enabled:
                self.recorder.event(
                    "stable.intention",
                    origin=self.name,
                    kind=op.kind,
                    blocks=len(intents),
                )
        except BaseException:
            self._drop_markers(op)
            raise

    # -- stepwise operation API (tests interleave begin/finish) -------------

    def begin_batch(
        self,
        account: int,
        writes: list[tuple[int, bytes]],
        swaps: list[Swap] = (),
        adopt: bool = False,
    ) -> _PendingOp:
        """The first step of every replicated write: :meth:`_new_batch`,
        then the companion step."""
        op = self._new_batch(account, writes, swaps, adopt)
        if op.writes:
            self._companion_step(op)
        return op

    def _new_batch(
        self,
        account: int,
        writes: list[tuple[int, bytes]],
        swaps: list[Swap],
        adopt: bool,
    ) -> _PendingOp:
        """Check, compare and mark every member of a batch pending.

        Each swap ``(block, offset, expected, new)`` is compared against
        the checked local copy; on a match the swapped block joins the
        batch *behind* every page.  With ``adopt`` a member nobody owns yet
        is allocated to ``account`` by the write (on both halves)."""
        self._check_serving()
        for block_no, _ in writes:
            if not adopt or self.local.owner_of(block_no) is not None:
                self.local._check_owner(block_no, account)
        op = _PendingOp("write", account, writes=list(writes), adopt=adopt)
        for block_no, offset, expected, new in swaps:
            self.local._check_owner(block_no, account)
            # The compare must run against verified data: a corrupted local
            # block would compare garbage and falsely fail (or succeed), so
            # the read goes through the same checked/repair path as cmd_read.
            result, swapped = compare_and_swap(
                self._checked_read(account, block_no), offset, expected, new
            )
            op.results.append(result)
            if swapped is not None:
                op.writes.append((block_no, swapped))  # behind every page
            if self.recorder.enabled:
                self.recorder.event(
                    "block.tas", server=self.name, block=block_no,
                    success=result.success,
                )
        if not op.writes:
            return op
        self._mark(op, [block_no for block_no, _ in op.writes])
        if self.recorder.enabled:
            self.recorder.event(
                "stable.write_many",
                origin=self.name,
                pages=len(writes),
                swaps=len(op.writes) - len(writes),
            )
            self.recorder.count("stable.write_many_blocks", len(op.writes))
            self.recorder.observe(
                "stable.batch_pages", len(op.writes), bounds=_BATCH_BUCKETS
            )
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

    def begin_free(self, account: int, block_no: int) -> _PendingOp:
        self._check_serving()
        self.local._check_owner(block_no, account)
        op = _PendingOp("free", account)
        self._mark(op, [block_no])
        self._companion_step(op)
        return op

    def finish_op(self, op: _PendingOp) -> _PendingOp:
        """Complete the local half of an operation and clear its markers;
        returns ``op``.  The local apply is one disk transaction: a single
        journal sync on durable media."""
        try:
            self._check_serving()
            if op.kind == "write":
                if op.writes:
                    self.local.write_many(op.account, op.writes, adopt=op.adopt)
            elif op.kind == "reserve":
                self.local.reserve(op.account, op.blocks)
            else:
                self.local.free(op.account, op.blocks[0])
                self._pool.pop(op.blocks[0], None)
        finally:
            self._drop_markers(op)
        for block_no in op.blocks:
            self._note_dirty(block_no)
        return op

    def _drop_markers(self, op: _PendingOp) -> None:
        for block_no in op.blocks:
            if self._pending.get(block_no) is op:
                del self._pending[block_no]

    def _mark(self, op: _PendingOp, numbers) -> None:
        """Mark each number pending under ``op``, in order.  A number
        already pending here — two clients of the *same* server, which real
        Amoeba serialises and the simulation lets overlap — refuses the
        whole operation as a conflict the client retries."""
        try:
            for block_no in numbers:
                if block_no in self._pending:
                    raise CompanionConflict(
                        f"{self.name}: block {block_no} already has an "
                        f"operation in flight"
                    )
                self._pending[block_no] = op
                op.blocks.append(block_no)
        except BaseException:
            self._drop_markers(op)
            raise

    def _new_extent(
        self, account: int, numbers: list[int] | None = None
    ) -> _PendingOp:
        """Mark a whole extent pending under one "reserve" operation:
        ``numbers`` as given, or up to :data:`EXTENT` chosen here."""
        op = _PendingOp("reserve", account)
        self._mark(op, numbers if numbers is not None else self._fresh_numbers())
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
        """Choose a number and write it, one batch: both halves adopt it."""
        self._check_serving()
        block_no = self._choose_block()
        self.finish_op(self.begin_batch(account, [(block_no, data)], adopt=True))
        return block_no

    def cmd_allocate(self, account: int, count: int = 1) -> list[int]:
        """Hand out ``count`` reserved block numbers, from memory.

        The pool holds numbers already owned by ``account`` on both disks
        (:meth:`begin_reserve`), so a number handed out is as durable as
        one reserved on its own; only a short pool costs an exchange.
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
        handed = [b for b, owner in self._pool.items() if owner == account]
        handed = handed[: max(count, 0)]
        while len(handed) < count:
            op = self.finish_op(self.begin_reserve(account))
            self._pool.update(dict.fromkeys(op.blocks, account))
            handed += op.blocks[: count - len(handed)]
        for block_no in handed:
            del self._pool[block_no]
            # From here the number is a migration's to carry (the manifest
            # left it out while it was pooled).
            self._note_dirty(block_no)
        return handed

    def cmd_write(self, account: int, block_no: int, data: bytes) -> None:
        self.finish_op(self.begin_batch(account, [(block_no, data)]))

    def _checked_read(self, account: int, block_no: int) -> bytes:
        """Read a block through the integrity check; on corruption, fetch
        the companion's copy and repair the local one in place.

        Every server-side read of client data goes through here — serving
        (or comparing against) a corrupted local block would propagate
        garbage the companion still holds intact.  A companion that is
        down or recovering has no copy to offer: the read fails.
        """
        try:
            return self.local.read(account, block_no)
        except CorruptBlock:
            data = self._call_companion(
                "companion_read", account=account, block_no=block_no
            )
            try:
                self.local.write_many(account, [(block_no, data)])  # repair
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
        self.finish_op(self.begin_free(account, block_no))

    def cmd_test_and_set(
        self, account: int, block_no: int, offset: int, expected: bytes, new: bytes
    ) -> TasResult:
        """Atomic compare-and-swap, replicated to both disks: a
        :meth:`cmd_write_many` of no pages and one swap."""
        op = self.begin_batch(account, [], [(block_no, offset, expected, new)])
        return self.finish_op(op).results[0]

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
        operations on any member collide.

        A swap that matches is propagated companion-first like any write,
        so concurrent test-and-sets through different halves collide and
        one retries — giving the mutual exclusion §5.2's commit depends
        on.  A failed compare reports the bytes found and stops nothing
        else in the batch.

        **Pages before reference.**  §5.2: "First it ascertains that all
        of V.b's pages are safely on disk".  A commit's swap sets a commit
        reference to a version whose pages are this batch's writes, so on
        neither half may the swap become durable before them: within the
        one append the swapped blocks come last, and a torn append keeps a
        prefix.
        """
        return self.finish_op(self.begin_batch(account, writes, swaps)).results

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
    #
    # A recovering half refuses all of these with ServerCrashed (see
    # _check_current): the origin then records an intention, which the
    # resync replays in order, or a repairing read fails instead of
    # returning a stale copy.  Only the resync's own fetch_intentions and
    # ack_intentions reach a half that is up but has not resynced.

    def _check_collision(self, what: str, blocks) -> None:
        """Refuse, before any damage is done, a companion operation on a
        block this half has its own operation in flight on: two clients
        hit the same block through different servers simultaneously."""
        for block_no in blocks:
            mine = self._pending.get(block_no)
            if mine is not None:
                raise CompanionConflict(
                    f"{self.name}: companion {what} collides with local "
                    f"{mine.kind} op on block {block_no}"
                )

    def cmd_companion_write_many(
        self, origin: str, account: int, writes: list[tuple[int, bytes]]
    ) -> None:
        """A replicated write arriving from the other half in one message.

        Collision checks run for *every* block before any write is applied
        — "before any damage is done" must hold for the batch as a whole.
        The order of ``writes`` is the order of the records: the origin
        puts a commit's swapped blocks last (pages before reference).  A
        number nobody owns here yet was chosen by the origin: it is
        allocated to ``account`` with the write.
        """
        self._check_current()
        self._check_collision("batch", [block_no for block_no, _ in writes])
        self.local.write_many(account, list(writes), adopt=True)
        for block_no, _ in writes:
            self._note_dirty(block_no)

    def cmd_companion_reserve_many(self, account: int, blocks: list[int]) -> None:
        """Reserve an extent chosen by the other half (no data yet).

        Every number is checked before any is recorded: one this half has
        an operation in flight on, or already owns, refuses the whole
        extent before any damage is done."""
        self._check_current()
        self._check_collision("reserve", blocks)
        for block_no in blocks:
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
        self._check_current()
        return list(self._pool)

    def cmd_companion_free(self, account: int, block_no: int) -> None:
        self._check_current()
        self._check_collision("free", [block_no])
        if self.local.owner_of(block_no) is not None:
            self.local.free(account, block_no)
        self._pool.pop(block_no, None)
        self._note_dirty(block_no)

    def cmd_companion_read(self, account: int, block_no: int) -> bytes:
        self._check_current()
        return self.local.read(account, block_no)

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
        if count:
            self.local.disk.ack_intentions(count)

    # -- migration command set -------------------------------------------------
    #
    # These verbs serve the live-migration driver (repro.block.rebalance),
    # not ordinary clients, so like the companion set they skip the
    # retirement check: a retired source must keep answering
    # export/manifest/dirty queries during the cutover fence.  Reads come
    # from an up-to-date disk only (_check_current): crashed and
    # recovering halves refuse, and their twin answers.  Only manifest is
    # read-only: export's checked read can repair, and dirty_blocks' reset
    # mutates the set.

    def cmd_track_dirty(self, on: bool) -> bool:
        """Arm (or disarm) dirty-block tracking for a migration stream."""
        self._check_up()
        self._dirty = set() if on else None
        return bool(on)

    def cmd_dirty_blocks(self, reset: bool = False) -> list[int]:
        """Blocks mutated since tracking was armed (or last reset)."""
        self._check_current()
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
        self._check_current()
        return sorted(
            (block_no, self.local.owner_of(block_no))
            for block_no in self.local.allocated_blocks()
            if block_no not in self._pool
        )

    def cmd_export(self, account: int, block_no: int) -> bytes | None:
        """Read a block for migration, through the corruption-repair path.
        ``None``: the block is allocated and nothing was written yet — a
        reservation (a deferred page of an update still open)."""
        self._check_current()
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
            self.finish_op(self.begin_free(owner, block_no))
            owner = None
        if data is not None:
            self.finish_op(self.begin_batch(account, [(block_no, data)], adopt=True))
        elif owner is None:
            self.finish_op(self.begin_reserve(account, [block_no]))
        return block_no


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

