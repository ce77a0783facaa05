"""Block storage: companion pairs behind a placement map, one client.

"The file service can be distributed over multiple block-server pairs" —
the paper's scaling story.  Every deployment is built this way; a single
companion pair is simply the one-shard case:

* :class:`PlacementMap` — the epoch-versioned placement map.  Each live
  shard owns a disjoint, contiguous range of the global block-number
  space, so routing an *existing* block to its shard is a lookup on the
  number itself: no directory traffic, and any holder of the same map
  derives the same answer.  The map is immutable; elasticity (splitting
  a range, migrating a range to a fresh pair) produces a *new* map with
  ``epoch + 1``.  A client routing with a stale map gets a typed
  :class:`~repro.errors.PlacementStale` and refetches.  Shard 0's range
  starts at block 1, so on one shard a global block number is the pair's
  own.

* :class:`ShardedBlockService` — the server side: N :class:`~repro.block.
  stable.StablePair` companion pairs, one service port per shard, each
  pair internally replicated and recoverable exactly as a single pair is.
  ``split`` and ``migrate`` reshape the deployment while it serves (see
  :mod:`repro.block.rebalance` for the live-migration driver).

* :class:`ShardedBlockClient` — the block client every file server,
  baseline and hybrid store talks through: the block-service verbs (plus
  ``write_many``), routing placed blocks by the map and spreading *new*
  allocations round-robin across shards.  Within a shard the one
  transaction loop (:class:`repro.sim.rpc.Transaction`) fails over
  between the pair's halves, a crashed or still-recovering half included.
  A whole pair that stops answering is, for allocations only, skipped in
  favour of the next shard — an allocation has no placement constraint
  until it happens.  On :class:`~repro.errors.PlacementStale` (or a
  whole-pair outage that turns out to be a cutover) the client refetches
  the map and re-routes, invisibly to its caller.

Batching: ``write_many`` groups a commit flush by shard and ships each
group as one transaction, so an M-page commit costs O(shards) round trips
instead of O(M); the stable layer replicates each batch companion-first
as a unit (see ``StableServer.cmd_write_many``).  The commit's
test-and-set rides the batch of the shard that holds the version page,
sent after every other shard's pages are durable.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import (
    PlacementStale,
    ReproError,
    ServerCrashed,
    ServerUnreachable,
    UnknownShard,
)
from repro.block.server import BLOCK_SIZE, TasResult
from repro.block.stable import StablePair, StableServer, Swap
from repro.obs import NULL_RECORDER
from repro.sim.network import Network
from repro.sim.rpc import Transaction

# Each shard owns this many consecutive block numbers by default.  Global
# block numbers are ``shard * stride + local`` with local in [1, stride],
# so any pair capacity up to the stride fits without overlap.
DEFAULT_SHARD_STRIDE = 1 << 22


@dataclass(frozen=True)
class ShardRange:
    """One live shard: a contiguous slice ``lo..hi`` of the global block
    namespace, served on ``port`` by one companion pair."""

    lo: int
    hi: int
    port: int

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise ValueError(f"range lower bound {self.lo} must be >= 1")
        if self.hi < self.lo:
            raise ValueError(f"empty range {self.lo}..{self.hi}")
        if self.port < 0:
            raise ValueError("shard port must be non-negative")

    def __contains__(self, block: int) -> bool:
        return self.lo <= block <= self.hi

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def local_of(self, block: int) -> int:
        """The shard-local block number behind a global one in this range."""
        if block not in self:
            raise UnknownShard(
                f"block {block} outside range {self.lo}..{self.hi}"
            )
        return block - self.lo + 1

    def global_of(self, local: int) -> int:
        """Splice a shard-local number back into the global namespace."""
        if not 1 <= local <= self.size:
            raise ValueError(f"local block {local} outside 1..{self.size}")
        return self.lo + local - 1


@dataclass(frozen=True)
class PlacementMap:
    """The epoch-versioned placement of the global block namespace.

    Immutable: every reshape (:meth:`split_at`, :meth:`moved`) returns a
    new map with ``epoch + 1``.  Validation enforces the two placement
    invariants the property suite re-checks from the outside — ranges are
    sorted and pairwise disjoint (no block has two owners) and ports are
    unique (no pair serves two ranges).
    """

    epoch: int
    ranges: tuple[ShardRange, ...]

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError("placement epochs start at 1")
        ranges = tuple(self.ranges)
        object.__setattr__(self, "ranges", ranges)
        if not ranges:
            raise ValueError("a placement map needs at least one range")
        prev: ShardRange | None = None
        for r in ranges:
            if prev is not None and r.lo <= prev.hi:
                raise ValueError(
                    f"ranges overlap or are unsorted: "
                    f"{prev.lo}..{prev.hi} then {r.lo}..{r.hi}"
                )
            prev = r
        ports = [r.port for r in ranges]
        if len(set(ports)) != len(ports):
            raise ValueError("placement ports must be unique")
        # Lower bounds for the bisect in index_of, built once per map.
        object.__setattr__(self, "_los", tuple(r.lo for r in ranges))

    @classmethod
    def initial(
        cls, ports: list[int], stride: int = DEFAULT_SHARD_STRIDE
    ) -> "PlacementMap":
        """The epoch-1 map: one stride-sized range per port, in order."""
        return cls(
            1,
            tuple(
                ShardRange(i * stride + 1, (i + 1) * stride, port)
                for i, port in enumerate(ports)
            ),
        )

    @property
    def ports(self) -> list[int]:
        return [r.port for r in self.ranges]

    def index_of(self, block: int) -> int:
        """The index of the range owning a global block number."""
        i = bisect_right(self._los, block) - 1
        if i < 0 or block > self.ranges[i].hi:
            raise UnknownShard(
                f"block {block} maps to no range of placement epoch {self.epoch}"
            )
        return i

    def range_of(self, block: int) -> ShardRange:
        return self.ranges[self.index_of(block)]

    def port_of(self, block: int) -> int:
        return self.range_of(block).port

    def local_of(self, block: int) -> int:
        return self.range_of(block).local_of(block)

    def split_at(self, index: int, cut: int, new_port: int) -> "PlacementMap":
        """Split ``ranges[index]`` at ``cut``: the old port keeps
        ``lo..cut-1``, the new port takes ``cut..hi``.  Epoch + 1."""
        r = self.ranges[index]
        if not r.lo < cut <= r.hi:
            raise ValueError(
                f"cut {cut} outside splittable interior {r.lo + 1}..{r.hi}"
            )
        head = ShardRange(r.lo, cut - 1, r.port)
        tail = ShardRange(cut, r.hi, new_port)
        ranges = self.ranges[:index] + (head, tail) + self.ranges[index + 1 :]
        return PlacementMap(self.epoch + 1, ranges)

    def moved(self, index: int, new_port: int) -> "PlacementMap":
        """The same range served by a different pair (migration cutover).
        Epoch + 1."""
        r = self.ranges[index]
        moved = ShardRange(r.lo, r.hi, new_port)
        ranges = self.ranges[:index] + (moved,) + self.ranges[index + 1 :]
        return PlacementMap(self.epoch + 1, ranges)

    def describe(self) -> str:
        """One human line per range (CLI ``repro cluster status``)."""
        lines = [f"placement epoch {self.epoch}"]
        for i, r in enumerate(self.ranges):
            lines.append(
                f"  shard {i}: blocks {r.lo}..{r.hi} -> port {r.port:#014x}"
            )
        return "\n".join(lines)


class ShardedBlockService:
    """The server side of block storage: one stable pair per shard.

    Pairs are named ``shard<i>A`` / ``shard<i>B`` and listen on one port
    per shard, so the transaction layer's half-failover works per shard
    unchanged.  ``self.pairs[i]`` always serves ``self.placement.ranges[i]``;
    a migration replaces the entry (the retired pair moves to
    ``self.retired_pairs``), a split inserts one.  Every reshape bumps the
    placement epoch and notifies ``self.publishers`` (the discovery
    service subscribes there).
    """

    def __init__(
        self,
        network: Network,
        ports: list[int],
        capacity: int = 4096,
        block_size: int = BLOCK_SIZE,
        stride: int = DEFAULT_SHARD_STRIDE,
        write_once: bool = False,
        recorder=None,
        data_dir: str | None = None,
    ) -> None:
        if capacity > stride:
            raise ValueError(
                f"pair capacity {capacity} exceeds shard stride {stride}; "
                f"shards would overlap in the global namespace"
            )
        self.network = network
        self.capacity = capacity
        self.block_size = block_size
        self.write_once = write_once
        self.data_dir = data_dir
        if recorder is None:
            recorder = getattr(network, "recorder", None)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._pair_recorder = recorder
        self.placement = PlacementMap.initial(list(ports), stride)
        self.pairs: list[StablePair] = [
            self._spawn_pair(i, port, capacity)
            for i, port in enumerate(self.placement.ports)
        ]
        self._pair_seq = len(self.pairs)
        self.retired_pairs: list[StablePair] = []
        # Callables (new_map, previous_epoch) -> None, notified after every
        # epoch bump.  Publish failures must not undo a committed cutover,
        # so they are counted and swallowed (see _publish).
        self.publishers: list[Callable[[PlacementMap, int], None]] = []

    def _spawn_pair(self, seq: int, port: int, capacity: int) -> StablePair:
        # One subdirectory per pair; the seq number keeps migration targets
        # from colliding with the pair they replace.
        data_dir = (
            None if self.data_dir is None else os.path.join(self.data_dir, f"pair{seq}")
        )
        return StablePair(
            self.network,
            port,
            capacity=capacity,
            block_size=self.block_size,
            name_a=f"shard{seq}A",
            name_b=f"shard{seq}B",
            write_once=self.write_once,
            recorder=self._pair_recorder,
            data_dir=data_dir,
        )

    @property
    def ports(self) -> list[int]:
        """Live service ports, aligned with ``placement.ranges``."""
        return self.placement.ports

    def pair(self, shard: int) -> StablePair:
        return self.pairs[shard]

    def halves(self, shard: int) -> tuple[StableServer, StableServer]:
        return self.pairs[shard].halves()

    def client(
        self,
        client_node: str,
        account: int,
        recorder=None,
        history=None,
    ) -> "ShardedBlockClient":
        """A shard-routing client bound to one network node.

        The client starts on the current placement and refreshes from
        this service on staleness — the in-process mirror of the
        discovery fetch a remote client would do.
        """
        return ShardedBlockClient(
            self.network,
            client_node,
            self.placement.ports,
            account,
            recorder=recorder,
            placement=self.placement,
            fetch=lambda: self.placement,
            history=history,
        )

    def consistent(self) -> bool:
        """Whether every shard's two disks agree (audit) — including
        retired pairs, which must stay internally consistent until they
        are decommissioned."""
        return all(
            pair.consistent() for pair in [*self.pairs, *self.retired_pairs]
        )

    def allocation_counts(self) -> list[int]:
        """Blocks allocated per live shard (balance audits and reports)."""
        return [
            len(list(pair.a.local.allocated_blocks())) for pair in self.pairs
        ]

    # -- elasticity ----------------------------------------------------------

    def _publish(self, new_map: PlacementMap) -> None:
        previous = self.placement
        self.placement = new_map
        if self.recorder.enabled:
            self.recorder.gauge("placement.epoch", new_map.epoch)
        for publish in self.publishers:
            try:
                publish(new_map, previous.epoch)
            except ReproError:
                # The cutover is already committed locally; a down or
                # conflicting registry is repaired by the next publish.
                if self.recorder.enabled:
                    self.recorder.count("rebalance.publish_failures")

    def split(self, index: int, new_port: int) -> PlacementMap:
        """Split ``placement.ranges[index]`` at its pair's capacity
        boundary: a fresh pair takes the (necessarily unallocated) tail
        of the range.  One epoch bump; no data moves.

        The source pair can only ever allocate locals ``1..capacity``,
        i.e. globals ``lo..lo+capacity-1`` — so cutting at
        ``lo + capacity`` is always safe: every block the source has
        ever allocated stays on it.
        """
        r = self.placement.ranges[index]
        source = self.pairs[index]
        cut = r.lo + source.capacity
        if cut > r.hi:
            raise ValueError(
                f"range {r.lo}..{r.hi} has no unallocatable tail beyond "
                f"the pair capacity {source.capacity}; nothing to split off"
            )
        new_capacity = min(self.capacity, r.hi - cut + 1)
        new_pair = self._spawn_pair(self._pair_seq, new_port, new_capacity)
        self._pair_seq += 1
        new_map = self.placement.split_at(index, cut, new_port)
        self.pairs.insert(index + 1, new_pair)
        if self.recorder.enabled:
            self.recorder.count("rebalance.splits")
        self._publish(new_map)
        return new_map

    def migrate(self, index: int, target_port: int, **kwargs):
        """Run a live migration of ``placement.ranges[index]`` to a fresh
        pair on ``target_port``, synchronously to completion.  Returns the
        :class:`~repro.block.rebalance.MigrationReport`.  Cooperative
        callers (simulated tasks, benchmarks) drive
        :func:`~repro.block.rebalance.migrate_steps` directly instead.
        """
        from repro.block.rebalance import migrate_steps

        gen = migrate_steps(self, index, target_port, **kwargs)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value


class ShardedBlockClient:
    """The client side of block storage, by the placement map.

    Every file server reaches stable storage through this class, so every
    disk access is a counted network transaction; block numbers in and
    out are global.  Allocations per shard are counted on the recorder
    under ``shard.s<i>.allocs`` so deployments can watch their balance.

    Routing follows ``self.placement``.  When a call lands on a retired
    pair the shard answers :class:`~repro.errors.PlacementStale`; the
    client refetches the map (``fetch``), accepts it only if the epoch
    advanced, and re-routes — callers never see the reshape.  A whole-
    pair outage gets the same refresh chance: the pair may have been cut
    over and gone.
    """

    def __init__(
        self,
        network: Network,
        client_node: str,
        ports: list[int],
        account: int,
        stride: int = DEFAULT_SHARD_STRIDE,
        recorder=None,
        placement: PlacementMap | None = None,
        fetch: Optional[Callable[[], Optional[PlacementMap]]] = None,
        history=None,
    ) -> None:
        self.network = network
        self.node = client_node
        self.txn = Transaction(network, client_node)
        self.account = account
        if placement is None:
            placement = PlacementMap.initial(list(ports), stride)
        self.placement = placement
        if recorder is None:
            recorder = getattr(network, "recorder", NULL_RECORDER)
        self.recorder = recorder
        self._fetch = fetch
        self._history = history
        self._next_shard = 0
        # How many placement refreshes one operation will chase before
        # surfacing PlacementStale; each refresh must advance the epoch,
        # so the loop is strictly bounded.
        self.stale_attempts = 4

    # -- placement refresh ---------------------------------------------------

    def _refresh(self) -> bool:
        """Refetch the placement map; adopt it only if the epoch advanced."""
        if self._fetch is None:
            return False
        fresh = self._fetch()
        if fresh is None or fresh.epoch <= self.placement.epoch:
            return False
        self.placement = fresh
        if self.recorder.enabled:
            self.recorder.count("rebalance.stale_retries")
        return True

    def _note_serve(self, r: ShardRange, command: str) -> None:
        """Record which pair served us, under which epoch belief — the
        history checker replays these against cutover events to enforce
        the stale-placement invariant."""
        self._history.record(
            "shard_serve",
            actor=self.node,
            path=command,
            base=r.port,
            version=self.placement.epoch,
            tick=self.network.clock.now,
        )

    def _routed(self, command: str, block_no: int, params: dict):
        """Route a placed-block verb by the current map: one transaction
        unless the pair is out or retired (:meth:`_rerouted`)."""
        placement = self.placement
        r = placement.ranges[placement.index_of(block_no)]
        try:
            result = self.txn.call(
                r.port, command, block_no=block_no - r.lo + 1, **params
            )
        except (PlacementStale, ServerUnreachable, ServerCrashed) as exc:
            return self._rerouted(command, block_no, params, exc)
        if self._history is not None:
            self._note_serve(r, command)
        return result

    def _rerouted(self, command, block_no, params, failure):
        """A routed verb whose transaction failed: if the map moved under
        us (the pair is retired, or cut over and gone), re-route, chasing
        up to ``stale_attempts`` placement epochs; otherwise the caller
        hears about it."""
        refreshes = self.stale_attempts
        while refreshes and self._refresh():
            refreshes -= 1
            r = self.placement.range_of(block_no)
            try:
                result = self.txn.call(
                    r.port, command, block_no=block_no - r.lo + 1, **params
                )
            except (PlacementStale, ServerUnreachable, ServerCrashed) as exc:
                failure = exc
                continue
            if self._history is not None:
                self._note_serve(r, command)
            return result
        raise failure

    # -- allocation: round-robin placement with shard failover ---------------

    def _allocate_on_some_shard(self, command: str, **params) -> tuple[ShardRange, Any]:
        """Run an allocation verb on the next shard in round-robin order,
        skipping shards whose pair is entirely unreachable — a new block
        has no placement constraint, so an allocation never needs to wait
        for a down shard.  If every shard refuses and the map has moved,
        refresh and rescan.  Returns the shard's range and its answer."""
        refreshes = self.stale_attempts
        while True:
            ranges = self.placement.ranges
            last: Exception | None = None
            for offset in range(len(ranges)):
                idx = (self._next_shard + offset) % len(ranges)
                r = ranges[idx]
                try:
                    local = self.txn.call(r.port, command, **params)
                except (ServerUnreachable, ServerCrashed, PlacementStale) as exc:
                    last = exc
                    if self.recorder.enabled:
                        self.recorder.event("shard.alloc_failover", shard=idx)
                    continue
                self._next_shard = (idx + 1) % len(ranges)
                if self.recorder.enabled:
                    self.recorder.count(f"shard.s{idx}.allocs")
                if self._history is not None:
                    self._note_serve(r, command)
                return r, local
            if refreshes and self._refresh():
                refreshes -= 1
                continue
            assert last is not None
            raise last

    def allocate_write(self, data: bytes) -> int:
        r, local = self._allocate_on_some_shard(
            "allocate_write", account=self.account, data=data
        )
        return r.global_of(local)

    def allocate(self) -> int:
        """Reserve a block on both disks of some shard, data to follow."""
        return self.allocate_many(1)[0]

    def allocate_many(self, count: int) -> list[int]:
        """Reserve ``count`` blocks on one shard in one exchange."""
        r, local = self._allocate_on_some_shard(
            "allocate", account=self.account, count=count
        )
        return [r.global_of(block_no) for block_no in local]

    def allocate_spread(self, count: int) -> list[int]:
        """``count`` numbers placed as ``count`` :meth:`allocate` calls
        would place them — the i-th on the i-th shard of the rotation —
        in one :meth:`allocate_many` exchange per shard drawn from."""
        draws = min(count, len(self.placement.ranges))
        shares = [self.allocate_many(count // draws + (i < count % draws))
                  for i in range(draws)]
        return [shares[i % draws][i // draws] for i in range(count)]

    # -- placed-block verbs (routed by the map) ------------------------------

    def write(self, block_no: int, data: bytes) -> None:
        self._routed("write", block_no, {"account": self.account, "data": data})

    def write_many(
        self, writes: list[tuple[int, bytes]], swaps: list[Swap] = ()
    ) -> list[TasResult]:
        """Group a batch by shard and ship one transaction per shard;
        returns one result per swap, in the order given.

        This is the commit path: an M-page flush costs one round trip per
        *touched shard*, not one per page, and the commit's conditional
        ``swaps`` ride it (in the order :meth:`_requests` gives).  Groups
        that land on a retired pair — or on one cut over and gone, which
        looks like an outage — are regrouped under the refreshed map and
        retried; groups that already landed are not resent.
        """
        results: list[TasResult | None] = [None] * len(swaps)
        pages = writes
        conds = [*enumerate(swaps)] if swaps else []
        refreshes = self.stale_attempts
        while pages or conds:
            requests = self._requests(pages, conds)
            pages, conds = [], []
            unplaced: Exception | None = None
            for r, group, where, shard_swaps in requests:
                if shard_swaps and pages:
                    # A page batch is still to be placed: no reference yet.
                    self._requeue(r, group, where, shard_swaps, pages, conds)
                    continue
                try:
                    # Keywords written out: CPython passes them faster
                    # than a forwarded dict.
                    outcome = self.txn.call(
                        r.port, "write_many",
                        account=self.account, writes=group, swaps=shard_swaps,
                    )
                except (PlacementStale, ServerUnreachable, ServerCrashed) as exc:
                    unplaced = exc
                    self._requeue(r, group, where, shard_swaps, pages, conds)
                    continue
                if where:
                    for i, result in zip(where, outcome):
                        results[i] = result
                if self._history is not None:
                    self._note_serve(r, "write_many")
            if unplaced is not None:
                # Re-route under a newer map; without one the pair is
                # retired for good, or really down.
                if not (refreshes and self._refresh()):
                    raise unplaced
                refreshes -= 1
        return results

    def _requests(self, pages, conds) -> list[tuple[ShardRange, list, list, list]]:
        """``(range, pages, swap positions, swaps)`` per shard a batch
        touches under the current map, in shard-local numbers and in the
        order **pages before reference** across shards needs: a swap is
        sent only once every page outside its own request is durable.  The
        swap-free requests go first; when all swaps live on one shard they
        ride that shard's page batch, sent last; when they live on
        several, every page goes out first and the swaps follow in
        requests of their own.  ``conds`` holds ``(position, swap)``."""
        requests, riding = [], []
        placed = 0
        for r in self.placement.ranges:
            lo, hi, shift = r.lo, r.hi, r.lo - 1
            mine = [page for page in pages if lo <= page[0] <= hi]
            if shift:
                mine = [(b - shift, data) for b, data in mine]
            placed += len(mine)
            if conds and (theirs := [c for c in conds if lo <= c[1][0] <= hi]):
                placed += len(theirs)
                riding.append((r, mine, [i for i, _ in theirs],
                               [(b - shift, *rest) for _, (b, *rest) in theirs]))
            elif mine:
                requests.append((r, mine, (), []))
        if placed < len(pages) + len(conds):
            for block_no in [b for b, _ in pages] + [c[0] for _, c in conds]:
                self.placement.index_of(block_no)  # UnknownShard: a stray
        if len(riding) > 1:
            requests = sorted(
                requests + [(r, mine, (), []) for r, mine, _, _ in riding if mine],
                key=lambda request: request[0].lo,
            )
            riding = [(r, [], where, swaps) for r, _, where, swaps in riding]
        requests += riding
        return requests

    @staticmethod
    def _requeue(r, group, where, swaps, pages, conds) -> None:
        """Put a request that was not placed back into ``pages`` and
        ``conds``, in global numbers, for the next round."""
        shift = r.lo - 1
        pages += [(b + shift, data) for b, data in group]
        conds += zip(where, [(b + shift, *rest) for b, *rest in swaps])

    def read(self, block_no: int) -> bytes:
        # :meth:`_routed` spelled out for the hottest verb: CPython passes
        # written-out keywords faster than a forwarded dict.
        placement = self.placement
        r = placement.ranges[placement.index_of(block_no)]
        try:
            data = self.txn.call(
                r.port, "read", account=self.account, block_no=block_no - r.lo + 1
            )
        except (PlacementStale, ServerUnreachable, ServerCrashed) as exc:
            return self._rerouted("read", block_no, {"account": self.account}, exc)
        if self._history is not None:
            self._note_serve(r, "read")
        return data

    def free(self, block_no: int) -> None:
        self._routed("free", block_no, {"account": self.account})

    def test_and_set(
        self, block_no: int, offset: int, expected: bytes, new: bytes
    ) -> TasResult:
        return self._routed("test_and_set", block_no, {
            "account": self.account, "offset": offset,
            "expected": expected, "new": new,
        })

    def recover(self) -> list[int]:
        """The §4 recovery operation, unioned across every live shard; a
        pair that is retired, or cut over and gone, means the map moved."""
        refreshes = self.stale_attempts
        while True:
            try:
                blocks: list[int] = []
                for r in self.placement.ranges:
                    for local in self.txn.call(
                        r.port, "recover", account=self.account
                    ):
                        blocks.append(r.global_of(local))
                return sorted(blocks)
            except (PlacementStale, ServerUnreachable, ServerCrashed):
                if refreshes and self._refresh():
                    refreshes -= 1
                    continue
                raise
