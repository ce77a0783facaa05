"""Live shard migration: stream a range to a fresh pair, cut over with
one placement-epoch bump.

The paper's discipline — copy-on-write pages published by a single
test-and-set — makes migration natural: a shard's committed blocks are
plain immutable-until-overwritten data, so they can be streamed to a new
companion pair *while the shard serves traffic*, and the switch is one
atomic map replacement.  The protocol:

1. **Arm** — both source halves start recording a *dirty set* of blocks
   mutated after this point (``track_dirty``).
2. **Pre-copy** — stream every block of the source manifest to the target
   pair (``export`` → ``ingest``), yielding between blocks so client
   traffic interleaves freely.  Blocks freed or re-owned mid-stream are
   skipped; the dirty set covers them.
3. **Delta rounds** — drain the dirty set in bounded rounds; each round
   streams what the previous round missed.  The set shrinks because a
   round is much shorter than the full copy.
4. **Cutover fence** — in one atomic step (no yields — the scheduler's
   unit of atomicity): stamp both source halves retired (every client
   verb now answers :class:`~repro.errors.PlacementStale`), copy the
   final dirty remainder, unregister the source port, swap the pair into
   the service, and publish the ``epoch + 1`` map.  No client operation
   can land between the final copy and the bump, so nothing is lost; a
   client that cached the old map gets ``PlacementStale`` and refetches.

Fault handling: if either source half restarted (or was down) while the
dirty set was armed, in-memory tracking is untrustworthy — the fence
falls back to a **full reconcile** (re-stream the entire final manifest,
and free target blocks the source no longer has).  Restart detection is
a per-half ``restarts`` counter snapshot.  Any failure before the fence
completes aborts the migration: retirement stamps roll back, the target
pair is discarded, and the placement map is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BlockError, ReproError, ServerCrashed, ServerUnreachable
from repro.sim.rpc import Request, Transaction, _registry, failover_order


@dataclass
class MigrationReport:
    """What one live migration did (returned by :func:`migrate_steps`)."""

    source_port: int
    target_port: int
    lo: int
    hi: int
    epoch: int  # placement epoch after the cutover
    blocks_streamed: int  # pre-copy + delta-round ingests (traffic running)
    delta_rounds: int
    cutover_blocks: int  # blocks copied inside the fence (the stall window)
    freed_on_target: int
    full_reconcile: bool


def _unlisten(network, port: int, names: tuple[str, ...]) -> None:
    """Remove daemons from a service port's failover set.  This is the
    durable half of retirement: even if every in-memory stamp were lost,
    no transaction can reach the source through the port again."""
    listeners = _registry(network).get(port)
    if listeners:
        for name in names:
            if name in listeners:
                listeners.remove(name)


def _half_call(network, node: str, pair, command: str, **params):
    """A command against an *available* source half, by name — the fence
    runs after the port is conceptually retired, and name-addressed sends
    (like companion traffic) bypass the port registry.  Only available
    halves are asked: a restarted-but-unresynced half answers with a
    stale disk, and streaming from it would lose the writes its twin
    holds.  No available half means the migration must abort, not guess.
    Drops are retried; an unreachable half fails over to its twin."""
    from repro.errors import MessageDropped

    halves = [half for half in pair.halves() if half.available]
    if not halves:
        raise ServerUnreachable(
            f"no available half of the pair on port {pair.port:#x} "
            f"to serve {command}"
        )
    last: Exception | None = None
    for name in failover_order([half.name for half in halves]):
        for _ in range(4):
            try:
                return network.send(node, name, Request(command, params))
            except MessageDropped as exc:
                last = exc
            except (ServerUnreachable, ServerCrashed) as exc:
                last = exc
                break
    assert last is not None
    raise last


def migrate_steps(
    service,
    index: int,
    target_port: int,
    *,
    node: str = "rebalancer",
    history=None,
    delta_threshold: int = 4,
    max_delta_rounds: int = 3,
):
    """Drive one live migration as a cooperative generator.

    Yields between block copies so a scheduler can interleave client
    traffic; returns a :class:`MigrationReport` via ``StopIteration``.
    Synchronous callers use :meth:`ShardedBlockService.migrate`.
    """
    network = service.network
    recorder = service.recorder
    placement = service.placement
    r = placement.ranges[index]
    source = service.pairs[index]
    if target_port in placement.ports or target_port == r.port:
        raise ValueError(f"target port {target_port:#x} already serves a range")
    txn = Transaction(network, node)
    target = service._spawn_pair(service._pair_seq, target_port, source.capacity)
    service._pair_seq += 1

    try:
        # -- 1. arm dirty tracking on both halves --------------------------
        restarts0 = {half.name: half.restarts for half in source.halves()}
        armed = {}
        for half in source.halves():
            armed[half.name] = half.available
            if half.available:
                half.cmd_track_dirty(on=True)

        copied: dict[int, int] = {}  # local block -> account on the target

        def copy(local: int, account: int, export) -> None:
            """Carry one block to the target.  An allocated block nothing
            was written to yet (``export`` answers None: a deferred page
            of an update still open, a number handed out of a pool) goes
            over as a reservation, so that its owner's later flush lands."""
            data = export("export", account=account, block_no=local)
            txn.call(
                target_port, "ingest", account=account, block_no=local, data=data
            )
            copied[local] = account

        def through_port(command: str, **params):
            return txn.call(r.port, command, **params)

        def through_half(command: str, **params):
            return _half_call(network, node, source, command, **params)

        # -- 2. pre-copy: stream the manifest while traffic runs -----------
        streamed = 0
        manifest = through_half("manifest")
        for local, account in manifest:
            yield  # let client traffic interleave
            try:
                copy(local, account, through_port)
            except BlockError:
                continue  # freed or re-owned since the manifest; dirty set covers it
            streamed += 1
            if recorder.enabled:
                recorder.count("rebalance.pages_streamed")

        # -- 3. bounded delta rounds ---------------------------------------
        # ``pending`` carries every drained-but-not-yet-streamed dirty
        # block: the server-side sets are reset on read, so anything we
        # take out and don't copy here MUST survive into the fence.
        rounds = 0
        pending: set[int] = set()
        while True:
            for half in source.halves():
                if half.available and armed.get(half.name):
                    pending.update(half.cmd_dirty_blocks(reset=True))
            if len(pending) <= delta_threshold or rounds >= max_delta_rounds:
                break  # small enough (or out of rounds): the fence copies it
            rounds += 1
            if recorder.enabled:
                recorder.count("rebalance.delta_rounds")
            owners = dict(through_half("manifest"))
            dirty, pending = sorted(pending), set()
            for local in dirty:
                yield
                account = owners.get(local)
                if account is None:
                    if local in copied:
                        txn.call(
                            target_port,
                            "free",
                            account=copied.pop(local),
                            block_no=local,
                        )
                    continue
                try:
                    copy(local, account, through_port)
                except BlockError:
                    continue
                streamed += 1
                if recorder.enabled:
                    recorder.count("rebalance.pages_streamed")

        # -- 4. cutover fence: atomic from here (no yields) ----------------
        a, b = source.halves()
        full_reconcile = not all(
            armed[h.name] and h.available and h.restarts == restarts0[h.name]
            for h in (a, b)
        )
        new_epoch = service.placement.epoch + 1
        a.retire(new_epoch)
        b.retire(new_epoch)
        try:
            final_manifest = dict(through_half("manifest"))
            if full_reconcile:
                to_copy = dict(final_manifest)
                if recorder.enabled:
                    recorder.count("rebalance.full_reconciles")
            else:
                remainder: set[int] = set(pending)
                for half in (a, b):
                    if half.available:
                        remainder.update(half.cmd_dirty_blocks(reset=True))
                to_copy = {
                    local: final_manifest[local]
                    for local in remainder
                    if local in final_manifest
                }
                for local in remainder - set(to_copy):
                    to_copy[local] = None  # freed on the source: free on target
            cut_blocks = 0
            freed = 0
            for local in sorted(to_copy):
                account = to_copy[local]
                if account is None:
                    if local in copied:
                        txn.call(
                            target_port,
                            "free",
                            account=copied.pop(local),
                            block_no=local,
                        )
                        freed += 1
                    continue
                copy(local, account, through_half)
                cut_blocks += 1
            if full_reconcile:
                # Free target blocks the final manifest no longer names —
                # pre-copied blocks whose free we may have lost track of.
                for local in sorted(set(copied) - set(final_manifest)):
                    txn.call(
                        target_port,
                        "free",
                        account=copied.pop(local),
                        block_no=local,
                    )
                    freed += 1
        except ReproError:
            a.unretire()
            b.unretire()
            raise
        # The point of no return: fence the port, swap the pair, bump the
        # epoch — one atomic step as far as any client can observe.
        for half in (a, b):
            if half.available and armed.get(half.name):
                half.cmd_track_dirty(on=False)
        _unlisten(network, r.port, (a.name, b.name))
        new_map = service.placement.moved(index, target_port)
        service.pairs[index] = target
        service.retired_pairs.append(source)
        if recorder.enabled:
            recorder.count("rebalance.migrations")
            recorder.count("rebalance.cutover_blocks", cut_blocks)
        service._publish(new_map)
        if history is not None:
            history.record(
                "cutover",
                actor=node,
                base=r.port,
                version=new_map.epoch,
                path=f"{target_port:#x}",
                tick=network.clock.now,
            )
        return MigrationReport(
            source_port=r.port,
            target_port=target_port,
            lo=r.lo,
            hi=r.hi,
            epoch=new_map.epoch,
            blocks_streamed=streamed,
            delta_rounds=rounds,
            cutover_blocks=cut_blocks,
            freed_on_target=freed,
            full_reconcile=full_reconcile,
        )
    except BaseException:
        # Abort: the placement map is untouched, clients never saw a bump.
        # Disarm tracking, discard the half-built target pair.
        for half in source.halves():
            if half.available:
                half.cmd_track_dirty(on=False)
        _unlisten(network, target_port, (target.a.name, target.b.name))
        for half in target.halves():
            if not half._crashed:
                network.detach(half.name)
        if recorder.enabled:
            recorder.count("rebalance.aborts")
        raise
