"""Property tests: the companion pair never diverges, under any interleaving.

Hypothesis drives arbitrary interleavings of replicated batches through
both halves of a stable pair — the begin/finish steps every write takes
(``StableServer.begin_batch`` / ``finish_op``) — together with crashes,
restarts and resyncs of either half as three separate steps.  Whatever
the schedule and whichever operations collide and retry, the halves hold
the same bytes whenever both serve (but on the blocks of an operation
between its steps), and when every operation has completed or aborted
and both halves are back, both disks
hold identical bytes for every allocated block, every block holds a value
some completed operation actually wrote, and §5.2's critical section
held: no two completed swaps with the same ``expected`` both succeeded.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import CompanionConflict, ServerCrashed, ServerUnreachable
from repro.block.stable import StablePair
from repro.sim.network import Network

SLOTS = 4


def _counter(value: int) -> bytes:
    return value.to_bytes(4, "big")


# Each planned operation: the half it is sent through, the slots it writes
# (1-3 of the 4), and the ``expected`` counter of an optional swap on the
# reference block (``new`` is always expected + 1, like a commit
# reference that only ever moves forward).
op_strategy = st.tuples(
    st.sampled_from("ab"),
    st.sets(st.integers(0, SLOTS - 1), min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(0, 2)),
)
# Each schedule step: advance one live operation (picked by index), or
# crash, restart or resync one half (half "ab"[index % 2]).
step_strategy = st.tuples(
    st.sampled_from(["op"] * 4 + ["crash", "restart", "resync"]), st.integers(0, 15)
)


def _advance(p: dict, halves: dict, completed: list) -> None:
    """One step of one operation: its begin, or its finish."""
    if p["state"] == "begun":
        halves[p["half"]].finish_op(p["op"])
        p["state"] = "done"
        completed.append(p)
        return
    try:
        p["op"] = halves[p["half"]].begin_batch(1, p["writes"], p["swaps"])
    except CompanionConflict:
        p["state"] = "aborted"  # collided: refused before any damage
    except (ServerCrashed, ServerUnreachable):
        p["half"] = "b" if p["half"] == "a" else "a"  # the client fails over
    else:
        p["state"] = "begun"


def _resync(half) -> None:
    if half._recovering:
        try:
            half.resync()
        except (ServerCrashed, ServerUnreachable):
            pass  # the companion is down: stay recovering


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(op_strategy, min_size=4, max_size=16),
    schedule=st.lists(step_strategy, min_size=30, max_size=60),
)
def test_pair_never_diverges(ops, schedule):
    network = Network()
    pair = StablePair(network, 0xB00, capacity=256, block_size=64)
    halves = {"a": pair.a, "b": pair.b}
    # Pre-allocate the block slots both halves will fight over, and the
    # reference block the swaps race on.
    blocks = [pair.a.cmd_allocate_write(1, b"init%d" % i) for i in range(SLOTS)]
    ref = pair.a.cmd_allocate_write(1, _counter(0))

    pending = [
        {
            "half": half,
            "writes": [
                (blocks[slot], b"op%d-slot%d" % (n, slot)) for slot in sorted(slots)
            ],
            "swaps": [] if expected is None else [
                (ref, 0, _counter(expected), _counter(expected + 1))
            ],
            "state": "new",
            "op": None,
        }
        for n, (half, slots, expected) in enumerate(ops)
    ]
    completed: list[dict] = []

    def live() -> list[dict]:
        return [p for p in pending if p["state"] in ("new", "begun")]

    def halves_agree() -> None:
        """Once both halves serve, they hold the same bytes everywhere but
        on the blocks of an operation between its begin and its finish."""
        if pair.a.available and pair.b.available:
            busy = {
                b for p in live() if p["state"] == "begun" for b in p["op"].blocks
            }
            for block in {*blocks, ref} - busy:
                assert pair.disk_a.peek(block) == pair.disk_b.peek(block), block

    for kind, arg in schedule:
        halves_agree()
        if kind == "op":
            if live():
                _advance(live()[arg % len(live())], halves, completed)
            continue
        arg = "ab"[arg % 2]
        half = halves[arg]
        if kind == "crash":
            # A crash lands between this half's own requests: the
            # simulation runs a request to its end at its origin.  (Its
            # resync replays only intentions, so an origin that died after
            # its companion step would leave that block apart until the
            # client's retry: a gap this property does not cover.)
            in_flight = any(
                p["state"] == "begun" and p["half"] == arg for p in pending
            )
            if not half._crashed and not in_flight:
                half.crash()
        elif kind == "restart" and half._crashed:
            half.restart()
        elif kind == "resync":
            _resync(half)

    # The schedule ran dry: bring both halves back, finish what was begun,
    # then run what is left one operation at a time.
    for half in halves.values():
        if half._crashed:
            half.restart()
    for half in halves.values():
        _resync(half)
    assert pair.a.available and pair.b.available
    for p in [p for p in pending if p["state"] == "begun"]:
        _advance(p, halves, completed)
    for p in live():
        _advance(p, halves, completed)
        _advance(p, halves, completed)
    assert not live()

    # Invariant 1: both disks agree on every block, and on who owns it.
    assert pair.consistent()
    assert pair.a.local.recover(1) == pair.b.local.recover(1)
    # Invariant 2: every slot holds its initial value or the payload of an
    # operation that actually completed.
    legal = {blocks[i]: {b"init%d" % i} for i in range(SLOTS)}
    for p in completed:
        for block, data in p["writes"]:
            legal[block].add(data)
    for block in blocks:
        value = pair.disk_a.read(block)
        assert value in legal[block], f"block {block} holds unwritten data {value!r}"
    # Invariant 3: the LAST completed write per block is what is stored
    # (completion order is the serialisation order of the pair).
    last: dict[int, bytes] = {}
    for p in completed:
        last.update(p["writes"])
    for block, expected in last.items():
        assert pair.disk_a.read(block) == pair.disk_b.read(block) == expected
    # Invariant 4: the critical section.  No two completed swaps with the
    # same ``expected`` both succeeded, and the reference moved once per
    # success.
    won = [
        p["swaps"][0][2]
        for p in completed
        if p["swaps"] and p["op"].results[0].success
    ]
    assert len(won) == len(set(won))
    assert pair.disk_a.read(ref) == pair.disk_b.read(ref) == _counter(len(won))


# -- extents and pools ---------------------------------------------------------

pool_op = st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from("ab")),
    st.tuples(st.just("free"), st.sampled_from("ab"), st.integers(0, 63)),
    st.tuples(st.just("bounce"), st.sampled_from("ab")),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(pool_op, min_size=1, max_size=40))
def test_pools_never_hand_a_number_out_twice_nor_show_it(ops):
    """Allocations and frees through both halves, with either half
    crashing and coming back (which forgets its pool): no number is
    handed out while it is still held, no pooled number shows in any
    ``recover``, and both owner maps agree in the end."""
    network = Network()
    pair = StablePair(network, 0xB01, capacity=512, block_size=64)
    halves = {"a": pair.a, "b": pair.b}
    held: list[int] = []
    for op in ops:
        half = halves[op[1]]
        if op[0] == "alloc":
            (block,) = half.cmd_allocate(1)
            assert block not in held
            held.append(block)
        elif op[0] == "free" and held:
            half.cmd_free(1, held.pop(op[2] % len(held)))
        elif op[0] == "bounce":
            half.crash()
            half.restart()
            half.resync()
            assert not half._pool
        pooled = set(pair.a._pool) | set(pair.b._pool)
        for each in halves.values():
            listed = set(each.cmd_recover(1))
            assert not listed & pooled
            assert set(held) <= listed
    owners = [
        {b: h.local.owner_of(b) for b in h.local.allocated_blocks()}
        for h in halves.values()
    ]
    assert owners[0] == owners[1]
    assert pair.consistent()
