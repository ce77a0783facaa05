"""Property test: the companion pair never diverges, under any interleaving.

Hypothesis drives arbitrary interleavings of multi-step write operations
through both halves of a stable pair (the begin/finish decomposition of
the companion-first protocol).  Whatever the schedule and whichever
operations collide and retry, the invariant holds: when all operations
have completed or aborted, both disks hold identical bytes for every
allocated block, and every block holds a value some completed operation
actually wrote.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import CompanionConflict
from repro.block.stable import StablePair
from repro.sim.network import Network

# Each planned operation: (which half, which block slot, payload tag).
op_strategy = st.tuples(
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=255),
)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=8),
    schedule=st.lists(st.integers(min_value=0, max_value=15), max_size=40),
)
def test_pair_never_diverges(ops, schedule):
    network = Network()
    pair = StablePair(network, 0xB00, capacity=256, block_size=64)
    # Pre-allocate the block slots both halves will fight over.
    blocks = [pair.a.cmd_allocate_write(1, b"init%d" % i) for i in range(4)]

    # Launch every operation to its begin step, interleaved by `schedule`:
    # each schedule entry picks which pending operation to advance.
    pending: list[dict] = []
    for half_name, slot, tag in ops:
        pending.append(
            {
                "half": pair.a if half_name == "a" else pair.b,
                "block": blocks[slot],
                "data": b"val-%03d" % tag,
                "state": "new",
                "op": None,
            }
        )

    completed: list[dict] = []
    steps = iter(schedule)
    # Drive until every operation has completed or aborted; when the
    # schedule runs dry, finish the rest round-robin.
    guard = 0
    while any(p["state"] in ("new", "begun") for p in pending):
        guard += 1
        assert guard < 1000
        live = [p for p in pending if p["state"] in ("new", "begun")]
        try:
            pick = live[next(steps) % len(live)]
        except StopIteration:
            pick = live[0]
        if pick["state"] == "new":
            try:
                pick["op"] = pick["half"].begin_write(
                    1, pick["block"], pick["data"]
                )
                pick["state"] = "begun"
            except CompanionConflict:
                pick["state"] = "aborted"  # collided: a real client retries
        else:
            pick["half"].finish_op(pick["op"])
            pick["state"] = "done"
            completed.append(pick)

    # Invariant 1: both disks agree on every block.
    assert pair.consistent()
    # Invariant 2: every block holds the initial value or the payload of
    # an operation that actually completed.
    legal = {blocks[i]: {b"init%d" % i} for i in range(4)}
    for p in completed:
        legal[p["block"]].add(p["data"])
    for block in blocks:
        value = pair.disk_a.read(block)
        assert value in legal[block], f"block {block} holds unwritten data {value!r}"
    # Invariant 3: the LAST completed write per block is what is stored
    # (completion order is the serialisation order of the pair).
    last: dict[int, bytes] = {}
    for p in completed:
        last[p["block"]] = p["data"]
    for block, expected in last.items():
        assert pair.disk_a.read(block) == expected


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
            block = half.cmd_allocate(1)
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
