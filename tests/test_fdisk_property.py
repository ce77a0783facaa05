"""Property tests: the log-structured disk against a plain dict model, and
arbitrary on-disk damage that never turns into silent garbage.

The contract under test (``docs/DURABILITY.md``, recovery cases 1–3):

* sequences of every mutation, on a segment limit of a few records (so
  every example rotates and cleans many times), interleaved with crashes
  at random crash points in both death modes and with reopens, leave
  blocks, owner map and intentions equal to the model — and a reader
  thread running throughout never sees anything but acknowledged bytes;
* payload damage makes ``read`` raise :class:`CorruptBlock` for that block
  only — on the live disk AND after a restart — and never returns wrong
  bytes (case 2);
* a damaged tail of the newest segment never crashes recovery: the
  replayed state is the state after some *prefix* of the acknowledged
  operations (case 1);
* a frame that cannot be walked inside a sealed segment never lets an
  older version of a block pass as current (case 3);
* the companion-pair repair path heals a corrupted half from the healthy
  one, exactly as it does on simulated disks.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.fdisk import CRASH_POINTS, FDisk, FaultingFDisk, ProcessDied
from repro.block.stable import StablePair
from repro.block.sharding import ShardedBlockClient
from repro.errors import CorruptBlock, NoSuchBlock
from repro.sim.network import Network

CAP, BLK = 64, 256
LIMIT = 256  # segment size for the rotation-heavy properties

payloads = st.binary(min_size=1, max_size=64)
block_numbers = st.integers(min_value=1, max_value=12)
accounts = st.integers(min_value=1, max_value=3)


# -- the model-based property --------------------------------------------------

mutations = st.one_of(
    st.tuples(st.just("write"), block_numbers, payloads),
    st.tuples(
        st.just("write_many"),
        st.lists(st.tuples(block_numbers, payloads), min_size=1, max_size=4),
    ),
    st.tuples(st.just("erase"), block_numbers),
    st.tuples(st.just("set_owner"), block_numbers, accounts),
    st.tuples(st.just("clear_owner"), block_numbers),
    st.tuples(
        st.just("add_intention"),
        st.sampled_from(["write", "reserve", "free"]), accounts, block_numbers,
        st.binary(max_size=16),
    ),
    st.tuples(st.just("ack_intentions"), st.integers(min_value=0, max_value=3)),
)
steps = st.one_of(
    mutations,
    mutations,
    mutations,
    st.tuples(
        st.just("arm"), st.sampled_from(CRASH_POINTS),
        st.integers(min_value=1, max_value=4), st.booleans(),
    ),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("checkpoint")),
)


class _Model:
    """What a correct disk holds: plain dicts and a list."""

    def __init__(self) -> None:
        self.blocks: dict[int, bytes] = {}
        self.owners: dict[int, int] = {}
        self.intentions: list[tuple[str, int, int, bytes]] = []

    def copy(self) -> "_Model":
        twin = _Model()
        twin.blocks = dict(self.blocks)
        twin.owners = dict(self.owners)
        twin.intentions = list(self.intentions)
        return twin

    def apply(self, step) -> None:
        kind, *args = step
        if kind == "write":
            self.blocks[args[0]] = args[1]
        elif kind == "write_many":
            self.blocks.update(args[0])
        elif kind == "erase":
            self.blocks.pop(args[0], None)
        elif kind == "set_owner":
            self.owners[args[0]] = args[1]
        elif kind == "clear_owner":
            self.owners.pop(args[0], None)
        elif kind == "add_intention":
            self.intentions.append(tuple(args))
        elif kind == "ack_intentions":
            del self.intentions[: args[0]]

    def outcomes_of(self, step) -> list["_Model"]:
        """Every state an in-flight ``step`` may leave: not applied, applied,
        or — for a batch — any record prefix of it."""
        kind, *args = step
        partial = [step]
        if kind == "write_many":
            partial = [("write_many", args[0][:k]) for k in range(len(args[0]) + 1)]
        states = [self.copy()]
        for part in partial:
            after = self.copy()
            after.apply(part)
            states.append(after)
        return states

    def __eq__(self, other) -> bool:
        return (self.blocks, self.owners, self.intentions) == (
            other.blocks, other.owners, other.intentions
        )


def _observe(disk) -> _Model:
    seen = _Model()
    for block_no in range(1, CAP + 1):
        if disk.holds(block_no):
            seen.blocks[block_no] = disk.read(block_no)
    seen.owners = disk.recovered_owners()
    seen.intentions = disk.recovered_intentions()
    return seen


def _stamp(step, seq: int):
    """Prefix every payload with ``block:seq:`` so a reader can tell which
    block and which write a value belongs to."""
    kind, *args = step
    if kind == "write":
        return (kind, args[0], b"%d:%d:" % (args[0], seq) + args[1])
    if kind == "write_many":
        return (kind, [(b, b"%d:%d:" % (b, seq) + d) for b, d in args[0]])
    return step


@settings(max_examples=30, deadline=None)
@given(script=st.lists(steps, min_size=10, max_size=70))
def test_disk_matches_dict_model_across_rotation_cleaning_and_crashes(script):
    with tempfile.TemporaryDirectory() as td:
        root = Path(td) / "d"
        box = {"disk": FaultingFDisk(root, CAP, BLK, journal_limit=LIMIT)}
        model = _Model()
        acked_seq = {b: 0 for b in range(1, CAP + 1)}  # newest acknowledged write
        stop = threading.Event()
        wrong: list = []

        def reader() -> None:
            while not stop.is_set():
                for block_no in range(1, 13):
                    floor = acked_seq[block_no]
                    try:
                        data = box["disk"].read(block_no)
                    except (NoSuchBlock, CorruptBlock, ProcessDied):
                        continue
                    owner, seq, _ = data.split(b":", 2)
                    if int(owner) != block_no or int(seq) < floor:
                        wrong.append((block_no, floor, data))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for seq, step in enumerate(script, start=1):
                disk = box["disk"]
                step = _stamp(step, seq)
                kind, *args = step
                if kind == "arm":
                    disk.arm(*args)
                    continue
                if kind in ("reopen", "checkpoint"):
                    try:
                        disk.checkpoint() if kind == "checkpoint" else disk.close()
                    except ProcessDied:
                        pass
                    possible = [model]
                else:
                    try:
                        getattr(disk, kind)(*args)
                    except ProcessDied:
                        possible = model.outcomes_of(step)
                    else:
                        model.apply(step)
                        possible = None
                if possible is None:
                    # Acknowledged: readable at once, no reopen needed.
                    for block_no, data in _written(step):
                        assert disk.read(block_no) == data
                        acked_seq[block_no] = seq
                    continue
                # Dead (or closed): what a restarted process finds must be
                # one of the states the crash may leave behind.
                disk.close()
                box["disk"] = FaultingFDisk(root, CAP, BLK, journal_limit=LIMIT)
                found = _observe(box["disk"])
                assert found in possible, (step, found.__dict__)
                model = found
                for block_no, data in found.blocks.items():
                    acked_seq[block_no] = int(data.split(b":", 2)[1])
        finally:
            stop.set()
            thread.join(timeout=30)
            box["disk"].close()
        assert not thread.is_alive()
        assert not wrong, wrong[:3]
        final = FDisk(root, CAP, BLK, journal_limit=LIMIT)
        assert _observe(final) == model
        final.close()


def _written(step) -> list[tuple[int, bytes]]:
    kind, *args = step
    if kind == "write":
        return [(args[0], args[1])]
    if kind == "write_many":
        return list(dict(args[0]).items())
    return []


# -- damage --------------------------------------------------------------------


def _record_span(disk, block_no) -> tuple[Path, int, int]:
    """``(segment file, frame offset, frame length)`` of a block's record."""
    segment, offset, length, _ = disk._index[block_no]
    return segment.path, offset, 8 + length


def _flip(path: Path, at: int, mask: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[at] ^= mask
    path.write_bytes(bytes(raw))


@settings(max_examples=30, deadline=None)
@given(
    blocks=st.dictionaries(
        st.integers(min_value=1, max_value=16), payloads, min_size=1, max_size=6
    ),
    victim_index=st.integers(min_value=0, max_value=15),
    offset=st.integers(min_value=0, max_value=10_000),
    flip=st.integers(min_value=1, max_value=255),
)
def test_corrupt_block_file_never_reads_garbage(blocks, victim_index, offset, flip):
    """Case 2: a damaged payload in a sealed segment costs that block only,
    on the live disk and after a restart."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td) / "d"
        disk = FDisk(root, CAP, BLK)
        for block_no, data in blocks.items():
            disk.write(block_no, data)
        disk.checkpoint()  # seal: the records now sit in a sealed segment
        victims = sorted(blocks)
        victim = victims[victim_index % len(victims)]
        path, start, length = _record_span(disk, victim)
        assert path != disk._active.path
        payload_at = start + 13
        _flip(path, payload_at + offset % (length - 13), flip)

        def check(handle) -> None:
            with pytest.raises(CorruptBlock):
                handle.read(victim)
            for block_no, data in blocks.items():
                if block_no != victim:
                    assert handle.read(block_no) == data

        check(disk)
        disk.close()
        # A restarted process detects the same damage, and every other
        # block still reads back byte-for-byte.
        recovered = FDisk(root, CAP, BLK)
        check(recovered)
        # The repairing write is just a fresh record.
        recovered.write(victim, blocks[victim])
        assert recovered.read(victim) == blocks[victim]
        recovered.close()


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), payloads),
        min_size=1,
        max_size=8,
    ),
    offset=st.integers(min_value=0, max_value=10_000),
    flip=st.integers(min_value=1, max_value=255),
    mode=st.sampled_from(["flip", "truncate"]),
)
def test_corrupt_journal_recovers_a_valid_prefix(ops, offset, flip, mode):
    """Case 1: the newest segment is cut anywhere, or its last record is
    damaged — whatever survives must replay to a prefix of the acked
    writes, and the truncation must be durable."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td) / "d"
        disk = FDisk(root, CAP, BLK)
        for block_no, data in ops:
            disk.write(block_no, data)
        path, start, length = _record_span(disk, ops[-1][0])
        disk.close()

        raw = bytearray(path.read_bytes())
        if mode == "flip":
            raw[start + offset % length] ^= flip
        else:
            del raw[offset % len(raw) :]
        path.write_bytes(bytes(raw))

        recovered = FDisk(root, CAP, BLK)  # recovery must not crash
        state: dict[int, bytes] = {}
        prefixes = [dict(state)]
        for block_no, data in ops:
            state[block_no] = data
            prefixes.append(dict(state))
        got: dict[int, bytes] = {}
        for block_no in {b for b, _ in ops}:
            try:
                got[block_no] = recovered.read(block_no)
            except NoSuchBlock:
                pass
        assert got in prefixes, "recovered state is not a prefix of acked ops"
        recovered.close()

        # Truncation was made durable: a second restart is clean.
        again = FDisk(root, CAP, BLK)
        assert again.truncated_bytes == 0
        again.close()


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(min_value=1, max_value=8), payloads),
            st.tuples(st.just("erase"), st.integers(min_value=1, max_value=8)),
        ),
        min_size=8,
        max_size=40,
    ),
    pick=st.integers(min_value=0, max_value=10_000),
    offset=st.integers(min_value=0, max_value=10_000),
    flip=st.integers(min_value=1, max_value=255),
    mode=st.sampled_from(["header", "truncate", "unlink"]),
)
def test_unwalkable_sealed_frame_never_serves_an_older_version(
    ops, pick, offset, flip, mode
):
    """Case 3: a frame head (length, CRC, type or block number) rots inside
    a sealed segment, or the segment is cut short, or it is gone.  Recovery must
    not crash, and every block then reads its last acknowledged bytes or
    raises CorruptBlock — never an older version — until rewritten."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td) / "d"
        disk = FDisk(root, CAP, BLK, journal_limit=LIMIT)
        model: dict[int, bytes] = {}
        for kind, block_no, *data in ops:
            if kind == "write":
                disk.write(block_no, data[0])
                model[block_no] = data[0]
            else:
                disk.erase(block_no)
                model.pop(block_no, None)
        disk.checkpoint()
        sealed = disk._segments[:-1]
        victim = sealed[pick % len(sealed)]
        homes = {b: entry[0].seq for b, entry in disk._index.items()}
        disk.close()

        raw = bytearray(victim.path.read_bytes())
        if mode == "unlink":
            victim.path.unlink()
        elif mode == "truncate":
            del raw[offset % len(raw) :]
        else:
            # Walk to a frame and damage any byte of its head: length,
            # CRC, record type or block number.
            frames, at = [], 0
            while at < len(raw):
                frames.append(at)
                at += 8 + int.from_bytes(raw[at : at + 4], "big")
            raw[frames[pick % len(frames)] + offset % 13] ^= flip
        if mode != "unlink":
            victim.path.write_bytes(bytes(raw))

        recovered = FDisk(root, CAP, BLK, journal_limit=LIMIT)
        for block_no in range(1, 9):
            try:
                data = recovered.read(block_no)
            except CorruptBlock:
                continue
            except NoSuchBlock:
                # Only an erased block, or one whose newest record lay in
                # the damaged segment itself, may be unknown.
                assert block_no not in model or homes[block_no] == victim.seq
                continue
            assert data == model.get(block_no), f"block {block_no} went back in time"
        # The companion path's repairing write clears the suspicion.
        for block_no, data in model.items():
            recovered.write(block_no, data)
            assert recovered.read(block_no) == data
        recovered.close()


@settings(max_examples=20, deadline=None)
@given(
    payload_list=st.lists(payloads, min_size=1, max_size=5),
    corrupt_mask=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_companion_repair_heals_corrupt_half(payload_list, corrupt_mask):
    with tempfile.TemporaryDirectory() as td:
        net = Network()
        pair = StablePair(
            net, 0x910, capacity=CAP, block_size=BLK, backend="disk", data_dir=td
        )
        client = ShardedBlockClient(net, "cli", [0x910], account=1)
        blocks = [client.allocate_write(p) for p in payload_list]
        for block_no, corrupted in zip(blocks, corrupt_mask):
            if corrupted:
                pair.disk_a.corrupt(block_no)
        # Reads fail over to the healthy companion and repair in place.
        for block_no, payload in zip(blocks, payload_list):
            assert client.read(block_no) == payload
        for block_no, payload in zip(blocks, payload_list):
            assert pair.disk_a.read(block_no) == payload
        assert pair.consistent()
        pair.close()
