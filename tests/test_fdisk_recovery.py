"""Crash recovery: FDisk survives death at every call it makes of the
file system — in both kinds of death.

The disks run on the in-memory kernel (:mod:`repro.sim.kernel`), which
keeps what a crash would keep.  Two kinds of test:

* **Crash states, enumerated** (``test_every_crash_state_recovers_*``):
  short scripts of every mutation, on a segment limit that makes them
  rotate and clean, die after every prefix of their kernel calls, by
  process death and by power loss, with the last write whole or torn at
  a sector boundary (Pillai et al., OSDI 2014).  Each reopened disk must
  hold every acknowledged operation, the in-flight one applied, not
  applied or (for a multi-record append) a record prefix of it — and
  nothing no script wrote — and must keep working through rotation and
  cleaning after it.
* **Named crash points** (the parametrised tests below them): the
  positions in that call stream where the in-flight operation's outcome
  is fixed — before the append, a frame header torn from its body, a
  batch cut after its first record, either side of the ack-point sync,
  after a rotation's new segment or its head snapshot, either side of a
  cleaning pass's unlink — each checked against the outcome it implies.

Every point runs twice: **process death** (bytes handed to the kernel
survive, so a complete-but-unsynced record replays) and **power loss**
(only synced bytes and synced directory entries survive).  The segment
limit is a few records, so the stores below have rotated before the crash
and the ``rotate.*`` / ``clean.*`` points are reached by ordinary writes.
"""

from __future__ import annotations

import gc
import json
import os
import struct
import threading

import pytest

from repro.block.fdisk import FDisk, probe_sync_primitives
from repro.block.server import BlockServer
from repro.errors import CorruptBlock, NoSuchBlock, UnsupportedDiskLayout
from repro.sim.kernel import SECTOR, Kernel, ProcessDied

CAP, BLK = 64, 256
LIMIT = 160  # segment size: a handful of records
ACCOUNT = 7

# Acked baseline installed before every crash: four blocks plus one
# acknowledged overwrite of block 2.
ACKED = {1: b"one", 2: b"two-v2", 3: b"three", 4: b"four"}

# Expected outcome of the in-flight op per crash point, as (process death,
# power loss).  The sync is the ack point: before it the op is lost — except
# that a killed process leaves the record it already appended in the page
# cache — and from it on the op has happened.  ``rotate.*`` and ``clean.*``
# fire after the in-flight op's own sync.
WRITE_OUTCOME = {
    "journal.before_append": ("old", "old"),
    "journal.mid_append": ("old", "old"),  # torn record → CRC truncation
    "journal.before_sync": ("new", "old"),
    "journal.after_sync": ("new", "new"),
    "rotate.after_create": ("new", "new"),
    "rotate.after_snapshot": ("new", "new"),
    "clean.after_copy": ("new", "new"),
    "clean.after_unlink": ("new", "new"),
}

ERASE_OUTCOME = {
    point: tuple({"old": "present", "new": "absent"}[o] for o in outcome)
    for point, outcome in WRITE_OUTCOME.items()
}

# How many records of a 3-record append survive.  The append shares ONE
# sync: before it a record prefix (whatever reached the file) or nothing
# lands, after it all of it.
BATCH_OUTCOME = {
    "journal.before_append": (0, 0),
    "journal.mid_append": (0, 0),
    "batch.mid_records": (1, 0),  # record 0 reached the file whole
    "journal.before_sync": (3, 0),
    "journal.after_sync": (3, 3),
    "rotate.after_create": (3, 3),
    "rotate.after_snapshot": (3, 3),
    "clean.after_copy": (3, 3),
    "clean.after_unlink": (3, 3),
}

# allocate_write is OWNER + WRITE and free is DISOWN + ERASE in one append:
# how many of the two records survive.  Replay order is append order, so
# "1" is owner-without-data / disowned-but-present, never the reverse.
PAIR_OUTCOME = {
    point: tuple(min(n, 2) for n in outcome)
    for point, outcome in BATCH_OUTCOME.items()
}

MODES = [("process", False), ("power", True)]


class _Dying:
    """A kernel that dies at a named point of FDisk's call stream.

    ``arm(point, countdown)`` picks the ``countdown``-th time the stream
    reaches ``point`` (1 = first); a death makes the kernel crash — by
    process death, or by power loss — and raises :class:`ProcessDied`.
    Every other call goes straight to the kernel.
    """

    POINTS = (
        "journal.before_append",  # the segment write of an append
        "journal.mid_append",  # in it: a frame header lands without its body
        "batch.mid_records",  # in a multi-record one: the first frame lands
        "journal.before_sync",  # the segment sync
        "journal.after_sync",  # after it (and a new segment's directory sync)
        "rotate.after_create",  # a new segment's create
        "rotate.after_snapshot",  # after its head snapshot's directory sync
        "clean.after_copy",  # a cleaning pass's unlink of its victim
        "clean.after_unlink",  # after it
    )

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.point = None
        self.countdown = 0
        self.power_loss = False
        self.dead = False
        self._segments: set[int] = set()
        self._headless: set[int] = set()  # new segments not yet dir-synced
        self._after_dir_sync = False

    def arm(self, point: str, countdown: int = 1, power_loss: bool = False) -> None:
        assert point in self.POINTS
        self.point, self.countdown, self.power_loss = point, countdown, power_loss

    def disarm(self) -> None:
        self.point = None

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def _reached(self, point: str) -> bool:
        if self.point != point:
            return False
        self.countdown -= 1
        return self.countdown == 0

    def _die(self, fd: int | None = None, landed=b"") -> None:
        if landed:
            self.kernel.write(fd, landed)
        self.point, self.dead = None, True
        self.kernel.crash(self.power_loss)
        raise ProcessDied("died at a named crash point")

    def open(self, path, flags, mode=0o777):
        fd = self.kernel.open(path, flags, mode)
        if os.fspath(path).endswith(".seg"):
            self._segments.add(fd)
            if flags & os.O_CREAT and self.point is not None:
                self._headless.add(fd)
                if self._reached("rotate.after_create"):
                    self._die()
        return fd

    def write(self, fd, data):
        if fd in self._segments:
            if self._reached("journal.before_append"):
                self._die()
            if self._reached("journal.mid_append"):
                self._die(fd, data[:8])
            first = 8 + struct.unpack_from(">I", data)[0]
            if first < len(data) and self._reached("batch.mid_records"):
                self._die(fd, data[:first])
        return self.kernel.write(fd, data)

    def fsync(self, fd):
        if fd in self._segments:
            if self._reached("journal.before_sync"):
                self._die()
            self.kernel.fsync(fd)
            if self._reached("journal.after_sync"):
                if fd not in self._headless:
                    self._die()
                self._after_dir_sync = True
            return
        self.kernel.fsync(fd)  # a directory
        if self._after_dir_sync:
            self._die()
        if self._headless:
            self._headless.clear()
            if self._reached("rotate.after_snapshot"):
                self._die()

    fdatasync = fsync

    def unlink(self, path):
        if self._reached("clean.after_copy"):
            self._die()
        self.kernel.unlink(path)
        if self._reached("clean.after_unlink"):
            self._die()


def _dying_disk(**kwargs) -> tuple[FDisk, _Dying]:
    dying = _Dying(Kernel())
    return FDisk("d", CAP, BLK, fs=dying, **kwargs), dying


def _reopened(dying: _Dying, **kwargs) -> FDisk:
    """What a restarted process opens on the dead disk's kernel."""
    return FDisk("d", CAP, BLK, fs=dying.kernel, **kwargs)


def test_crash_point_matrix_is_exhaustive():
    """Every named crash point is exercised by some scenario below."""
    covered = set(WRITE_OUTCOME) | set(ERASE_OUTCOME) | set(BATCH_OUTCOME)
    assert covered == set(_Dying.POINTS)
    assert set(PAIR_OUTCOME) == set(_Dying.POINTS)
    assert len(_Dying.POINTS) <= 9


def _seed(disk) -> None:
    disk.write(1, b"one")
    disk.write(2, b"two-v1")
    disk.write(3, b"three")
    disk.write(4, b"four")
    disk.write(2, b"two-v2")  # acked overwrite


def _value(disk, block_no):
    try:
        return disk.read(block_no)
    except NoSuchBlock:
        return None


def _assert_acked(disk, acked=ACKED, skip=()) -> None:
    for block_no, payload in acked.items():
        if block_no in skip:
            continue
        assert _value(disk, block_no) == payload, f"acked block {block_no} lost"


def _until_death(steps):
    """Run ``(op, on_ack)`` steps until one dies; returns the dying step's
    index.  Every step before it was acknowledged."""
    for i, (op, on_ack) in enumerate(steps):
        try:
            op()
        except ProcessDied:
            return i
        on_ack()
    pytest.fail("the armed crash point was never reached")


# -- crash states, enumerated ------------------------------------------------

STATE_LIMIT = 800  # segment limit of the scripts: each rotates or cleans


def _pad(tag: bytes) -> bytes:
    """A 200-byte payload: frames of this size cross sector boundaries."""
    return tag.ljust(200, b".")


# Each script is a list of FDisk calls, ``(method, *args)``.
SCRIPTS = {
    "write": [("write", 1, _pad(b"a")), ("write", 2, _pad(b"b")),
              ("write", 1, _pad(b"a2"), 7)],
    "write_many": [
        ("write_many", [(1, _pad(b"a")), (2, _pad(b"b")), (3, b"c"), (5, _pad(b"e"))],
         {1: 7, 2: 7}),
        ("write_many", [(2, _pad(b"b2")), (4, _pad(b"d")), (6, _pad(b"f"))], {4: 8}),
    ],
    "erase": [("write", 1, _pad(b"a"), 7), ("write", 2, _pad(b"b")),
              ("erase", 1, True), ("erase", 2, False)],
    "set_owner": [("set_owner", 3, 7), ("set_owner", 4, 8), ("clear_owner", 3),
                  ("set_owner", 5, 9, False), ("write", 5, b"e")],
    "add_intention": [("add_intention", "write", 7, 5, b"page"),
                      ("add_intention", "free", 7, 6, b"", False),
                      ("add_intention", "reserve", 8, 9), ("ack_intentions", 2)],
    "rotation": [("set_owner", 1, 7), ("add_intention", "write", 7, 2, _pad(b"x") * 3)]
                + [("write", b, _pad(b"r%d" % b)) for b in range(1, 6)]
                + [("ack_intentions", 1), ("write", 6, _pad(b"r6")), ("checkpoint",)],
    "cleaning": [("write", 2, _pad(b"cold"), 7)]
                + [("write", 1, _pad(b"hot%d" % i)) for i in range(9)]
                + [("checkpoint",), ("write", 1, _pad(b"hot"))],
}


class _State:
    """What a disk holds: blocks, owner map, intentions list."""

    def __init__(self, blocks=None, owners=None, intentions=None) -> None:
        self.blocks = dict(blocks or {})
        self.owners = dict(owners or {})
        self.intentions = list(intentions or [])

    def copy(self) -> "_State":
        return _State(self.blocks, self.owners, self.intentions)

    def records(self, step) -> list:
        """``step``'s journal records, in append order, as state updates."""
        name, *args = step
        if name == "write":  # write(block, data, owner=None) is a one-block batch
            block_no, data, *owner = args
            name, args = "write_many", ([(block_no, data)], {block_no: a for a in owner})
        if name == "write_many":
            writes, owners = args
            return [lambda s, b=b, a=a: s.owners.__setitem__(b, a) for b, a in owners.items()] + [
                lambda s, b=b, d=d: s.blocks.__setitem__(b, d) for b, d in writes
            ]
        if name == "erase":
            block_no, disown = args
            return [lambda s: s.owners.pop(block_no, None)] * disown + [
                lambda s: s.blocks.pop(block_no, None)
            ]
        if name == "set_owner":
            return [lambda s: s.owners.__setitem__(args[0], args[1])]
        if name == "clear_owner":
            return [lambda s: s.owners.pop(args[0], None)]
        if name == "add_intention":
            kind, account, block_no, data = (list(args) + [b""])[:4]
            return [lambda s: s.intentions.append((kind, account, block_no, data))]
        if name == "checkpoint":
            return []
        assert name == "ack_intentions"
        return [lambda s: s.intentions.__delitem__(slice(args[0]))]

    def outcomes(self, steps) -> list["_State"]:
        """Every state ``steps`` not yet synced may leave: a prefix of
        their records."""
        states = [self.copy()]
        for step in steps:
            for record in self.records(step):
                states.append(states[-1].copy())
                record(states[-1])
        return states

    def __eq__(self, other) -> bool:
        return (self.blocks, self.owners, self.intentions) == (
            other.blocks, other.owners, other.intentions
        )

    def __repr__(self) -> str:
        return f"_State({self.blocks!r}, {self.owners!r}, {self.intentions!r})"


def _held(disk: FDisk) -> _State:
    blocks = {b: disk.read(b) for b in range(1, CAP + 1) if disk.holds(b)}
    return _State(blocks, disk.recovered_owners(), disk.recovered_intentions())


class _AckProbe:
    """A kernel that, at each operation's first sync — its ack point —
    checks that the disk still serves only acknowledged state."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.disk = None
        self.acked = None  # what the disk may serve until the next sync

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def fsync(self, fd):
        if self.acked is not None:
            acked, self.acked = self.acked, None
            assert _held(self.disk) == acked, "served before its ack-point sync"
        return self.kernel.fsync(fd)

    fdatasync = fsync


def _unsynced(step) -> bool:
    """A metadata call told not to sync: acknowledged by the next sync."""
    return step[0] in ("set_owner", "clear_owner", "add_intention") and step[-1] is False


def _run(script, fs) -> list[_State]:
    """Run ``script`` on a fresh disk until the kernel dies; returns the
    states recovery may find: the state at the last sync with a record
    prefix of every call made since."""
    synced, since = _State(), []
    try:
        disk = fs.disk = FDisk("d", CAP, BLK, journal_limit=STATE_LIMIT, fs=fs)
        for step in script:
            fs.acked = synced.outcomes(since)[-1]
            since.append(step)
            getattr(disk, step[0])(*step[1:])
            if not _unsynced(step):
                synced, since = synced.outcomes(since)[-1], []
    except ProcessDied:
        pass
    return synced.outcomes(since)


def _crash_states(script):
    """Every crash state of ``script``: a kernel that died after each
    prefix of its calls, by process death and by power loss, with the
    write in flight whole or torn at each sector boundary inside it.
    Yields ``(kernel, possible states, torn)``."""
    probe = _AckProbe(Kernel())
    _run(script, probe)  # also checks every ack point, uncrashed
    for calls in range(probe.kernel.calls + 1):
        for power_loss in (False, True):
            kernel = _AckProbe(Kernel())
            kernel.crash_after(calls, power_loss)
            possible = _run(script, kernel)
            if kernel.died_in is None:
                kernel.crash(power_loss)  # the script finished: die after it
            yield kernel.kernel, possible, False
            name, at, length = kernel.died_in or ("", 0, 0)
            for boundary in range((at // SECTOR + 1) * SECTOR, at + length, SECTOR):
                if name == "write":
                    kernel = _AckProbe(Kernel())
                    kernel.crash_after(calls, power_loss, torn=boundary - at)
                    yield kernel.kernel, _run(script, kernel), True


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_every_crash_state_recovers_the_acknowledged_state(script):
    """Recovery finds every acknowledged operation, the one in flight as a
    record prefix, and nothing no script wrote; what it found survives a
    power loss right after it; and the recovered log keeps working
    through another rotation and cleaning pass."""
    states = tears = 0
    for kernel, possible, torn in _crash_states(SCRIPTS[script]):
        states += 1
        tears += torn
        found = _held(FDisk("d", CAP, BLK, journal_limit=STATE_LIMIT, fs=kernel))
        assert found in possible, (kernel.died_in, found, possible)
        # What recovery found is acknowledged from now on: power loss right
        # after it loses none of it.
        kernel.crash(power_loss=True)
        disk = FDisk("d", CAP, BLK, journal_limit=STATE_LIMIT, fs=kernel)
        assert _held(disk) == found, kernel.died_in
        # Every segment starts with its head snapshot: cleaning the one
        # before it drops only records that snapshot supersedes.
        assert all(segment.head for segment in disk._segments), kernel.died_in
        for i in range(8):
            disk.write(9, _pad(b"after-%d" % i))
        found.blocks[9] = _pad(b"after-7")
        disk.close()
        assert _held(FDisk("d", CAP, BLK, journal_limit=STATE_LIMIT, fs=kernel)) == found
    print(f"{script}: {states} crash states, {tears} of them torn writes")
    assert states > 40


@pytest.mark.parametrize("point", sorted(WRITE_OUTCOME))
@pytest.mark.parametrize("target", ["overwrite", "fresh"])
def test_write_crash_recovers_prefix(point, target):
    for (mode, power_loss), outcome in zip(MODES, WRITE_OUTCOME[point]):
        disk, dying = _dying_disk(journal_limit=LIMIT)
        _seed(disk)
        block_no = 2 if target == "overwrite" else 5
        acked = dict(ACKED)
        values = [b"in-flight-%d" % i for i in range(100)]
        dying.arm(point, power_loss=power_loss)
        died = _until_death(
            (
                lambda v=v: disk.write(block_no, v),
                lambda v=v: acked.__setitem__(block_no, v),
            )
            for v in values
        )
        assert dying.dead

        recovered = _reopened(dying, journal_limit=LIMIT)
        _assert_acked(recovered, acked, skip={block_no})
        expected = values[died] if outcome == "new" else acked.get(block_no)
        assert _value(recovered, block_no) == expected, mode
        recovered.close()


@pytest.mark.parametrize("point", sorted(ERASE_OUTCOME))
def test_erase_crash_recovers_prefix(point):
    for (mode, power_loss), outcome in zip(MODES, ERASE_OUTCOME[point]):
        disk, dying = _dying_disk(journal_limit=LIMIT)
        _seed(disk)
        acked = dict(ACKED)
        victims = [2, *range(10, 50)]
        for block_no in victims[1:]:
            disk.write(block_no, b"filler-%d" % block_no)
            acked[block_no] = b"filler-%d" % block_no
        dying.arm(point, power_loss=power_loss)
        died = _until_death(
            (lambda b=b: disk.erase(b), lambda b=b: acked.pop(b)) for b in victims
        )

        recovered = _reopened(dying, journal_limit=LIMIT)
        victim = victims[died]
        _assert_acked(recovered, acked, skip={victim})
        for gone in victims[:died]:
            assert not recovered.holds(gone)
        if outcome == "present":
            assert recovered.read(victim) == acked[victim], mode
        else:
            assert _value(recovered, victim) is None, mode
            assert not recovered.holds(victim)
        recovered.close()


def _batch(round_: int) -> list[tuple[int, bytes]]:
    return [
        (5, b"batch-five-%d" % round_),
        (6, b"batch-six-%d" % round_),
        (2, b"two-v3-%d" % round_),
    ]


@pytest.mark.parametrize("point", sorted(BATCH_OUTCOME))
def test_write_many_crash_recovers_batch_prefix(point):
    for (mode, power_loss), applied in zip(MODES, BATCH_OUTCOME[point]):
        disk, dying = _dying_disk(journal_limit=LIMIT)
        _seed(disk)
        acked = dict(ACKED)
        dying.arm(point, power_loss=power_loss)
        died = _until_death(
            (lambda r=r: disk.write_many(_batch(r)), lambda r=r: acked.update(_batch(r)))
            for r in range(100)
        )

        recovered = _reopened(dying, journal_limit=LIMIT)
        batch = _batch(died)
        _assert_acked(recovered, acked, skip={b for b, _ in batch[:applied]})
        for i, (block_no, payload) in enumerate(batch):
            if i < applied:
                assert recovered.read(block_no) == payload, mode
            else:
                # untouched: the last acked value, or still absent
                assert _value(recovered, block_no) == acked.get(block_no), mode
        recovered.close()


@pytest.mark.parametrize("point", sorted(PAIR_OUTCOME))
def test_allocate_write_crash_never_leaves_data_without_owner(point):
    for (mode, power_loss), applied in zip(MODES, PAIR_OUTCOME[point]):
        disk, dying = _dying_disk(journal_limit=LIMIT)
        server = BlockServer("bs", disk)
        owned = {}

        def allocate_write(block_no: int) -> None:
            if block_no % 2:
                # Unarmed housekeeping: freed blocks are the dead bytes
                # that make the cleaner run under the armed requests.
                dying.disarm()
                server.free(ACCOUNT, block_no - 1)
                del owned[block_no - 1]
            dying.arm(point, power_loss=power_loss)
            server.write_many(
                ACCOUNT, [(block_no, b"page-%d" % block_no)], adopt=True
            )

        died = _until_death(
            (
                lambda b=b: allocate_write(b),
                lambda b=b: owned.__setitem__(b, b"page-%d" % b),
            )
            for b in range(2, CAP)
        )

        recovered = _reopened(dying, journal_limit=LIMIT)
        reborn = BlockServer("bs", recovered)
        for block_no, payload in owned.items():
            assert reborn.read(ACCOUNT, block_no) == payload
        in_flight = died + 2
        assert (reborn.owner_of(in_flight) == ACCOUNT) == (applied >= 1), mode
        assert _value(recovered, in_flight) == (
            b"page-%d" % in_flight if applied == 2 else None
        ), mode
        recovered.close()


@pytest.mark.parametrize("point", sorted(PAIR_OUTCOME))
def test_free_crash_never_erases_an_owned_block(point):
    for (mode, power_loss), applied in zip(MODES, PAIR_OUTCOME[point]):
        disk, dying = _dying_disk(journal_limit=LIMIT)
        server = BlockServer("bs", disk)
        blocks = list(range(1, 50))
        for block_no in blocks:
            server.write_many(
                ACCOUNT, [(block_no, b"page-%d" % block_no)], adopt=True
            )
        freed = set()
        dying.arm(point, power_loss=power_loss)
        died = _until_death(
            (lambda b=b: server.free(ACCOUNT, b), lambda b=b: freed.add(b))
            for b in blocks
        )

        recovered = _reopened(dying, journal_limit=LIMIT)
        reborn = BlockServer("bs", recovered)
        in_flight = blocks[died]
        for block_no in blocks:
            if block_no in freed:
                assert reborn.owner_of(block_no) is None
                assert not recovered.holds(block_no)
            elif block_no != in_flight:
                assert reborn.read(ACCOUNT, block_no) == b"page-%d" % block_no
        assert (reborn.owner_of(in_flight) is None) == (applied >= 1), mode
        assert recovered.holds(in_flight) == (applied < 2), mode
        recovered.close()


NIL4 = b"\x00" * 4


def _ref(block_no: int) -> bytes:
    return block_no.to_bytes(4, "big")


@pytest.mark.parametrize("victim", ["companion", "origin"])
@pytest.mark.parametrize("point", sorted(BATCH_OUTCOME))
def test_commit_batch_crash_never_keeps_the_reference_without_its_pages(
    point, victim
):
    """A commit as the block tier sees it: one ``write_many`` of the new
    version's pages plus the test-and-set of the base's commit reference.
    Whichever half dies, wherever, in either way, a disk may come back
    with pages whose reference was never set — never with a reference to
    pages it does not hold (§5.2: pages before reference)."""
    from repro.block.stable import StableServer
    from repro.sim.network import Network
    from repro.sim.rpc import RpcEndpoint

    for (mode, power_loss), applied in zip(MODES, BATCH_OUTCOME[point]):
        net = Network()
        kernels = {name: _Dying(Kernel()) for name in ("blockA", "blockB")}
        disks = {
            name: FDisk("d", CAP, BLK, journal_limit=LIMIT, name=name, fs=fs)
            for name, fs in kernels.items()
        }
        a = StableServer("blockA", "blockB", disks["blockA"], net)
        b = StableServer("blockB", "blockA", disks["blockB"], net)
        ends = [RpcEndpoint(net, "blockA", 0x77, a), RpcEndpoint(net, "blockB", 0x77, b)]
        doomed = "blockB" if victim == "companion" else "blockA"
        dying = kernels[doomed]
        tip = a.cmd_allocate_write(ACCOUNT, NIL4 + b"version 0")
        versions: dict[int, dict[int, bytes]] = {}  # version page -> its pages
        chain = [tip]

        def commit(round_: int) -> None:
            (data,), (page,) = a.cmd_allocate(ACCOUNT), a.cmd_allocate(ACCOUNT)
            versions[page] = {
                data: b"data of %d" % round_,
                page: NIL4 + b"version %d" % round_,
            }
            dying.arm(point, power_loss=power_loss)
            (result,) = a.cmd_write_many(
                ACCOUNT, list(versions[page].items()), [(chain[-1], 0, NIL4, _ref(page))]
            )
            dying.disarm()
            assert result.success

        died = _until_death(
            (lambda r=r: commit(r), lambda: chain.append(max(versions)))
            for r in range(1, 24)
        )
        in_flight = max(versions)
        assert len(chain) == died + 1 and in_flight not in chain

        for name, fs in kernels.items():
            disks[name].close()
            disk = FDisk("d", CAP, BLK, journal_limit=LIMIT, fs=fs.kernel)
            # Every acknowledged commit is whole, and linked.
            for base, page in zip(chain, chain[1:]):
                assert disk.read(base)[:4] == _ref(page), (mode, name)
                for block_no, payload in versions[page].items():
                    assert disk.read(block_no)[4:] == payload[4:], (mode, name)
            # The one in flight: a prefix of [data page, version page, swap].
            # The companion is written first; the origin only after it.
            whole = name != doomed and victim == "origin"
            none = name != doomed and victim == "companion"
            kept = 3 if whole else 0 if none else applied
            landed = [
                _value(disk, block_no) == payload
                for block_no, payload in versions[in_flight].items()
            ] + [disk.read(chain[-1])[:4] == _ref(in_flight)]
            assert landed == [i < kept for i in range(3)], (mode, name, landed)
            assert disk.read(chain[-1])[:4] in (NIL4, _ref(in_flight))
            disk.close()


def test_ack_point_semantics():
    """An operation that RETURNED was acked and must survive — countdown=2
    lets one write pass through the armed point before the next one dies."""
    disk, dying = _dying_disk()
    _seed(disk)
    dying.arm("journal.before_sync", countdown=2, power_loss=True)
    disk.write(5, b"acked")  # reaches the point once, survives
    with pytest.raises(ProcessDied):
        disk.write(6, b"never-acked")

    recovered = _reopened(dying)
    _assert_acked(recovered)
    assert recovered.read(5) == b"acked"
    assert _value(recovered, 6) is None
    recovered.close()


def test_dead_disk_refuses_everything():
    disk, dying = _dying_disk()
    disk.write(1, b"x")
    dying.arm("journal.after_sync")
    with pytest.raises(ProcessDied):
        disk.write(2, b"y")
    for op in (
        lambda: disk.read(1),
        lambda: disk.write(3, b"z"),
        lambda: disk.erase(1),
        lambda: disk.write_many([(3, b"z")]),
    ):
        with pytest.raises(ProcessDied):
            op()
    disk.close()  # closing the dead is a no-op, not an error


def test_owner_map_and_intentions_survive_crash():
    disk, dying = _dying_disk(journal_limit=64)
    disk.write(1, b"x")
    disk.set_owner(1, 7)
    disk.set_owner(9, 8)
    disk.clear_owner(9)
    disk.add_intention("write", 7, 9, b"payload")
    disk.add_intention("reserve", 7, 10)
    disk.add_intention("free", 7, 11)
    disk.ack_intentions(1)  # the companion applied the first one
    assert disk._active.seq > 1  # the snapshot path, not just replay
    dying.arm("journal.before_sync", power_loss=True)
    with pytest.raises(ProcessDied):
        disk.write(2, b"y")

    recovered = _reopened(dying, journal_limit=64)
    assert recovered.recovered_owners() == {1: 7}
    assert recovered.recovered_intentions() == [
        ("reserve", 7, 10, b""),
        ("free", 7, 11, b""),
    ]
    recovered.close()


def test_checkpoint_then_crash_keeps_compacted_state():
    disk, dying = _dying_disk(journal_limit=LIMIT)
    first_segment = disk._active.path
    disk.set_owner(3, 9)
    disk.add_intention("write", 9, 3, b"later")
    _seed(disk)
    for i in range(30):
        disk.write(4, b"churn-%d" % i)  # dead bytes for the cleaner
    disk.write(4, b"four")
    disk.checkpoint()
    assert disk.journal_compactions >= 1
    # The segment that held the OWNER and INTENT records is gone: only
    # the snapshots carry them now.
    assert first_segment.name not in dying.listdir(first_segment.parent)
    dying.arm("journal.before_sync", power_loss=True)
    with pytest.raises(ProcessDied):
        disk.write(5, b"post-checkpoint")

    recovered = _reopened(dying, journal_limit=LIMIT)
    _assert_acked(recovered)
    assert _value(recovered, 5) is None
    assert recovered.recovered_owners() == {3: 9}
    assert recovered.recovered_intentions() == [("write", 9, 3, b"later")]
    recovered.close()


def test_torn_tail_is_truncated_once():
    disk, dying = _dying_disk()
    _seed(disk)
    dying.arm("journal.mid_append")
    with pytest.raises(ProcessDied):
        disk.write(5, b"torn")

    first = _reopened(dying)
    assert first.truncated_bytes > 0  # the torn frame header was cut away
    assert first.recovered_records == 6  # the head snapshot + the seed writes
    _assert_acked(first)
    first.close()

    # The truncation is durable: a second restart sees a clean log.
    second = _reopened(dying)
    assert second.truncated_bytes == 0
    assert second.recovered_records == 6
    second.close()


def test_write_many_costs_one_sync(tmp_path):
    disk = FDisk(tmp_path / "d", CAP, BLK)
    _seed(disk)
    before = disk.fsyncs
    disk.write_many(_batch(0))
    assert disk.fsyncs == before + 1  # the group-commit lever
    for block_no, payload in _batch(0):
        assert disk.read(block_no) == payload
    disk.close()


def test_one_request_is_one_append_and_one_sync(tmp_path):
    """allocate + write, and disown + erase, ride one journal append."""
    disk = FDisk(tmp_path / "d", CAP, BLK)
    server = BlockServer("bs", disk)
    for request in (
        lambda: server.write_many(ACCOUNT, [(1, b"fresh")], adopt=True),
        lambda: server.write_many(ACCOUNT, [(9, b"a"), (10, b"b")], adopt=True),
        lambda: server.free(ACCOUNT, 9),
    ):
        syncs, appends = disk.fsyncs, disk.journal_appends
        request()
        assert disk.fsyncs == syncs + 1
        assert disk.journal_appends > appends + 1  # several records, one sync
    assert server.owner_of(10) == ACCOUNT and server.owner_of(9) is None
    disk.close()


def test_reopen_validates_geometry(tmp_path):
    disk = FDisk(tmp_path / "d", CAP, BLK)
    disk.write(1, b"x")
    disk.close()
    with pytest.raises(ValueError):
        FDisk(tmp_path / "d", CAP * 2, BLK)
    with pytest.raises(ValueError):
        FDisk(tmp_path / "d", CAP, BLK * 2)


def test_version_1_directory_is_refused(tmp_path):
    """A journal.log + blocks/ directory is refused, not misread as empty."""
    root = tmp_path / "d"
    (root / "blocks").mkdir(parents=True)
    (root / "journal.log").touch()
    (root / "meta.json").write_text(json.dumps(
        {"capacity": CAP, "block_size": BLK, "write_once": False, "version": 1}
    ))
    with pytest.raises(UnsupportedDiskLayout):
        FDisk(root, CAP, BLK)


def test_measure_sync_cost_is_positive(tmp_path):
    cost = probe_sync_primitives(tmp_path, samples=4)["fsync"]
    assert cost > 0


# -- rotation and cleaning ---------------------------------------------------


def _log_bytes(disk) -> int:
    return sum(path.stat().st_size for path in disk._log_dir.iterdir())


def _live_bytes(disk) -> int:
    return sum(segment.live for segment in disk._segments)


def test_cleaning_pass_copies_at_most_one_segment(tmp_path):
    limit = 400
    disk = FDisk(tmp_path / "d", CAP, BLK, journal_limit=limit)
    biggest_frame = 8 + 5 + 40
    for i in range(600):
        block_no = 1 + (i * 7) % 24
        passes, copied = disk.journal_compactions, disk.cleaned_bytes
        disk.write(block_no, b"%03d" % i + bytes(i % 37))
        # One mutation runs at most one pass, and a pass moves no more
        # than the one segment it retires.
        assert disk.journal_compactions - passes <= 1
        assert disk.cleaned_bytes - copied <= limit + biggest_frame
        assert all(s.size <= 2 * limit for s in disk._segments)
    assert disk.journal_compactions > 5
    for i in range(600 - 24, 600):
        assert disk.read(1 + (i * 7) % 24) == b"%03d" % i + bytes(i % 37)
    disk.close()


def test_log_size_is_bounded_after_cleaning(tmp_path):
    limit = 400
    disk = FDisk(tmp_path / "d", CAP, BLK, journal_limit=limit)
    for i in range(400):
        disk.write(1 + i % 8, b"v%03d" % i)
        if i % 50 == 49:
            disk.erase(1 + (i // 50) % 8)
        if i % 97 == 96:
            disk.checkpoint()
        if not disk._cleanable():
            assert _log_bytes(disk) <= 2 * _live_bytes(disk) + 2 * limit
    disk.checkpoint()  # cleans until nothing is eligible
    assert _log_bytes(disk) <= 2 * _live_bytes(disk) + 2 * limit
    # Unlinked segments are really gone: disk and memory agree on the log.
    assert sorted(p.name for p in disk._log_dir.iterdir()) == [
        s.path.name for s in disk._segments
    ]
    disk.close()


def test_mostly_live_store_is_never_copied(tmp_path):
    """Distinct blocks past the segment limit: rotation, but no cleaning —
    the bulk-load shape must not pay write amplification."""
    disk = FDisk(tmp_path / "d", CAP, BLK, journal_limit=400)
    for block_no in range(1, CAP + 1):
        disk.write(block_no, bytes(100))
    assert len(disk._segments) > 10
    assert disk.journal_compactions == 0 and disk.cleaned_bytes == 0
    disk.close()


def test_cleaner_keeps_an_unverifiable_block_lost_not_stale(tmp_path):
    """A record that rots before the cleaner reaches it is not copied and
    must not vanish with its segment: the block stays held and reads
    CorruptBlock — across restarts — until the companion path rewrites it."""
    disk = FDisk(tmp_path / "d", CAP, BLK, journal_limit=LIMIT)
    disk.write(1, b"cold-v1")
    disk.write(1, b"cold-v2")
    disk.write(3, b"bystander")
    disk.corrupt(1)
    first_segment = disk._segments[0].path
    for i in range(40):
        disk.write(2, b"hot-%d" % i)
    assert not first_segment.exists()  # cleaned, damaged record and all
    for handle in (disk, FDisk(tmp_path / "d", CAP, BLK, journal_limit=LIMIT)):
        assert handle.holds(1)
        with pytest.raises(CorruptBlock):
            handle.read(1)
        assert handle.read(3) == b"bystander"
    handle.write(1, b"healed")
    assert handle.read(1) == b"healed"
    handle.close()
    disk.close()


def _flip_record_byte(disk, block_no, at) -> None:
    """Flip byte ``at`` of the frame holding ``block_no``'s newest record
    (0–3 length, 4–7 CRC, 8 type, 9–12 block number, 13… payload)."""
    segment, offset, _, _ = disk._index[block_no]
    raw = bytearray(segment.path.read_bytes())
    raw[offset + at] ^= 0x01
    segment.path.write_bytes(bytes(raw))


@pytest.mark.parametrize("sealed", [True, False], ids=["sealed", "newest"])
def test_rotted_block_number_never_serves_the_older_version(tmp_path, sealed):
    """Block 5's acknowledged v2 rots so that its frame names block 4.  The
    frame's CRC fails, but its head cannot be trusted either: block 5 must
    not fall back to v1 (recovery contract case 3)."""
    root = tmp_path / "d"
    disk = FDisk(root, CAP, BLK)
    disk.write(4, b"four")
    disk.write(5, b"five-v1")
    disk.checkpoint()
    disk.write(5, b"five-v2")
    disk.write(6, b"six")  # a valid record follows: not a torn tail
    if sealed:
        disk.checkpoint()
    _flip_record_byte(disk, 5, 12)
    disk.close()

    recovered = FDisk(root, CAP, BLK)
    for block_no in (4, 5):
        with pytest.raises(CorruptBlock):
            recovered.read(block_no)
    assert recovered.read(6) == b"six"
    # The companion path's repairing writes clear it, across restarts too.
    recovered.write(4, b"four")
    recovered.write(5, b"five-v2")
    recovered.close()
    again = FDisk(root, CAP, BLK)
    assert [again.read(b) for b in (4, 5, 6)] == [b"four", b"five-v2", b"six"]
    again.close()


def test_a_rotted_head_at_the_tail_vouches_for_nothing_and_costs_nothing(tmp_path):
    """The newest segment holds nothing but its head snapshot, and a bit of
    the seal in it — the sealed segment's size — rots.  The frame fails
    its CRC, so recovery cuts it away as a torn tail and believes none of
    it: the segment it sealed is served whole, not suspected."""
    root = tmp_path / "d"
    disk = FDisk(root, CAP, BLK)
    disk.write(1, b"one")
    disk.write(2, b"two")
    disk.checkpoint()
    head = disk._active.path
    disk.close()
    raw = bytearray(head.read_bytes())
    raw[8 + 1 + 7] ^= 0x01  # frame header, record type, then the >Q size
    head.write_bytes(bytes(raw))

    recovered = FDisk(root, CAP, BLK)
    assert recovered.truncated_bytes == len(raw)
    assert [recovered.read(b) for b in (1, 2)] == [b"one", b"two"]
    recovered.close()


def test_payload_rot_in_a_sealed_segment_costs_that_block_only(tmp_path):
    """The seal in the next segment's head vouches for every frame head of
    a sealed segment, so a CRC failure there is payload damage: after a
    restart the block it names is corrupt and its older neighbours are
    served as before (case 2).  In the unsealed newest segment nothing
    vouches yet, and the neighbours are suspect as well."""
    root = tmp_path / "d"
    disk = FDisk(root, CAP, BLK)
    disk.write(1, b"old-neighbour")
    disk.write(2, b"victim")
    disk.write(3, b"young-neighbour")
    _flip_record_byte(disk, 2, 13)
    disk.close()
    unsealed = FDisk(root, CAP, BLK)
    for block_no in (1, 2):
        with pytest.raises(CorruptBlock):
            unsealed.read(block_no)
    assert unsealed.read(3) == b"young-neighbour"
    unsealed.close()

    root = tmp_path / "e"
    disk = FDisk(root, CAP, BLK)
    disk.write(1, b"old-neighbour")
    disk.write(2, b"victim")
    disk.write(3, b"young-neighbour")
    disk.checkpoint()
    _flip_record_byte(disk, 2, 13)
    disk.close()
    sealed = FDisk(root, CAP, BLK)
    with pytest.raises(CorruptBlock):
        sealed.read(2)
    assert sealed.read(1) == b"old-neighbour"
    assert sealed.read(3) == b"young-neighbour"
    sealed.close()


def test_owned_block_whose_only_record_is_gone_reads_corrupt(tmp_path):
    """A sealed segment vanishes and takes the only record of an owned
    block with it.  The owner map in the next snapshot still knows the
    block, so it is held and CorruptBlock — which the companion path
    heals — not "never written"."""
    root = tmp_path / "d"
    disk = FDisk(root, CAP, BLK)
    disk.write(1, b"elsewhere", owner=ACCOUNT)
    disk.checkpoint()
    disk.write(2, b"only-copy", owner=ACCOUNT)
    lost_segment = disk._index[2][0].path
    disk.checkpoint()
    disk.set_owner(3, ACCOUNT)  # reserved, never written
    disk.close()
    lost_segment.unlink()

    for _ in range(2):  # the LOST records written at recovery are durable
        recovered = FDisk(root, CAP, BLK)
        assert recovered.holds(2)
        for block_no in (1, 2, 3):
            with pytest.raises(CorruptBlock):
                recovered.read(block_no)
        recovered.close()
    recovered = FDisk(root, CAP, BLK)
    recovered.write(2, b"only-copy")
    assert recovered.read(2) == b"only-copy"
    recovered.close()


def test_reader_outlives_the_cleaning_of_its_segment(tmp_path):
    """A lookup made before a cleaning pass stays readable after it (the
    descriptor closes late), and once the descriptor is gone the read
    re-looks the block up instead of failing."""
    disk = FDisk(tmp_path / "d", CAP, BLK, journal_limit=LIMIT)
    disk.write(1, b"cold")
    stale = disk._index[1]
    for i in range(40):
        disk.write(2, b"hot-%d" % i)
    assert disk.journal_compactions > 0 and disk._index[1] != stale
    assert not stale[0].path.exists()
    # Whatever the stale entry's descriptor now is — retired, closed, or
    # reused by a newer segment — it never yields wrong bytes...
    try:
        assert disk._read_frame(1, stale)[13:] == b"cold"
    except CorruptBlock:
        pass
    assert disk.read(1) == b"cold"  # ...and the read path looks up afresh
    disk.close()


def test_concurrent_reader_sees_only_acknowledged_bytes(tmp_path):
    """Reads take no lock: while a writer rotates and cleans underneath,
    a reader sees the value before or after each overwrite, nothing else."""
    disk = FDisk(tmp_path / "d", CAP, BLK, journal_limit=LIMIT)
    blocks = range(1, 9)
    for block_no in blocks:
        disk.write(block_no, b"%d:0" % block_no)
    version = {block_no: 0 for block_no in blocks}  # last acknowledged
    stop = threading.Event()
    seen, bad = [0], []

    def reader() -> None:
        while not stop.is_set():
            for block_no in blocks:
                low = version[block_no]
                data = disk.read(block_no)
                high = version[block_no]
                owner, _, number = data.partition(b":")
                # An overwrite may be acknowledged on disk a moment before
                # the writer thread records it: allow one version ahead.
                if int(owner) != block_no or not low <= int(number) <= high + 1:
                    bad.append((block_no, low, data, high))
                seen[0] += 1

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(400):
            block_no = 1 + i % 8
            disk.write(block_no, b"%d:%d" % (block_no, version[block_no] + 1))
            version[block_no] += 1
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert not bad, bad[:3]
    assert seen[0] > 0 and disk.journal_compactions > 0
    disk.close()


# -- teardown ----------------------------------------------------------------


def test_build_stop_cycles_leak_no_descriptors(tmp_path):
    """Every in-process restart closes its disks: twenty build/stop cycles
    on one data directory leave the descriptor table as it was."""
    from repro.net import build_tcp_cluster

    def cycle() -> None:
        cluster = build_tcp_cluster(
            servers=1, data_dir=str(tmp_path / "data")
        )
        cluster.fs().create_file(b"x")
        cluster.stop()

    def open_descriptors() -> int:
        gc.collect()  # the transport leaves some pooled sockets to the collector
        return len(os.listdir("/proc/self/fd"))

    cycle()  # warm up whatever the process opens once and keeps
    before = open_descriptors()
    for _ in range(20):
        cycle()
    assert open_descriptors() == before


def test_close_is_idempotent_and_syncs_the_tail(tmp_path):
    disk = FDisk(tmp_path / "d", CAP, BLK)
    disk.set_owner(1, 7, sync=False)
    syncs = disk.fsyncs
    disk.close()
    assert disk.fsyncs == syncs + 1  # the unsynced OWNER record
    disk.close()
    assert disk.fsyncs == syncs + 1
    with pytest.raises(OSError):
        os.fstat(disk._active.fd)
