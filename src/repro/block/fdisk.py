"""The disk: a log-structured block store, on any file system.

§4 of the paper: "Writing a block must be an atomic action, with an
acknowledgement that is returned after the block has been stored on disk."
:class:`FDisk` acknowledges a write only after it is synced, so companion
recovery, intentions lists and the page store's version chains survive
process death and power loss.  It makes every file-system call through
one object by ``os``'s names (``FDisk.fs``): this module's ``os`` on a
real data directory, and :class:`repro.sim.kernel.Kernel` — which keeps
in memory what a crash would keep — everywhere else.  Every deployment
runs this one disk.

The disk is a **log-structured block store**: the CRC-framed redo journal
is the only on-disk copy of block data, and memory holds an index into it.
On-disk layout (one directory per disk)::

    <root>/meta.json        capacity / block size / write-once flag / version
    <root>/log/<seq>.seg    append-only segments of CRC-framed records

Durability protocol:

* The **ack point** of every mutation is one append to the active segment
  followed by one sync (:meth:`FDisk._append_records`).  Only after the
  sync returns is the index entry ``block → (segment, offset, length)``
  swapped in and the caller answered.
* ``write_many`` — and every request that produces several records
  (``OWNER`` + ``WRITE``, ``DISOWN`` + ``ERASE``) — is **one** append and
  **one** sync: an M-page flush costs one disk sync, not M.
* A read is an index lookup, one ``pread`` on the segment's long-lived
  descriptor and a check of the *on-disk* frame CRC, record type and block
  number: damage raises :class:`CorruptBlock` (never silent bytes) and the
  companion-repair path upstream heals it by appending a fresh record.
* Past ``journal_limit`` bytes the active segment is sealed and a new one
  starts with a snapshot of the owner map and the pending intentions, so
  metadata in older segments is dead and a segment's live bytes are
  exactly its indexed records.  When dead bytes outweigh live bytes by
  more than one segment, the oldest segment's live records are re-appended
  at the head and the segment is unlinked — at most one segment per pass.
* Recovery streams the segments oldest first.  A bad tail on the newest
  one is a torn write and is truncated durably; damage anywhere else
  never crashes recovery and never lets an older version of a block pass
  as current (``docs/DURABILITY.md`` states the three-case contract).

Blocks are numbered from 1 (0 is the nil reference of the version
chains).  ``write_once=True`` is optical media: no block is ever
overwritten or erased (claim C10's bench runs the whole service on it).

Block-server metadata (the owner map) and the companion intentions list
ride the same log, so :class:`~repro.block.server.BlockServer` and
:class:`~repro.block.stable.StableServer` state is rebuilt from disk alone.

Sync-cost tuning (*Characterizing Synchronous Writes in Stable Memory
Devices*, PAPERS.md): :func:`probe_sync_primitives` measures every durable
primitive the platform offers (``fsync``, ``fdatasync``, ``O_DSYNC``
writes), :func:`tune_journal_sync` points the ack-point sync at the
cheapest one that is safe for an append-only log — ``fdatasync`` flushes
the data and the size metadata needed to read it back, which is exactly
the log's durability contract.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    BlockTooLarge,
    CorruptBlock,
    DiskCrashed,
    DiskFull,
    NoSuchBlock,
    UnsupportedDiskLayout,
    WriteOnceViolation,
)
from repro.obs import NULL_RECORDER
from repro.sim.clock import LogicalClock

# Logical-tick cost of one disk operation.  A disk access is an order of
# magnitude slower than a network hop (10 ticks), as it was in 1985.
READ_TICKS = 100
WRITE_TICKS = 150

# Record framing: u32 body length + u32 crc32(body), then the body.
_FRAME = struct.Struct(">II")

# Record types (first body byte).
_REC_WRITE = 1  # >I block_no, payload
_REC_ERASE = 2  # >I block_no
_REC_OWNER = 3  # >IQ block_no, account
_REC_DISOWN = 4  # >I block_no
_REC_INTENT = 5  # >BIQ kind, block_no, account, payload
_REC_INTENT_ACK = 6  # >I count
_REC_SNAPSHOT = 7  # >Qq previous segment's seal, framed OWNER / INTENT records
_REC_LOST = 8  # >I block_no: its record could not be verified, or is gone

_BLOCK_HEAD = struct.Struct(">BI")  # WRITE / ERASE / DISOWN / LOST / INTENT_ACK
_OWNER_HEAD = struct.Struct(">BIQ")
_INTENT_HEAD = struct.Struct(">BBIQ")
_SNAPSHOT_HEAD = struct.Struct(">BQq")  # sealed size, sealed skeleton or -1

# Intention kinds (wire form of stable._Intention.kind).
_INTENT_KINDS = ("write", "reserve", "free")

# Default segment size: the active segment is sealed once it passes this.
JOURNAL_LIMIT = 8 << 20

# meta.json layout version.  1 was journal.log + one file per block.
_LAYOUT_VERSION = 2

# Recovery reads segments through a window of this many bytes.
_SCAN_CHUNK = 1 << 20


def _frame(body: bytes) -> bytes:
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def _skeleton(value: int, header: bytes, body) -> int:
    """Fold one frame's head — length, CRC, record type and block number,
    the bytes recovery attributes a damaged frame by — into a segment's
    running skeleton checksum."""
    return zlib.crc32(body[: _BLOCK_HEAD.size], zlib.crc32(header, value))


def _owner_body(block_no: int, account: int) -> bytes:
    return _OWNER_HEAD.pack(_REC_OWNER, block_no, account)


def _intent_body(kind: str, account: int, block_no: int, data: bytes) -> bytes:
    return (
        _INTENT_HEAD.pack(_REC_INTENT, _INTENT_KINDS.index(kind), block_no, account)
        + data
    )


@dataclass
class DiskStats:
    """Operation counters for cost accounting in benchmarks."""

    reads: int = 0
    writes: int = 0
    frees: int = 0
    overwrites: int = 0  # writes to an already-written block number


class _Segment:
    """One log file: its long-lived descriptor and byte accounting."""

    __slots__ = (
        "seq", "path", "fd", "size", "head", "live", "skeleton", "entry_durable"
    )

    def __init__(self, seq: int, path: Path, fd: int, size: int) -> None:
        self.seq = seq
        self.path = path
        self.fd = fd
        self.size = size
        self.head = 0  # bytes of the snapshot frame the segment starts with
        self.live = 0  # bytes of the frames the index points at
        # Checksum over every frame's head, recorded by the next segment's
        # snapshot when this one is sealed; None once recovery found damage
        # here it could not attribute (the seal then vouches for nothing).
        self.skeleton: int | None = 0
        # Whether the file's directory entry is known to be on disk; the
        # first sync of the segment is followed by a directory fsync.
        self.entry_durable = False


class FDisk:
    """``capacity`` blocks of ``block_size`` bytes in a log under ``root``.

    Every acknowledged mutation is durable: re-opening an ``FDisk`` on the
    same root and file system after process death recovers exactly the
    acknowledged state (:meth:`reopen`).  Payloads are not mirrored in
    memory — only the index (which carries the CRC of each block's
    acknowledged record) and the ever-written set.

    Besides blocks it persists the block-server owner map and the
    stable-server intentions list (``set_owner`` / ``clear_owner`` /
    ``recovered_owners`` / ``add_intention`` / ``ack_intentions`` /
    ``recovered_intentions``), which the servers adopt when they start.
    ``fs`` is the file system (default: this module's ``os`` as it is
    when the disk is built).
    """

    # Which durable primitive the ack-point sync uses: "fsync" or
    # "fdatasync".  A class attribute so :func:`tune_journal_sync` can
    # retarget every disk the testbed builds; instances may override.
    sync_primitive = "fsync"

    def __init__(
        self,
        root: str | os.PathLike,
        capacity: int,
        block_size: int,
        clock=None,
        write_once: bool = False,
        name: str = "fdisk",
        recorder=None,
        journal_limit: int = JOURNAL_LIMIT,
        fs=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("disk needs at least one block")
        self.capacity = capacity
        self.block_size = block_size
        self.write_once = write_once
        self.name = name
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.clock = clock if clock is not None else LogicalClock()
        self.stats = DiskStats()
        self.fs = fs if fs is not None else os
        self.root = Path(root)
        self.journal_limit = journal_limit
        self.fsyncs = 0
        self.journal_appends = 0
        self.journal_compactions = 0
        self.cleaned_bytes = 0
        self.recovered_records = 0
        self.truncated_bytes = 0
        self._owners: dict[int, int] = {}
        self._intentions: list[tuple[str, int, int, bytes]] = []
        # block_no -> (segment, frame offset, body length, frame CRC) of its
        # newest record; one tuple, so a lock-free reader sees all four agree.
        self._index: dict[int, tuple[_Segment, int, int, int]] = {}
        self._ever_written: set[int] = set()
        # Blocks whose newest record may have been lost to log damage:
        # they read CorruptBlock until rewritten (recovery contract case 3).
        self._suspect: set[int] = set()
        self._log_damaged = False  # recovery met damage it could not attribute
        self._io_lock = threading.RLock()
        self._log_dir = self.root / "log"
        self._segments: list[_Segment] = []  # oldest first; the last is active
        # Cleaned segments: unlinked, but a reader that looked its index
        # entry up before the swap may still pread the descriptor.  Closed
        # at the next rotation.
        self._retired: list[_Segment] = []
        self._active: _Segment | None = None
        self._synced_size = 0  # bytes of the active segment known durable
        self._closed = False
        self._open_or_recover()

    def reopen(self) -> "FDisk":
        """The disk a restarted process opens on the same files: recovery
        rebuilds the index, the owner map and the intentions list."""
        return FDisk(
            self.root, self.capacity, self.block_size, self.clock,
            self.write_once, name=self.name, recorder=self.recorder,
            journal_limit=self.journal_limit, fs=self.fs,
        )

    # -- setup / recovery ---------------------------------------------------

    def _open_or_recover(self) -> None:
        fs = self.fs
        meta_path = self.root / "meta.json"
        geometry = {
            "capacity": self.capacity,
            "block_size": self.block_size,
            "write_once": self.write_once,
        }
        try:
            fd = fs.open(meta_path, os.O_RDONLY)
        except FileNotFoundError:
            fd = None
        if fd is not None:
            try:
                meta = json.loads(fs.pread(fd, fs.fstat(fd).st_size, 0))
            finally:
                fs.close(fd)
            if meta.get("version") != _LAYOUT_VERSION:
                raise UnsupportedDiskLayout(
                    f"{self.root}: on-disk layout version {meta.get('version')!r}, "
                    f"this build reads version {_LAYOUT_VERSION} only"
                )
            for key, mine in geometry.items():
                if meta.get(key) != mine:
                    raise ValueError(
                        f"{self.root}: on-disk {key}={meta.get(key)!r} does not "
                        f"match requested {mine!r}"
                    )
            # A process that died between writing meta.json and syncing its
            # directory left the entry volatile: it is acknowledged now.
            self._fsync_dir(self.root)
            self._recover()
        else:
            # meta.json is written atomically, before the first segment: a
            # directory without it never acknowledged anything.
            fs.makedirs(self._log_dir, exist_ok=True)
            if any(name.endswith(".seg") for name in fs.listdir(self._log_dir)):
                raise UnsupportedDiskLayout(
                    f"{self.root}: log segments but no meta.json to read them by"
                )
            body = json.dumps({**geometry, "version": _LAYOUT_VERSION}).encode()
            tmp = meta_path.with_suffix(".json.tmp")
            fd = fs.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                fs.write(fd, body)
                fs.fsync(fd)
            finally:
                fs.close(fd)
            self.fsyncs += 1
            fs.replace(tmp, meta_path)
            self._fsync_dir(self.root)
        if not self._segments:
            self._open_segment(1)
        self._active = self._segments[-1]
        self._synced_size = self._active.size
        if self._active.size == 0:
            # Fresh, or a rotation that died before its snapshot landed.
            self._write_head()
        if self._log_damaged:
            self._hold_orphans()

    def _open_segment(self, seq: int) -> _Segment:
        path = self._log_dir / f"{seq:08d}.seg"
        fd = self.fs.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        segment = _Segment(seq, path, fd, self.fs.fstat(fd).st_size)
        self._segments.append(segment)
        if self.recorder.enabled:
            self.recorder.count("disk.segments")
        return segment

    def _recover(self) -> None:
        """Rebuild the index, owner map and intentions by streaming the
        segments, oldest first."""
        names = sorted(
            int(name[:-4]) for name in self.fs.listdir(self._log_dir)
            if name.endswith(".seg") and name[:-4].isdigit()
        )
        segments = [self._open_segment(seq) for seq in names]
        for segment, successor in zip(segments, segments[1:] + [None]):
            gap = successor is not None and successor.seq != segment.seq + 1
            seal = None if successor is None or gap else self._read_seal(successor)
            self._replay_segment(segment, successor is None, seal)
            if gap:
                # A segment is missing from the sequence: the newest record
                # of anything replayed so far may have been in it.
                self._suspect_before(successor, 0)
        # Whatever survived to be replayed is acknowledged state from here
        # on: make sure none of it is still volatile — not the tail a killed
        # process appended but never synced, nor a segment's directory entry.
        if segments:
            self.fs.fsync(segments[-1].fd)
            self.fsyncs += 1
        self._fsync_dir(self._log_dir)
        for segment in self._segments:
            segment.entry_durable = True
        if self.recorder.enabled:
            self.recorder.count("disk.recover.replayed", self.recovered_records)
            if self.truncated_bytes:
                self.recorder.count(
                    "disk.recover.truncated_bytes", self.truncated_bytes
                )

    def _read_seal(self, segment: _Segment) -> tuple[int, int] | None:
        """What ``segment``'s head snapshot recorded about the segment
        sealed before it — ``(size, skeleton)`` — or None if the snapshot
        does not read back intact."""
        raw = self.fs.pread(segment.fd, _FRAME.size, 0)
        if len(raw) < _FRAME.size:
            return None
        length, crc = _FRAME.unpack(raw)
        if not _SNAPSHOT_HEAD.size <= length <= segment.size - _FRAME.size:
            return None
        body = self.fs.pread(segment.fd, length, _FRAME.size)
        if zlib.crc32(body) != crc or body[0] != _REC_SNAPSHOT:
            return None
        return _SNAPSHOT_HEAD.unpack_from(body)[1:]

    def _walk(self, segment: _Segment):
        """Yield ``(offset, crc, body, intact)`` for every frame that can be
        walked, reading through a bounded window; a final ``(offset, 0,
        None, False)`` marks a point the walk cannot pass."""
        pread = self.fs.pread
        size = segment.size
        chunk, start = b"", 0
        offset = 0
        while offset < size:
            header_end = offset + _FRAME.size
            if header_end > size:
                yield offset, 0, None, False
                return
            if not start <= offset or header_end > start + len(chunk):
                chunk, start = pread(segment.fd, _SCAN_CHUNK, offset), offset
            length, crc = _FRAME.unpack_from(chunk, offset - start)
            end = header_end + length
            if length == 0 or end > size:
                yield offset, 0, None, False
                return
            if end > start + len(chunk):
                want = max(_SCAN_CHUNK, end - offset)
                chunk, start = pread(segment.fd, want, offset), offset
                if len(chunk) < end - offset:
                    yield offset, 0, None, False  # the file shrank under us
                    return
            body = memoryview(chunk)[header_end - start : end - start]
            yield offset, crc, body, zlib.crc32(body) == crc
            offset = end

    def _replay_segment(
        self, segment: _Segment, newest: bool, seal: tuple[int, int] | None
    ) -> None:
        """Replay one segment.  ``seal`` is what the next segment's head
        recorded about this one; a sealed segment that still matches it has
        every frame *head* intact, so a frame that fails its CRC there is
        payload damage to the block it names and to nothing else."""
        # Frames that failed their CRC but could be stepped over, held back
        # until an intact frame proves they are not the torn tail.
        damaged: list[tuple[int, int, int, bytes]] = []
        damage_at = None  # where the last damage inside the log begins
        skeleton = held = 0
        stop = segment.size
        for offset, crc, body, intact in self._walk(segment):
            if body is None:
                stop = offset
                break
            if not damaged:
                held = skeleton  # the skeleton if the tail is cut here
            skeleton = _skeleton(skeleton, _FRAME.pack(len(body), crc), body)
            if not intact:
                damaged.append((offset, crc, len(body), bytes(body[:5])))
                continue
            for frame in damaged:
                self._index_damaged(segment, *frame)
                damage_at = frame[0]
            damaged.clear()
            self._apply_record(segment, offset, crc, body)
            self.recovered_records += 1
        segment.skeleton = skeleton
        tail = damaged[0][0] if damaged else stop
        if newest and tail < segment.size:
            # Case 1: nothing valid follows — a torn write.  Cut it away
            # durably so a second restart sees a clean log.
            self.truncated_bytes += segment.size - tail
            self.fs.ftruncate(segment.fd, tail)
            self.fs.fsync(segment.fd)
            self.fsyncs += 1
            segment.size = tail
            segment.skeleton = held if damaged else skeleton
        else:
            for frame in damaged:
                self._index_damaged(segment, *frame)
                damage_at = frame[0]
            if stop < segment.size:
                damage_at = stop  # unwalkable from here on
        if seal is not None:
            size, sealed = seal  # sealed is -1 if the sealer could not vouch
            if stop == segment.size == size and sealed == segment.skeleton:
                damage_at = None  # case 2: every head is vouched for
            elif damage_at is None and (size != segment.size or sealed >= 0):
                damage_at = segment.size  # the end is gone, or heads rotted
        if damage_at is not None:
            self._suspect_before(segment, damage_at)
            segment.skeleton = None

    def _index_damaged(
        self, segment: _Segment, offset: int, crc: int, length: int, head: bytes
    ) -> None:
        """A frame inside the log failed its CRC.  If it reads as a block
        write, index it: the block it names raises CorruptBlock until
        healed.  Whether it names the right block is for the segment's
        seal to say (:meth:`_replay_segment`)."""
        if len(head) == _BLOCK_HEAD.size and length - len(head) <= self.block_size:
            kind, block_no = _BLOCK_HEAD.unpack(head)
            if kind == _REC_WRITE and 1 <= block_no <= self.capacity:
                self._index_put(segment, block_no, offset, length, crc)

    def _hold_orphans(self) -> None:
        """The damage may have swallowed a block's *only* record.  A block
        that has an owner but no record is therefore written down as lost:
        held, and CorruptBlock until the companion path rewrites it."""
        orphans = [b for b in sorted(self._owners) if b not in self._index]
        if not orphans:
            return
        bodies = [_BLOCK_HEAD.pack(_REC_LOST, block_no) for block_no in orphans]
        frames = self._append_records(bodies)
        for block_no, (offset, crc) in zip(orphans, frames):
            self._index_put(self._active, block_no, offset, _BLOCK_HEAD.size, crc)

    def _suspect_before(self, segment: _Segment, offset: int) -> None:
        """Damage at ``offset`` of ``segment`` may have swallowed a newer
        record of any block whose newest valid record lies before it: none
        of them may be served until rewritten (case 3)."""
        self._log_damaged = True
        self._suspect.update(
            block_no
            for block_no, entry in self._index.items()
            if entry[0] is not segment or entry[1] < offset
        )

    def _apply_record(
        self, segment: _Segment, offset: int, crc: int, body: memoryview
    ) -> None:
        kind = body[0]
        if kind in (_REC_WRITE, _REC_LOST):
            _, block_no = _BLOCK_HEAD.unpack_from(body)
            self._index_put(segment, block_no, offset, len(body), crc)
        elif kind == _REC_ERASE:
            _, block_no = _BLOCK_HEAD.unpack_from(body)
            self._index_drop(block_no)
        elif kind == _REC_SNAPSHOT:
            # Everything older segments said about owners and intentions
            # is superseded; the snapshot is covered by this frame's CRC.
            self._owners.clear()
            self._intentions.clear()
            segment.head = _FRAME.size + len(body)
            at = _SNAPSHOT_HEAD.size
            while at < len(body):
                (length, _) = _FRAME.unpack_from(body, at)
                at += _FRAME.size
                self._apply_meta(body[at : at + length])
                at += length
        else:
            self._apply_meta(body)

    def _apply_meta(self, body: memoryview) -> None:
        kind = body[0]
        if kind == _REC_OWNER:
            _, block_no, account = _OWNER_HEAD.unpack_from(body)
            self._owners[block_no] = account
        elif kind == _REC_DISOWN:
            _, block_no = _BLOCK_HEAD.unpack_from(body)
            self._owners.pop(block_no, None)
        elif kind == _REC_INTENT:
            _, code, block_no, account = _INTENT_HEAD.unpack_from(body)
            payload = bytes(body[_INTENT_HEAD.size :])
            self._intentions.append(
                (_INTENT_KINDS[code], account, block_no, payload)
            )
        elif kind == _REC_INTENT_ACK:
            _, count = _BLOCK_HEAD.unpack_from(body)
            del self._intentions[:count]
        # Unknown record types are skipped: a newer writer's log still
        # replays the records this reader understands.

    # -- the index ----------------------------------------------------------

    def _index_put(
        self, segment: _Segment, block_no: int, offset: int, length: int, crc: int
    ) -> None:
        old = self._index.get(block_no)
        if old is not None:
            old[0].live -= _FRAME.size + old[2]
        self._index[block_no] = (segment, offset, length, crc)
        segment.live += _FRAME.size + length
        self._ever_written.add(block_no)
        self._suspect.discard(block_no)

    def _index_drop(self, block_no: int) -> None:
        old = self._index.pop(block_no, None)
        if old is not None:
            old[0].live -= _FRAME.size + old[2]
        self._ever_written.discard(block_no)
        self._suspect.discard(block_no)

    def _read_frame(
        self, block_no: int, entry: tuple[_Segment, int, int, int]
    ) -> bytes:
        """The frame ``entry`` points at, verified: the on-disk header and
        the CRC of the on-disk body must both match the acknowledged
        record, and the body must name this block."""
        segment, offset, length, crc = entry
        try:
            raw = self.fs.pread(segment.fd, _FRAME.size + length, offset)
        except OSError as exc:
            raise CorruptBlock(f"block {block_no}: segment unreadable ({exc})") from None
        if len(raw) != _FRAME.size + length:
            raise CorruptBlock(f"block {block_no}: record cut short")
        body = memoryview(raw)[_FRAME.size :]
        if (
            _FRAME.unpack_from(raw) != (length, crc)
            or zlib.crc32(body) != crc
            or _BLOCK_HEAD.unpack_from(body)[1] != block_no
        ):
            raise CorruptBlock(f"block {block_no} failed its on-disk checksum")
        return raw

    # -- log write path -----------------------------------------------------

    def _append_records(
        self, bodies: list[bytes], sync: bool = True
    ) -> list[tuple[int, int]]:
        """Append framed records to the active segment in one write and
        (optionally) sync — the ack point.  Returns each frame's
        ``(offset, crc)``."""
        segment = self._active
        buffer = bytearray()
        frames = []
        for body in bodies:
            crc = zlib.crc32(body)
            frames.append((segment.size + len(buffer), crc))
            header = _FRAME.pack(len(body), crc)
            if segment.skeleton is not None:
                segment.skeleton = _skeleton(segment.skeleton, header, body)
            buffer += header
            buffer += body
        view = memoryview(buffer)
        while view:
            view = view[self.fs.write(segment.fd, view) :]
        segment.size += len(buffer)
        self.journal_appends += len(bodies)
        if sync:
            self.sync_journal()
        if self.recorder.enabled:
            self.recorder.count("disk.journal.appends", len(bodies))
        return frames

    def sync_journal(self) -> None:
        """Sync the active segment: everything appended so far is durable.

        Uses the tuned :attr:`sync_primitive` — ``fdatasync`` is safe here
        because the log is append-only and fdatasync flushes the data plus
        the size metadata needed to read it back.  The first sync of a new
        segment also syncs the directory, so the file cannot vanish under
        acknowledged records.
        """
        with self._io_lock:
            segment = self._active
            if self.sync_primitive == "fdatasync" and hasattr(self.fs, "fdatasync"):
                self.fs.fdatasync(segment.fd)
            else:
                self.fs.fsync(segment.fd)
            self._synced_size = segment.size
            self.fsyncs += 1
            if self.recorder.enabled:
                self.recorder.count("disk.fsync.journal")
            if not segment.entry_durable:
                self._fsync_dir(self._log_dir)
                segment.entry_durable = True

    def _fsync_dir(self, path: Path) -> None:
        fd = self.fs.open(path, os.O_RDONLY)
        try:
            self.fs.fsync(fd)
        finally:
            self.fs.close(fd)
        self.fsyncs += 1
        if self.recorder.enabled:
            self.recorder.count("disk.fsync.dir")

    # -- rotation and cleaning ----------------------------------------------

    def _write_head(self) -> None:
        """Start the (empty) active segment with a snapshot of the owner
        map and the pending intentions.  One frame, so its CRC makes the
        snapshot all-or-nothing: a torn one is truncated at recovery and
        the older segments, all still present, speak instead.  It also
        seals the segment before it — how long it was, and the checksum
        over its frame heads — so that recovery can tell payload damage
        there (one block's loss) from a head it must not trust, and a
        segment cut short at a frame boundary does not pass as whole."""
        bodies = [
            _owner_body(block_no, account)
            for block_no, account in sorted(self._owners.items())
        ]
        bodies += [_intent_body(*intent) for intent in self._intentions]
        size, skeleton = 0, 0
        if len(self._segments) > 1:
            sealed = self._segments[-2]
            size = sealed.size
            skeleton = -1 if sealed.skeleton is None else sealed.skeleton
        snapshot = _SNAPSHOT_HEAD.pack(_REC_SNAPSHOT, size, skeleton) + b"".join(
            map(_frame, bodies)
        )
        self._append_records([snapshot])
        self._active.head = self._active.size

    def _rotate(self) -> None:
        """Seal the active segment and start the next one."""
        if self._synced_size < self._active.size:
            self.sync_journal()
        for segment in self._retired:
            self.fs.close(segment.fd)
        self._retired.clear()
        self._active = self._open_segment(self._active.seq + 1)
        self._synced_size = 0
        self._write_head()

    def _cleanable(self) -> bool:
        """Dead bytes exceed live bytes by more than one segment.  Head
        snapshots count as neither: they are the price of rotating, and
        cleaning cannot reduce them."""
        if len(self._segments) < 2:
            return False
        records = sum(segment.size - segment.head for segment in self._segments)
        live = sum(segment.live for segment in self._segments)
        return records - live > live + self.journal_limit

    def _clean_oldest(self) -> None:
        """One cleaning pass: re-append the oldest segment's live records
        at the head, sync, unlink it.  Oldest first, so the tombstones it
        held kill nothing that still exists, and its owner and intention
        records are superseded by the next segment's snapshot."""
        victim = self._segments[0]
        moved = sorted(
            (b for b, entry in self._index.items() if entry[0] is victim),
            key=lambda b: self._index[b][1],  # log order
        )
        appended = self._active.size - self._active.head
        if appended and appended + victim.live > self.journal_limit:
            self._rotate()  # keep segments near journal_limit
        bodies = []
        for block_no in moved:
            try:
                if block_no in self._suspect:
                    raise CorruptBlock(f"block {block_no} is suspect")
                frame = self._read_frame(block_no, self._index[block_no])
                bodies.append(frame[_FRAME.size :])
            except CorruptBlock:
                # Keep the block held and unreadable across restarts, so
                # the companion path still heals it.
                bodies.append(_BLOCK_HEAD.pack(_REC_LOST, block_no))
        copied = sum(_FRAME.size + len(body) for body in bodies)
        if bodies:
            head = self._active
            frames = self._append_records(bodies)
            for block_no, body, (offset, crc) in zip(moved, bodies, frames):
                self._index_put(head, block_no, offset, len(body), crc)
        self.cleaned_bytes += copied
        self._segments.pop(0)
        self.fs.unlink(victim.path)
        self._retired.append(victim)
        # The unlink must be durable before the next pass drops tombstones
        # that still shadow this segment's dead writes.
        self._fsync_dir(self._log_dir)
        self.journal_compactions += 1
        if self.recorder.enabled:
            self.recorder.count("disk.journal.compactions")
            self.recorder.count("disk.clean.copied_bytes", copied)

    def _over_limit(self) -> bool:
        """The active segment holds ``journal_limit`` bytes of records
        beyond its head snapshot."""
        return self._active.size - self._active.head > self.journal_limit

    def _maybe_compact(self) -> None:
        """After an acknowledged mutation: rotate past ``journal_limit``,
        then at most one cleaning pass, so the stall is bounded."""
        if self._over_limit():
            self._rotate()
        if self._cleanable():
            self._clean_oldest()
            if self._over_limit():
                self._rotate()

    def checkpoint(self) -> None:
        """Seal the active segment now and clean whatever is eligible."""
        with self._io_lock:
            self._rotate()
            while self._cleanable():
                self._clean_oldest()

    # -- blocks ---------------------------------------------------------------

    def _check_up(self) -> None:
        if self._closed:
            raise DiskCrashed(f"{self.name} is closed or crashed")

    def write(self, block_no: int, data: bytes, owner: int | None = None) -> None:
        """Durably store one block; with ``owner``, the block's ``OWNER``
        record rides the same append and sync (allocate + write)."""
        self.write_many(
            [(block_no, data)], None if owner is None else {block_no: owner}
        )

    def write_many(
        self, writes: list[tuple[int, bytes]], owners: dict[int, int] | None = None
    ) -> None:
        """Write a batch of blocks durably with **one** append and **one**
        sync.

        Group commit's medium-level payoff: the whole batch — preceded by
        an ``OWNER`` record for each block in ``owners`` — becomes durable
        at a single sync.  After a crash either a prefix of the batch's
        records survives (the sync never returned, nothing was
        acknowledged) or all of it does.
        """
        self._check_up()
        for block_no, data in writes:
            if not 1 <= block_no <= self.capacity:
                raise NoSuchBlock(
                    f"block {block_no} out of range 1..{self.capacity}"
                )
            if len(data) > self.block_size:
                raise BlockTooLarge(
                    f"{len(data)} bytes > block size {self.block_size}"
                )
            if block_no in self._ever_written and self.write_once:
                raise WriteOnceViolation(
                    f"block {block_no} already written on write-once media"
                )
        owners = owners or {}
        bodies = [_owner_body(*item) for item in owners.items()]
        bodies += [
            _BLOCK_HEAD.pack(_REC_WRITE, block_no) + data for block_no, data in writes
        ]
        with self._io_lock:
            segment = self._active
            frames = self._append_records(bodies)  # ← the ack point
            self._owners.update(owners)
            for (block_no, data), (offset, crc) in zip(writes, frames[len(owners) :]):
                if block_no in self._ever_written:
                    self.stats.overwrites += 1
                self._index_put(
                    segment, block_no, offset, _BLOCK_HEAD.size + len(data), crc
                )
            self._maybe_compact()
        for block_no, _ in writes:
            self.clock.advance(WRITE_TICKS)
            self.stats.writes += 1
            if self.recorder.enabled:
                self.recorder.event("disk.write", disk=self.name, block=block_no)

    def read(self, block_no: int) -> bytes:
        """Index lookup, one ``pread``, verification.  Takes no lock: a
        cleaning pass that moves the record under us keeps the old copy
        readable, and a lookup that went stale anyway is simply redone."""
        self._check_up()
        while True:
            entry = self._index.get(block_no)
            if entry is None:
                raise NoSuchBlock(f"block {block_no} not written")
            try:
                if block_no in self._suspect:
                    raise CorruptBlock(
                        f"block {block_no}: a newer record may be lost to log damage"
                    )
                frame = self._read_frame(block_no, entry)
                if frame[_FRAME.size] != _REC_WRITE:
                    raise CorruptBlock(f"block {block_no} was lost to log damage")
                break
            except CorruptBlock:
                self._check_up()  # a crash closed the segment under us
                if self._index.get(block_no) == entry:
                    raise
        self.clock.advance(READ_TICKS)
        self.stats.reads += 1
        if self.recorder.enabled:
            self.recorder.event("disk.read", disk=self.name, block=block_no)
        return frame[_FRAME.size + _BLOCK_HEAD.size :]

    def erase(self, block_no: int, disown: bool = False) -> None:
        """Erase a block; with ``disown``, its ``DISOWN`` record rides the
        same append and sync (the block server's free)."""
        self._check_up()
        bodies = []
        if disown:
            bodies.append(_BLOCK_HEAD.pack(_REC_DISOWN, block_no))
        if not self.write_once:
            bodies.append(_BLOCK_HEAD.pack(_REC_ERASE, block_no))
        if not bodies:
            return
        with self._io_lock:
            self._append_records(bodies)
            if disown:
                self._owners.pop(block_no, None)
            if not self.write_once:
                self._index_drop(block_no)
            self._maybe_compact()
        if self.write_once:
            return
        self.stats.frees += 1
        if self.recorder.enabled:
            self.recorder.event("disk.free", disk=self.name, block=block_no)

    def holds(self, block_no: int) -> bool:
        """Whether the block currently stores data (no integrity check)."""
        return block_no in self._index

    @property
    def blocks_in_use(self) -> int:
        return len(self._index)

    def peek(self, block_no: int) -> bytes | None:
        """The stored bytes as they are — no integrity check, no tick, no
        error — or None when the block holds nothing.  For audits that
        compare media (``StablePair.consistent``)."""
        entry = self._index.get(block_no)
        if entry is None:
            return None
        segment, offset, length, _ = entry
        header = _FRAME.size + _BLOCK_HEAD.size
        try:
            return self.fs.pread(segment.fd, length - _BLOCK_HEAD.size, offset + header)
        except OSError:
            return b""

    def first_free(self, start: int = 1) -> int:
        """Lowest never-written block number at or after ``start``.

        Raises :class:`DiskFull` when none remains.  Allocation policy
        proper lives in the block server; this is the media-level probe.
        """
        for block_no in range(max(start, 1), self.capacity + 1):
            if block_no not in self._ever_written:
                return block_no
        raise DiskFull(f"no free block at or after {start}")

    def corrupt(self, block_no: int) -> None:
        """Flip a byte of the block's record *in the segment*, modelling
        media decay; the next read raises :class:`CorruptBlock`."""
        entry = self._index.get(block_no)
        if entry is None:
            return
        segment, offset, length, _ = entry
        # The last payload byte — or, for an empty payload, a CRC byte.
        at = offset + _FRAME.size + length - 1 if length > _BLOCK_HEAD.size else offset + 4
        # Not the segment's own descriptor: O_APPEND turns pwrite into append.
        fs = self.fs
        fd = fs.open(segment.path, os.O_RDWR)
        try:
            fs.pwrite(fd, bytes([fs.pread(fd, 1, at)[0] ^ 0xFF]), at)
        finally:
            fs.close(fd)

    # -- durable server metadata --------------------------------------------

    def set_owner(self, block_no: int, account: int, sync: bool = True) -> None:
        """Durably record that ``block_no`` belongs to ``account``."""
        with self._io_lock:
            self._append_records([_owner_body(block_no, account)], sync=sync)
            self._owners[block_no] = account
            self._maybe_compact()

    def clear_owner(self, block_no: int, sync: bool = True) -> None:
        with self._io_lock:
            self._append_records(
                [_BLOCK_HEAD.pack(_REC_DISOWN, block_no)], sync=sync
            )
            self._owners.pop(block_no, None)
            self._maybe_compact()

    def recovered_owners(self) -> dict[int, int]:
        """The owner map as of the last durable record (for BlockServer)."""
        return dict(self._owners)

    def add_intention(
        self, kind: str, account: int, block_no: int, data: bytes = b"",
        sync: bool = True,
    ) -> None:
        """Durably append one intentions-list entry for a crashed companion."""
        with self._io_lock:
            self._append_records(
                [_intent_body(kind, account, block_no, data)], sync=sync
            )
            self._intentions.append((kind, account, block_no, data))
            self._maybe_compact()

    def ack_intentions(self, count: int) -> None:
        """The companion applied the first ``count`` intentions: drop them
        durably (a restart must not re-offer acknowledged intentions)."""
        with self._io_lock:
            self._append_records([_BLOCK_HEAD.pack(_REC_INTENT_ACK, count)])
            del self._intentions[:count]
            self._maybe_compact()

    def recovered_intentions(self) -> list[tuple[str, int, int, bytes]]:
        """Pending ``(kind, account, block_no, data)`` intentions on disk."""
        return list(self._intentions)

    def close(self) -> None:
        """Sync what is unsynced and release every descriptor.  Idempotent;
        a disk whose process died has nothing left to sync."""
        with self._io_lock:
            if self._closed:
                return
            try:
                if self._synced_size < self._active.size:
                    self.sync_journal()
                self._release()
            except DiskCrashed:
                self._release()

    def crash(self, power_loss: bool = False) -> None:
        """The process holding the disk dies: its descriptors go unsynced
        and every later call raises :class:`DiskCrashed`.  ``power_loss``
        (on the in-memory kernel) also drops every byte and directory
        entry no sync covered.  :meth:`reopen` is the restart."""
        with self._io_lock:
            if self._closed:
                return
            if power_loss:
                self.fs.crash(power_loss=True)
            self._release()

    def _release(self) -> None:
        self._closed = True
        for segment in self._segments + self._retired:
            self.fs.close(segment.fd)
        self._retired.clear()


# ---------------------------------------------------------------------------
# sync-cost probe and journal sync tuning
# ---------------------------------------------------------------------------


def probe_sync_primitives(
    path: str | os.PathLike, samples: int = 16, payload: int = 4096
) -> dict[str, float]:
    """Median durable-append latency (seconds) per sync primitive.

    Probes every durable-write primitive the platform offers on a scratch
    file in ``path``: plain ``fsync`` (always), ``fdatasync`` (data plus
    the metadata needed to read it back — the append-only journal's
    contract), and an ``O_DSYNC`` write (the write call itself is the
    durable op) where :data:`os.O_DSYNC` exists.  Each sample times one
    ``payload``-byte append made durable, so the numbers are directly
    comparable across primitives.
    """
    data = b"\x5a" * payload
    base = Path(path)
    primitives: list[str] = ["fsync"]
    if hasattr(os, "fdatasync"):
        primitives.append("fdatasync")
    if hasattr(os, "O_DSYNC"):
        primitives.append("o_dsync")
    results: dict[str, float] = {}
    for name in primitives:
        probe = base / f".syncprobe-{name}-{os.getpid()}.tmp"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        if name == "o_dsync":
            flags |= os.O_DSYNC
        times: list[float] = []
        fd = os.open(probe, flags, 0o600)
        try:
            for _ in range(max(3, samples)):
                start = time.perf_counter()
                os.write(fd, data)
                if name == "fsync":
                    os.fsync(fd)
                elif name == "fdatasync":
                    os.fdatasync(fd)
                times.append(time.perf_counter() - start)
        except OSError:
            continue  # medium refuses this primitive: report the others
        finally:
            os.close(fd)
            probe.unlink(missing_ok=True)
        times.sort()
        results[name] = times[len(times) // 2]
    return results


def cheapest_journal_primitive(costs: dict[str, float]) -> str:
    """The cheapest probed primitive the journal can actually use.

    ``O_DSYNC`` is probe-only (the journal syncs an already-open appender
    fd; reopening it with ``O_DSYNC`` would change the write path, not
    just the sync), so the choice is fsync versus fdatasync.
    """
    eligible = {k: v for k, v in costs.items() if k in ("fsync", "fdatasync")}
    if not eligible:
        return "fsync"
    return min(eligible, key=eligible.get)


def tune_journal_sync(
    path: str | os.PathLike, samples: int = 16
) -> tuple[str, dict[str, float]]:
    """Probe ``path`` and retarget every :class:`FDisk` journal sync at
    the cheapest durable primitive; returns ``(winner, probe costs)``."""
    costs = probe_sync_primitives(path, samples=samples)
    winner = cheapest_journal_primitive(costs)
    FDisk.sync_primitive = winner
    return winner, costs
