"""The file table: how servers find files and versions.

§5.4.1: "Access paths to committed versions go through the replicated file
table, and a chain of version pages on stable storage, hence version access
and file access can be guaranteed as long as one or more servers are
operational."

The registry maps file object numbers to an *entry block* — the block
number of **some committed version page** of the file.  The entry may be
stale: the current version is found by following commit references from
it (:meth:`repro.core.store.PageStore.commits_from`), and it is advanced
lazily.  That lets any replicated server resolve any file from any
committed version it knows; it is also the commit engine's optimistic base.

Only an open version — created, neither published nor removed — can move
a file's commit chain (§5.2); ``FileEntry.open`` lists each (§5.3's top
lock as soft state).  While none is open the entry names the current
version (``FileEntry.current``), which a read takes instead of a chase.
Only ``FileEntry``'s rule methods write this soft state, and each that
could make the name wrong clears it first.

Uncommitted versions are also registered (version object number → version
page block) so capabilities can be validated; these entries are expendable
("uncommitted versions need not be salvaged in a server crash").

The registry is shared by all file server replicas — it models the
*replicated file table* — and can be serialised into a block of stable
storage (:meth:`FileRegistry.serialize`) so a cold-started server can
recover the whole file system from disk, reproducing the §4 recovery path.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field

from repro.errors import NoSuchFile, NoSuchVersion
from repro.core.page import NIL

_ENTRY = struct.Struct(">QIQBQ")  # obj, entry block, secret, flags, parent
_HEADER = struct.Struct(">4sI")  # magic, entry count
_MAGIC = b"AFT1"

# Bits of the entry flags byte.
_FLAG_SUPER = 0x01
_FLAG_MERGEABLE = 0x02


@dataclass
class FileEntry:
    """One file known to the service."""

    obj: int
    entry_block: int  # block of some committed version page (maybe stale)
    secret: int  # capability-check secret for the file object
    is_super: bool = False  # root is an internal node of the system tree
    parent_obj: int = 0  # enclosing super-file (0 = top level)
    # Directory-typed file: its root page data is an entry table whose
    # concurrent rewrites the merge policy may reconcile (repro.merge).
    # The authoritative copy of the flag rides on every page header
    # (surviving disk recovery); this one makes the typing visible to
    # registry consumers (fsck, stats) without a page load.
    mergeable: bool = False
    # Commit counter for client-cache leases: bumped by every commit
    # publication, read by the lease fast-renewal path.  In-memory only —
    # a deliberately volatile hint, like ``open`` and ``current``: -1
    # means "cannot vouch" (set after a registry restore), and a lease
    # carrying -1 is never fast-renewed, only fully re-validated.
    epoch: int = 0
    # Every open version of the file: version obj -> update port.  Non-
    # empty is the §5.3 top lock, a hint kept as soft state (see
    # repro.core.locks).  In-memory only, like ``current``: the updates
    # die with the table, so a restored entry starts with neither.
    open: dict[int, int] = field(default_factory=dict)
    # The version obj of the current version, in ``entry_block``, while
    # ``open`` is empty; None means "unknown: chase the commit references".
    current: int | None = None

    def soft_lock(self) -> int:
        """The port of some open update of the file, or 0."""
        return next(iter(self.open.values()), 0)

    # -- the rules: the only writers of the soft state above ------------------

    def named_current(self) -> int | None:
        """The version obj the table names current, its page in
        ``entry_block``, or None.  ``open`` is read before ``current``:
        a publication writes the name before its version leaves ``open``."""
        return None if self.open else self.current

    def open_version(self, version: VersionEntry) -> None:
        """``version`` was created: it may move the commit chain."""
        self.open[version.obj] = version.update_port

    def publish(self, version: VersionEntry) -> None:
        """The base's commit reference now names ``version``: it becomes
        the entry block, and is named current — before it leaves ``open`` —
        only if no other version is open and the epoch has not moved since
        it began (a grouped chain, a late test-and-set, a restore).  One
        epoch bump per version, so no lease on mid-chain state fast-renews;
        ``max`` heals the post-restore "unknown"."""
        self.entry_block = version.root_block
        alone = self.open.keys() <= {version.obj}
        self.current = (
            version.obj if alone and self.epoch == version.epoch >= 0 else None
        )
        self.epoch = max(self.epoch, 0) + 1
        self.open.pop(version.obj, None)

    def remove(self, version: VersionEntry) -> None:
        """``version`` died unpublished.  The name goes first: a reaped
        version's test-and-set may have landed."""
        self.current = None
        self.open.pop(version.obj, None)

    def rewrite(self) -> None:
        """A committed version page is about to be rewritten in place."""
        self.current = None

    def advance(self, block: int) -> None:
        """A chase found the current version in ``block``."""
        self.entry_block = block


@dataclass
class VersionEntry:
    """One live (usually uncommitted) version known to the service."""

    obj: int
    file_obj: int
    root_block: int  # the version page's block
    secret: int
    status: str = "uncommitted"  # uncommitted | committed | aborted
    owner: str = ""  # client node that owns the update (for GC / crash)
    update_port: int = 0  # the port identifying this update (lock value)
    server: str = ""  # the server process managing the update
    epoch: int = 0  # the file's lease epoch when the version began


@dataclass
class FileRegistry:
    """The shared file table of a file service (all replicas see one)."""

    files: dict[int, FileEntry] = field(default_factory=dict)
    versions: dict[int, VersionEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Lock-free snapshot reads can lazily mint version entries (after
        # a registry restore) while the collector drops versions; the
        # index below must never lose a live entry.
        self._obj_lock = threading.Lock()
        # Version page block -> the newest version registered there: what
        # version_by_block answers from, so no lookup walks the table.
        self._by_block: dict[int, VersionEntry] = {}

    # -- files ----------------------------------------------------------------

    def add_file(self, entry: FileEntry) -> None:
        self.files[entry.obj] = entry

    def file(self, obj: int) -> FileEntry:
        try:
            return self.files[obj]
        except KeyError:
            raise NoSuchFile(f"file object {obj} unknown") from None

    def drop_file(self, obj: int) -> None:
        self.files.pop(obj, None)
        for version in list(self.versions.values()):
            if version.file_obj == obj:
                self.drop_version(version.obj)

    # -- versions ----------------------------------------------------------------

    def add_version(self, entry: VersionEntry) -> None:
        with self._obj_lock:
            self.versions[entry.obj] = entry
            self._by_block[entry.root_block] = entry

    def version(self, obj: int) -> VersionEntry:
        try:
            return self.versions[obj]
        except KeyError:
            raise NoSuchVersion(f"version object {obj} unknown") from None

    def drop_version(self, obj: int) -> None:
        with self._obj_lock:
            entry = self.versions.pop(obj, None)
            if entry is not None and self._by_block.get(entry.root_block) is entry:
                del self._by_block[entry.root_block]

    def version_by_block(self, block: int) -> VersionEntry | None:
        """The version whose version page lives in ``block``, if known: the
        newest registered there, unless it was aborted — an aborted
        version's blocks are freed, and a number reused by a newer version
        names that one.  One dictionary lookup, however many versions the
        table has seen."""
        entry = self._by_block.get(block)
        if entry is None or entry.status == "aborted":
            return None
        return entry

    def adopt(self, other: "FileRegistry") -> None:
        """Take over another table's files and versions wholesale."""
        self.files = other.files
        self.versions = other.versions
        self._by_block = other._by_block

    def live_version_roots(self) -> set[int]:
        """Root blocks of all non-aborted versions (the GC's extra roots)."""
        return {
            v.root_block for v in self.versions.values() if v.status != "aborted"
        }

    # -- persistence (the replicated file table on stable storage) -------------

    def serialize(self) -> bytes:
        """Pack the *file* entries (the durable part) into a table block.

        Version entries are deliberately not persisted: committed versions
        are reachable from file entries via commit references, and
        uncommitted ones are expendable by design.
        """
        body = _HEADER.pack(_MAGIC, len(self.files))
        for entry in sorted(self.files.values(), key=lambda e: e.obj):
            flags = (_FLAG_SUPER if entry.is_super else 0) | (
                _FLAG_MERGEABLE if entry.mergeable else 0
            )
            body += _ENTRY.pack(
                entry.obj,
                entry.entry_block,
                entry.secret,
                flags,
                entry.parent_obj,
            )
        return body

    @staticmethod
    def deserialize(raw: bytes) -> "FileRegistry":
        magic, count = _HEADER.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise ValueError("not a serialised file table")
        registry = FileRegistry()
        offset = _HEADER.size
        for _ in range(count):
            obj, entry_block, secret, flags, parent = _ENTRY.unpack_from(
                raw, offset
            )
            offset += _ENTRY.size
            registry.add_file(
                FileEntry(
                    obj,
                    entry_block,
                    secret,
                    bool(flags & _FLAG_SUPER),
                    parent,
                    mergeable=bool(flags & _FLAG_MERGEABLE),
                )
            )
        return registry

    def restore_from(self, other: "FileRegistry") -> None:
        """Adopt the durable file entries of a deserialised table."""
        self.files = dict(other.files)
        # The epoch counters died with the old in-memory table and the
        # restored entry blocks may be arbitrarily stale; mark every
        # epoch "unknown" so no pre-restore lease can ever fast-renew
        # against a rolled-back entry block.
        for entry in self.files.values():
            entry.epoch = -1
        self.versions = {}
        self._by_block = {}


# Sentinel for "no entry block yet".
NO_BLOCK = NIL
