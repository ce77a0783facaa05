"""The page: Figure 3's layout, with binary serialisation.

"The page is divided in two areas, the header area and the page itself.
[...] The page itself contains the reference table, with an entry for each
child page, and the data area where the client data is kept."

Header fields (version-page-only fields are zero elsewhere):

========================  =======================================================
file capability           capability of the file whose root this page is
version capability        capability of the version whose root this page is
commit reference          next committed version (nil in the current version)
top lock                  super-file locking (port of the holder; 0 = clear)
inner lock                super-file locking
parent reference          version page of the parent (super-)file
base reference            block this page was based on (copied from)
nrefs                     number of page references
dsize                     number of data bytes
mergeable                 directory-typed page: concurrent entry-table updates
                          may be merged semantically (:mod:`repro.merge`)
========================  =======================================================

Each reference is "a block number and some flag bits": 28 bits of block
number and the 4-bit C/R/W/S/M code of :mod:`repro.core.flags`, packed in
32 bits, exactly as Amoeba did.  Block number 0 is the nil reference; a nil
reference inside the table is a *hole* (see ``make_hole`` in
:mod:`repro.core.tree_ops`).  A negative number is *provisional*: a
brand-new page's name inside one page store until the flush that first
writes it gives it a real one (:meth:`repro.core.store.PageStore.flush`).
It never reaches a disk or the wire — serialising one is refused.

The commit reference sits at a fixed byte offset (:data:`COMMIT_REF_OFFSET`)
so the block server's test-and-set can operate on it directly — that
test-and-set is the single critical section of version commit (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability import Capability
from repro.errors import PageTooLarge, ReferenceTableFull
from repro.core.flags import Flags

# Sizes (bytes).  PAGE_BODY_SIZE matches the paper's 32K maximum page: the
# reference table and the client data share it.
PAGE_BODY_SIZE = 32768
HEADER_SIZE = 128
REF_SIZE = 4

BLOCK_BITS = 28
MAX_BLOCK = (1 << BLOCK_BITS) - 1
NIL = 0  # the nil block reference

_MAGIC = b"AP"

# Header field offsets.
_OFF_MAGIC = 0
_OFF_FILE_CAP = 2
_OFF_VERSION_CAP = 24
COMMIT_REF_OFFSET = 46
COMMIT_REF_SIZE = 4
TOP_LOCK_OFFSET = 50
INNER_LOCK_OFFSET = 58
_OFF_TOP_LOCK = TOP_LOCK_OFFSET
_OFF_INNER_LOCK = INNER_LOCK_OFFSET
_OFF_PARENT_REF = 66
_OFF_BASE_REF = 70
_OFF_NREFS = 74
_OFF_DSIZE = 76
_OFF_ROOT_FLAGS = 78
_OFF_IS_VERSION = 79
_OFF_MERGEABLE = 80
LOCK_SIZE = 8


@dataclass(frozen=True, slots=True)
class PageRef:
    """One reference-table entry: a block number plus C/R/W/S/M flags."""

    block: int = NIL
    flags: Flags = field(default_factory=Flags)

    def __post_init__(self) -> None:
        if self.block > MAX_BLOCK:
            raise ValueError(f"block number {self.block} outside 28-bit range")

    @property
    def is_nil(self) -> bool:
        """A nil reference: a hole in the page tree."""
        return self.block == NIL

    def encode(self) -> int:
        """Pack into 32 bits: 28-bit block number, 4-bit flag code."""
        if self.block < 0:
            raise ValueError(f"provisional block number {self.block} written")
        return (self.block << 4) | self.flags.encode()

    @staticmethod
    def decode(word: int) -> "PageRef":
        return PageRef(word >> 4, Flags.decode(word & 0xF))


class Page:
    """An in-memory page, mutable until serialised to its disk block.

    Version-page-only fields (``file_cap``, ``version_cap``, ``commit_ref``,
    ``top_lock``, ``inner_lock``, ``parent_ref``) are present on every page
    object but "absent (or ignored) in other pages".

    Locks hold the 64-bit port of the holding update (0 = clear), which is
    what makes lock-based crash recovery possible: waiters can tell *whose*
    lock they are waiting on.
    """

    __slots__ = (
        "file_cap",
        "version_cap",
        "commit_ref",
        "top_lock",
        "inner_lock",
        "parent_ref",
        "base_ref",
        "root_flags",
        "is_version_page",
        "mergeable",
        "refs",
        "data",
    )

    def __init__(
        self,
        file_cap: Capability | None = None,
        version_cap: Capability | None = None,
        commit_ref: int = NIL,
        top_lock: int = 0,
        inner_lock: int = 0,
        parent_ref: int = NIL,
        base_ref: int = NIL,
        root_flags: Flags | None = None,
        is_version_page: bool = False,
        mergeable: bool = False,
        refs: list[PageRef] | None = None,
        data: bytes = b"",
    ) -> None:
        self.file_cap = file_cap
        self.version_cap = version_cap
        self.commit_ref = commit_ref
        self.top_lock = top_lock
        self.inner_lock = inner_lock
        self.parent_ref = parent_ref
        self.base_ref = base_ref
        self.root_flags = root_flags if root_flags is not None else Flags()
        self.is_version_page = is_version_page
        self.mergeable = mergeable
        self.refs = list(refs) if refs is not None else []
        self.data = data

    # -- size accounting ------------------------------------------------------

    @property
    def nrefs(self) -> int:
        return len(self.refs)

    @property
    def dsize(self) -> int:
        return len(self.data)

    @property
    def body_size(self) -> int:
        """Bytes of the 32K page body consumed by references plus data."""
        return REF_SIZE * self.nrefs + self.dsize

    def check_fits(self) -> None:
        """Raise if the body exceeds the 32K page ("the number of data bytes
        in a page is variable up to the maximum size of a page; the
        remaining space can be occupied by references")."""
        if self.body_size > PAGE_BODY_SIZE:
            raise PageTooLarge(
                f"page body {self.body_size} bytes exceeds {PAGE_BODY_SIZE}"
            )

    # -- reference-table editing ------------------------------------------------

    def ref(self, index: int) -> PageRef:
        return self.refs[index]

    def set_ref(self, index: int, ref: PageRef) -> None:
        self.refs[index] = ref

    def append_ref(self, ref: PageRef) -> int:
        """Append a reference, returning its index."""
        if REF_SIZE * (self.nrefs + 1) + self.dsize > PAGE_BODY_SIZE:
            raise ReferenceTableFull(
                f"no room for reference {self.nrefs} with {self.dsize} data bytes"
            )
        self.refs.append(ref)
        return self.nrefs - 1

    def insert_ref(self, index: int, ref: PageRef) -> None:
        if REF_SIZE * (self.nrefs + 1) + self.dsize > PAGE_BODY_SIZE:
            raise ReferenceTableFull(
                f"no room for reference at {index} with {self.dsize} data bytes"
            )
        self.refs.insert(index, ref)

    def remove_ref(self, index: int) -> PageRef:
        return self.refs.pop(index)

    def clear_access_flags(self) -> None:
        """Reset every child flag except C.

        "When a page is first read, the C, R, W, S and M flags it contains
        for its child pages must be initialised to zero."  The C flag is
        also cleared: in the *new* version nothing below this page has been
        copied yet (sharing is re-established with the base version).
        """
        self.refs = [PageRef(ref.block, Flags()) for ref in self.refs]

    def renumber(self, numbers: dict[int, int]) -> None:
        """Rename every block this page names that ``numbers`` maps."""
        self.refs = [PageRef(numbers.get(r.block, r.block), r.flags) for r in self.refs]
        self.commit_ref, self.parent_ref, self.base_ref = (
            numbers.get(b, b) for b in (self.commit_ref, self.parent_ref, self.base_ref)
        )

    # -- copying ---------------------------------------------------------------

    def clone(self) -> "Page":
        """A deep-enough copy (refs list and scalars; data is immutable)."""
        return Page(
            file_cap=self.file_cap,
            version_cap=self.version_cap,
            commit_ref=self.commit_ref,
            top_lock=self.top_lock,
            inner_lock=self.inner_lock,
            parent_ref=self.parent_ref,
            base_ref=self.base_ref,
            root_flags=self.root_flags,
            is_version_page=self.is_version_page,
            mergeable=self.mergeable,
            refs=list(self.refs),
            data=self.data,
        )

    # -- serialisation ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the on-disk block format (header + body)."""
        self.check_fits()
        if min(self.commit_ref, self.parent_ref, self.base_ref) < 0:
            raise ValueError("a provisional block number cannot be written")
        header = bytearray(HEADER_SIZE)
        header[_OFF_MAGIC:_OFF_MAGIC + 2] = _MAGIC
        header[_OFF_FILE_CAP:_OFF_FILE_CAP + 22] = (
            self.file_cap.pack() if self.file_cap else Capability.pack_nil()
        )
        header[_OFF_VERSION_CAP:_OFF_VERSION_CAP + 22] = (
            self.version_cap.pack() if self.version_cap else Capability.pack_nil()
        )
        header[COMMIT_REF_OFFSET:COMMIT_REF_OFFSET + 4] = self.commit_ref.to_bytes(4, "big")
        header[_OFF_TOP_LOCK:_OFF_TOP_LOCK + 8] = self.top_lock.to_bytes(8, "big")
        header[_OFF_INNER_LOCK:_OFF_INNER_LOCK + 8] = self.inner_lock.to_bytes(8, "big")
        header[_OFF_PARENT_REF:_OFF_PARENT_REF + 4] = self.parent_ref.to_bytes(4, "big")
        header[_OFF_BASE_REF:_OFF_BASE_REF + 4] = self.base_ref.to_bytes(4, "big")
        header[_OFF_NREFS:_OFF_NREFS + 2] = self.nrefs.to_bytes(2, "big")
        header[_OFF_DSIZE:_OFF_DSIZE + 2] = self.dsize.to_bytes(2, "big")
        header[_OFF_ROOT_FLAGS] = self.root_flags.encode()
        header[_OFF_IS_VERSION] = 1 if self.is_version_page else 0
        header[_OFF_MERGEABLE] = 1 if self.mergeable else 0
        table = b"".join(ref.encode().to_bytes(REF_SIZE, "big") for ref in self.refs)
        return bytes(header) + table + self.data

    @staticmethod
    def from_bytes(raw: bytes) -> "Page":
        """Deserialise a disk block back to a page."""
        if len(raw) < HEADER_SIZE or raw[_OFF_MAGIC:_OFF_MAGIC + 2] != _MAGIC:
            raise ValueError("not a serialised page (bad magic)")
        nrefs = int.from_bytes(raw[_OFF_NREFS:_OFF_NREFS + 2], "big")
        dsize = int.from_bytes(raw[_OFF_DSIZE:_OFF_DSIZE + 2], "big")
        table_end = HEADER_SIZE + REF_SIZE * nrefs
        refs = [
            PageRef.decode(int.from_bytes(raw[i:i + REF_SIZE], "big"))
            for i in range(HEADER_SIZE, table_end, REF_SIZE)
        ]
        return Page(
            file_cap=Capability.unpack(raw[_OFF_FILE_CAP:_OFF_FILE_CAP + 22]),
            version_cap=Capability.unpack(raw[_OFF_VERSION_CAP:_OFF_VERSION_CAP + 22]),
            commit_ref=int.from_bytes(raw[COMMIT_REF_OFFSET:COMMIT_REF_OFFSET + 4], "big"),
            top_lock=int.from_bytes(raw[_OFF_TOP_LOCK:_OFF_TOP_LOCK + 8], "big"),
            inner_lock=int.from_bytes(raw[_OFF_INNER_LOCK:_OFF_INNER_LOCK + 8], "big"),
            parent_ref=int.from_bytes(raw[_OFF_PARENT_REF:_OFF_PARENT_REF + 4], "big"),
            base_ref=int.from_bytes(raw[_OFF_BASE_REF:_OFF_BASE_REF + 4], "big"),
            root_flags=Flags.decode(raw[_OFF_ROOT_FLAGS]),
            is_version_page=bool(raw[_OFF_IS_VERSION]),
            mergeable=bool(raw[_OFF_MERGEABLE]),
            refs=refs,
            data=raw[table_end:table_end + dsize],
        )


def pack_commit_ref(block: int) -> bytes:
    """The wire form of a commit reference, for block-server test-and-set."""
    return block.to_bytes(COMMIT_REF_SIZE, "big")


NIL_COMMIT_REF = pack_commit_ref(NIL)
