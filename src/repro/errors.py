"""Exception hierarchy for the Amoeba File Service reproduction.

Every layer of the stack raises exceptions derived from :class:`ReproError`,
so callers can catch coarsely (``except ReproError``) or finely (e.g.
``except CommitConflict``).  The hierarchy mirrors the layering of the
system: simulation substrate, block service, file service, client library.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Capability / protection errors
# ---------------------------------------------------------------------------


class CapabilityError(ReproError):
    """Base class for capability and protection failures."""


class BadCapability(CapabilityError):
    """A capability failed its check-field validation (forged or corrupted)."""


class InsufficientRights(CapabilityError):
    """A capability is genuine but does not carry the required rights."""


class UnknownObject(CapabilityError):
    """A capability refers to an object the server does not know about."""


# ---------------------------------------------------------------------------
# Simulation substrate errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors in the simulated network / scheduler."""


class ServerUnreachable(SimulationError):
    """No server is listening on the addressed port, or it is crashed
    or partitioned away; models a transaction timeout in Amoeba."""


class MessageDropped(SimulationError):
    """The network dropped the message (fault injection)."""


class ServerCrashed(SimulationError):
    """The addressed server process has crashed and cannot serve requests."""


# ---------------------------------------------------------------------------
# Wire transport errors (real TCP sockets; see repro.net)
# ---------------------------------------------------------------------------


class WireError(ReproError):
    """Base class for wire-codec and TCP-transport failures."""


class BadFrame(WireError):
    """A frame failed structural validation (bad magic, unknown wire
    version, unknown frame type, or malformed payload encoding)."""


class WireVersionMismatch(BadFrame):
    """The peer speaks a different wire protocol version.  Raised (and
    shipped as a typed error frame) instead of misparsing the rest of the
    header — version 1 frames have no correlation id, so decoding them as
    version 2 would read garbage lengths."""


class FrameTooLarge(WireError):
    """A frame exceeds the negotiated maximum size.  Raised explicitly on
    both encode and decode — never silently truncated."""


class TruncatedFrame(WireError):
    """A frame's payload ended before its encoding was complete (short
    read, torn write, or a lying length prefix)."""


class RemoteCallError(WireError):
    """A server-side exception that has no class on the client side; the
    original class name and message are preserved in the message."""


# ---------------------------------------------------------------------------
# Block service errors
# ---------------------------------------------------------------------------


class BlockError(ReproError):
    """Base class for block-server failures."""


class NoSuchBlock(BlockError):
    """The referenced block number is not allocated."""


class DiskFull(BlockError):
    """The disk has no free blocks left."""


class BlockTooLarge(BlockError):
    """Data does not fit in a fixed-size block."""


class CorruptBlock(BlockError):
    """The stored block failed its integrity check (bit rot / torn write)."""


class DiskCrashed(BlockError):
    """The disk (or its server) is crashed / temporarily inaccessible."""


class WriteOnceViolation(BlockError):
    """An overwrite was attempted on write-once (optical) media."""


class UnsupportedDiskLayout(BlockError):
    """A disk directory was written in an on-disk layout this build does
    not read (refused outright rather than misread)."""


class NotBlockOwner(BlockError):
    """Per-account protection: the caller does not own the block."""


class CompanionConflict(BlockError):
    """Companion-pair collision detected (simultaneous allocate or write
    of the same block number through both servers of a stable pair)."""


# ---------------------------------------------------------------------------
# Placement / elastic-cluster errors
# ---------------------------------------------------------------------------


class PlacementError(ReproError):
    """Base class for placement-map and cluster-elasticity failures."""


class PlacementStale(PlacementError):
    """The caller routed with an out-of-date placement map: the addressed
    shard was cut over (retired) at some placement epoch, or a publish
    lost the epoch compare-and-set.  The typed retry signal — refetch the
    map and re-route; the operation itself never executed."""


class UnknownShard(PlacementError):
    """A block number (or port) maps to no range of the placement map."""


# ---------------------------------------------------------------------------
# File service errors
# ---------------------------------------------------------------------------


class FileServiceError(ReproError):
    """Base class for Amoeba File Service failures."""


class NoSuchFile(FileServiceError):
    """The file capability does not name a known file."""


class NoSuchVersion(FileServiceError):
    """The version capability does not name a known (live) version."""


class BadPathName(FileServiceError):
    """A page path name is syntactically invalid or indexes out of range."""


class NotManagingServer(FileServiceError):
    """The version is an in-flight update managed by a different, live
    server process.  Its pages may still sit in that server's deferred
    write buffer, invisible to every other replica — so no other server
    can read, write, or (worst of all) commit it: a commit elsewhere would
    test-and-set a version whose pages are not yet durable.  The paper's
    model: "when the server crashes, the outstanding transactions with the
    server crash as well" — an update lives and dies with its server."""


class VersionCommitted(FileServiceError):
    """The version has already committed and can no longer be written."""


class VersionAborted(FileServiceError):
    """The version was aborted (explicitly or by a failed commit)."""


class CommitConflict(FileServiceError):
    """Serialisability validation failed: the update conflicts with a
    committed concurrent update and must be redone by the client."""


class MergeConflict(CommitConflict):
    """A semantic merge of two concurrent entry-table updates failed:
    both sides changed the *same* entry (or a table failed to decode).
    The strictness boundary of :mod:`repro.merge` — treated exactly like
    any other commit conflict by the redo loop."""


class UpdateStarved(CommitConflict):
    """A bounded retry loop exhausted its attempts without committing:
    the update kept losing the optimistic race to concurrent writers.
    Carries the attempt count so callers can distinguish starvation from
    a single genuine conflict."""

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class PageTooLarge(FileServiceError):
    """Page data + references exceed the maximum page size (32K)."""


class ReferenceTableFull(FileServiceError):
    """No room for another page reference in the parent page."""


class FileLocked(FileServiceError):
    """A top or inner lock blocks this operation (super-file locking)."""


class NotASuperFile(FileServiceError):
    """A super-file operation was applied to a small file."""


class HoleReference(FileServiceError):
    """The path name traverses a hole (a nil reference) in the page tree."""


class CrossesSubFile(FileServiceError):
    """A path descends into a nested sub-file; sub-files are opened with
    their own capabilities, or via a super-file update (§5.3)."""


# ---------------------------------------------------------------------------
# Baseline (comparator) errors
# ---------------------------------------------------------------------------


class BaselineError(ReproError):
    """Base class for baseline comparator systems (XDFS-style, SWALLOW-style)."""


class TransactionAborted(BaselineError):
    """The baseline transaction was aborted and must be retried."""


class TimestampConflict(BaselineError):
    """Timestamp-ordering violation (SWALLOW-style baseline)."""
