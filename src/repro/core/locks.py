"""Atomic operations on the top/inner lock fields of version pages (§5.3).

"Each version page contains two lock fields, the top lock field, and the
inner lock field.  A file is considered to be locked if the lock field is
non-zero.  Locks only have meaning in the current version.  We assume it is
possible to test the two lock fields for zero and set one of them in one
atomic operation."

The lock fields hold the *port* of the update owning the lock ("locks are
made of ports, which are used to realise an automatic warning mechanism for
waiting updates"): a waiter can identify the holding update, probe whether
its server is still alive, and — if the holder crashed — perform the §5.3
recovery itself (see :class:`repro.core.system_tree.SystemTree`).

The atomicity the paper assumes is provided by the block server's
test-and-set: the two 8-byte lock fields are adjacent in the page header,
so a single 16-byte compare-and-swap tests both and sets one.

Only super-file updates set these on-disk fields, because a waiter's crash
recovery reads them.  Small files "set only their top lock and never wait
for it", so their top lock is a hint and lives as file-server soft state:
``FileEntry.open`` in the shared registry lists each open version with
its update's port, and the lock is held while it is non-empty.  Beginning
or aborting a small update writes nothing to stable storage, and one
ending never clears another's lock.  A small update still tests the
durable inner lock, on the base page it reads afresh anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.page import INNER_LOCK_OFFSET, LOCK_SIZE, TOP_LOCK_OFFSET
from repro.core.store import PageStore

_BOTH_SIZE = 2 * LOCK_SIZE
assert INNER_LOCK_OFFSET == TOP_LOCK_OFFSET + LOCK_SIZE


def _pack(value: int) -> bytes:
    return value.to_bytes(LOCK_SIZE, "big")


def _pack_both(top: int, inner: int) -> bytes:
    return _pack(top) + _pack(inner)


@dataclass(frozen=True)
class LockSnapshot:
    """The two lock fields of a version page at one instant."""

    top: int
    inner: int

    @property
    def any_locked(self) -> bool:
        return self.top != 0 or self.inner != 0


class LockOps:
    """Lock-field primitives over a page store."""

    def __init__(self, store: PageStore) -> None:
        self.store = store

    def read(self, block: int) -> LockSnapshot:
        """Fresh read of both lock fields of a version page."""
        page = self.store.load(block, fresh=True)
        return LockSnapshot(page.top_lock, page.inner_lock)

    # -- top lock ----------------------------------------------------------

    def set_top(self, block: int, observed: LockSnapshot, port: int) -> bool:
        """The small-file rule on disk: set the top lock to ``port``
        provided the inner lock is clear and the fields still match
        ``observed`` (an existing top lock is overwritten).  Small updates
        keep their hint in the registry instead; §5.3's relaxed super-file
        update still takes its top lock this way."""
        if observed.inner != 0:
            return False
        result = self.store.blocks.test_and_set(
            block,
            TOP_LOCK_OFFSET,
            _pack_both(observed.top, 0),
            _pack_both(port, 0),
        )
        self.store.cache.invalidate(block)
        return result.success

    def set_top_exclusive(self, block: int, port: int) -> bool:
        """Super-file rule: set the top lock only if *both* fields are zero
        ("check the inner lock and top lock fields, and, if they are both
        zero, set the top lock")."""
        result = self.store.blocks.test_and_set(
            block, TOP_LOCK_OFFSET, _pack_both(0, 0), _pack_both(port, 0)
        )
        self.store.cache.invalidate(block)
        return result.success

    def clear_top_if(self, block: int, port: int) -> bool:
        """Clear the top lock if it is still held by ``port``."""
        result = self.store.blocks.test_and_set(
            block, TOP_LOCK_OFFSET, _pack(port), _pack(0)
        )
        self.store.cache.invalidate(block)
        return result.success

    def force_clear_top(self, block: int) -> None:
        """Unconditionally clear the top lock (crash recovery by a waiter
        that has established the holder is dead)."""
        page = self.store.load(block, fresh=True)
        if page.top_lock == 0:
            return
        self.store.blocks.test_and_set(
            block, TOP_LOCK_OFFSET, _pack(page.top_lock), _pack(0)
        )
        self.store.cache.invalidate(block)

    # -- inner lock ----------------------------------------------------------

    def set_inner(self, block: int, port: int) -> bool:
        """Set the inner lock of a sub-file's version page, provided both
        fields are clear (a set top lock means a sub-file update is in
        progress and the super-file update "must wait until the lock is
        cleared before that subtree can be entered")."""
        result = self.store.blocks.test_and_set(
            block, TOP_LOCK_OFFSET, _pack_both(0, 0), _pack_both(0, port)
        )
        self.store.cache.invalidate(block)
        return result.success

    def clear_inner_if(self, block: int, port: int) -> bool:
        """Clear the inner lock if it is still held by ``port``."""
        result = self.store.blocks.test_and_set(
            block, INNER_LOCK_OFFSET, _pack(port), _pack(0)
        )
        self.store.cache.invalidate(block)
        return result.success

    def force_clear_inner(self, block: int) -> None:
        """Unconditionally clear the inner lock (crash recovery)."""
        page = self.store.load(block, fresh=True)
        if page.inner_lock == 0:
            return
        self.store.blocks.test_and_set(
            block, INNER_LOCK_OFFSET, _pack(page.inner_lock), _pack(0)
        )
        self.store.cache.invalidate(block)
