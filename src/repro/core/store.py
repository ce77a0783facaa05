"""The page store: a file server's view of block storage.

Wraps a :class:`repro.block.sharding.ShardedBlockClient` with

* (de)serialisation between :class:`repro.core.page.Page` and disk blocks,
* a server-side :class:`repro.core.cache.PageCache`, and
* **deferred writes** for private pages: "When a page in a version is
  written, it need not be written to stable storage immediately.  This can
  be postponed until just before commit." (§5.4).  Private (shadowed) pages
  accumulate dirty in memory; :meth:`flush` pushes them out, and commit
  calls it first — "First it ascertains that all of V.b's pages are safely
  on disk" (§5.2).  The deferral covers a brand-new page's block *number*
  too (delayed allocation): until the flush that first writes it, the
  page has a provisional number private to this store, and that flush
  draws every real number it needs in one exchange per shard.

Shared, committed pages are immutable on disk (copy-on-write), so caching
them is always safe.  Version pages are the exception — their commit
reference and lock fields change in place — so every operation that can
mutate a version page on disk (test-and-set, lock writes) invalidates its
cache entry, and reads of version pages during commit bypass the cache.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.block.sharding import ShardedBlockClient
from repro.block.stable import Swap
from repro.block.server import TasResult
from repro.core.cache import PageCache
from repro.errors import NoSuchBlock
from repro.core.page import (
    COMMIT_REF_OFFSET,
    COMMIT_REF_SIZE,
    NIL,
    NIL_COMMIT_REF,
    Page,
    pack_commit_ref,
)
from repro.obs import NULL_RECORDER


class PageStore:
    """Block I/O for one file server."""

    def __init__(
        self,
        blocks: ShardedBlockClient,
        cache: PageCache | None = None,
        recorder=None,
    ) -> None:
        self.blocks = blocks
        self.cache = cache if cache is not None else PageCache()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._dirty: dict[int, Page] = {}
        self._provisional = NIL  # the last provisional number handed out
        self._wanted, self._reserved = 0, []  # :meth:`reserving`'s state

    # -- reads -----------------------------------------------------------

    def load(self, block: int, fresh: bool = False) -> Page:
        """Load the page stored in ``block``.

        ``fresh=True`` bypasses the cache (used on version pages whose
        commit reference another server may have just set).  Dirty
        not-yet-flushed pages are always served from memory.
        """
        # Single atomic lookup: a lock-free snapshot read can race a
        # commit's flush clearing this entry between a membership test
        # and the access.
        dirty = self._dirty.get(block)
        if dirty is not None:
            return dirty
        if not fresh:
            cached = self.cache.get(block)
            if cached is not None:
                return cached
        page = Page.from_bytes(self._read(block))
        self.cache.put(block, page)
        return page

    def peek(self, block: int) -> Page:
        """Load the page in ``block`` without caching it: for pages of a
        version open on another server, which may rewrite them in place
        until it publishes — a cached copy would pass for the final page."""
        dirty = self._dirty.get(block)
        if dirty is not None:
            return dirty
        return Page.from_bytes(self._read(block))

    def _read(self, block: int) -> bytes:
        if block < 0:  # flushed under its real number since, or dropped
            raise NoSuchBlock(f"provisional block {block} is not in this store")
        return self.blocks.read(block)

    # -- writes ------------------------------------------------------------

    def store_new(self, page: Page) -> int:
        """Take a block for a new page; the data write is deferred.

        A brand-new page (no base, not a version page) gets a provisional
        number, renamed by the :meth:`flush` that writes it.  A version
        page (its number names the version) or a shadow is numbered now.
        """
        if page.base_ref == NIL and not page.is_version_page:
            self._provisional -= 1
            self._dirty[self._provisional] = page
            return self._provisional
        if self._wanted:
            self._reserved = self.blocks.allocate_many(self._wanted)[::-1]
            self._wanted = 0
        block = self._reserved.pop() if self._reserved else self.blocks.allocate()
        self._dirty[block] = page
        self.cache.put(block, page)
        return block

    @contextmanager
    def reserving(self, count: int) -> Iterator[None]:
        """Inside, the first :meth:`store_new` allocates ``count`` numbers
        in one exchange and later ones draw from them.  Unused ones are
        dropped on leaving — owned, unreferenced: the collector reaps
        them — and a request that fails before any store_new takes none."""
        self._wanted = count
        try:
            yield
        finally:
            self._wanted = 0
            self._reserved = []

    def store_durable(self, page: Page) -> int:
        """Number and write a page in one exchange (``allocate_write``):
        for a version page durable the moment it exists — a new file's,
        or a new sub-file's, which an open update's tree points at."""
        block = self.blocks.allocate_write(page.to_bytes())
        self.cache.put(block, page)
        return block

    def store_in_place(self, block: int, page: Page) -> None:
        """Rewrite a private page in its existing block.

        "After it has been copied for writing, it can be written in place
        when it is written again."  Deferred until the next flush.
        """
        self._dirty[block] = page
        if block > NIL:  # a provisional page is cached by its flush
            self.cache.put(block, page)

    # Histogram buckets for pages-per-flush (commit batch sizes).
    _FLUSH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

    def flush(
        self,
        reason: str = "commit",
        swaps: list[Swap] = (),
        outcomes: list[TasResult] | None = None,
        only: list[int] | None = None,
    ) -> int:
        """Write all dirty pages (or those in ``only``, leaving the rest
        of the deferred set alone) to stable storage; returns how many.
        Provisional ones among them are numbered first (:meth:`_number`).

        The flush is one ``write_many`` request, grouped by the block
        client into one transaction per shard, so an M-page commit costs
        O(shards) round trips instead of O(M).

        ``swaps`` are conditional swaps that ride the same request behind
        the pages (:meth:`tas_commit_refs`); their results are appended to
        ``outcomes``.  The dirty set is cleared only once the request has
        succeeded, so a refused or failed flush can simply be retried.

        ``reason`` distinguishes the callers in traces (a plain commit's
        flush vs a group commit's single batched flush).
        """
        picked = list(self._dirty) if only is None else [
            block for block in only if block in self._dirty
        ]
        if not picked and not swaps:
            return 0
        if any(block < 0 for block in picked):
            picked = self._number(picked)
        recorder = self.recorder
        items = sorted((block, self._dirty[block]) for block in picked)
        with recorder.span("flush", pages=len(items), reason=reason) as span:
            writes = [(block, page.to_bytes()) for block, page in items]
            results = self.blocks.write_many(writes, swaps)
            if outcomes is not None:
                outcomes.extend(results)
            if recorder.enabled:
                for block, page in items:
                    recorder.event(
                        "store.page_flush",
                        block=block,
                        version_page=page.is_version_page,
                    )
                recorder.observe(
                    "store.flush_pages", len(items), bounds=self._FLUSH_BUCKETS
                )
        for block, _ in items:
            self._dirty.pop(block, None)
        return len(items)

    def _number(self, picked: list[int]) -> list[int]:
        """Number the provisional pages among ``picked`` in creation order,
        one ``allocate`` per shard, and rename them in every dirty page,
        the dirty set and the cache; returns ``picked`` renamed."""
        fresh = sorted((block for block in picked if block < 0), reverse=True)
        numbers = dict(zip(fresh, self.blocks.allocate_spread(len(fresh))))
        for page in self._dirty.values():
            page.renumber(numbers)
        self._dirty = {numbers.get(b, b): page for b, page in self._dirty.items()}
        for block in numbers.values():
            self.cache.put(block, self._dirty[block])
        return [numbers.get(block, block) for block in picked]

    def store_mutable(self, block: int, page: Page) -> int:
        """Store an updated private page, returning its (possibly new)
        block number.

        On rewritable media this is :meth:`store_in_place`.  Hybrid stores
        override it: a page whose optical block is already burned must
        *relocate* to a fresh block — the merge walk propagates the new
        number into the parent's reference table.
        """
        self.store_in_place(block, page)
        return block

    def forget(self, block: int) -> None:
        """Drop a block from the dirty set and cache (aborted versions)."""
        self._dirty.pop(block, None)
        self.cache.invalidate(block)

    def free(self, block: int) -> None:
        """Deallocate a block (GC, aborts); a provisional one has none."""
        self._dirty.pop(block, None)
        if block > NIL:
            self.cache.invalidate(block)
            self.blocks.free(block)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    # -- the commit critical section ------------------------------------------
    #
    # §5.2: "If the disk server implements a test-and-set operation, any
    # server can be allowed to carry out a commit."  The block tier's
    # compare-and-swap is that operation, and it rides the commit's flush.

    def tas_commit_ref(
        self, block: int, new_successor: int, reason: str = "commit"
    ) -> TasResult:
        """Flush, and in the same request atomically set ``block``'s commit
        reference from nil to ``new_successor``; on failure the result
        carries the commit reference that was already there (the winning
        successor).

        This is the paper's single critical section: "test and set the
        commit reference".
        """
        return self.tas_commit_refs([(block, new_successor)], reason)[0]

    def tas_commit_refs(
        self, refs: list[tuple[int, int]], reason: str = "commit"
    ) -> list[TasResult]:
        """The commit as one stable-storage request: every dirty page,
        then the test-and-set of each ``(block, new_successor)`` commit
        reference — "First it ascertains that all of V.b's pages are
        safely on disk", and the block tier keeps that order on every disk
        (pages before reference, ``StableServer.cmd_write_many``).  A lost
        test-and-set still leaves the pages flushed.
        """
        assert not any(block in self._dirty for block, _ in refs), (
            "a version page awaiting its successor must not be buffered"
        )
        results: list[TasResult] = []
        self.flush(
            reason,
            [
                (block, COMMIT_REF_OFFSET, NIL_COMMIT_REF, pack_commit_ref(new))
                for block, new in refs
            ],
            results,
        )
        for (block, _), result in zip(refs, results):
            self.cache.invalidate(block)
            if self.recorder.enabled:
                self.recorder.event(
                    "store.tas_commit", block=block, success=result.success
                )
        return results

    # -- the committed chain (§5.4.1) ------------------------------------------

    def commits_from(self, block: int) -> Iterator[tuple[int, Page]]:
        """Each version page from the committed one in ``block`` forward
        along commit references, loaded fresh (any server may have just
        set one); the last is the current version."""
        while True:
            page = self.load(block, fresh=True)
            yield block, page
            if page.commit_ref == NIL:
                return
            block = page.commit_ref

    def history_of(self, block: int) -> list[int]:
        """The committed chain ending at ``block``, newest first: back
        along base references while the base's commit reference names us."""
        chain = [block]
        while True:
            base = self.load(chain[-1], fresh=True).base_ref
            if base == NIL or self.load(base, fresh=True).commit_ref != chain[-1]:
                return chain
            chain.append(base)

    def read_commit_ref(self, block: int) -> int:
        """The commit reference currently stored in a version page."""
        page = self.load(block, fresh=True)
        return page.commit_ref

    def rewrite_version_page(
        self, block: int, page: Page, keep_base: bool = True
    ) -> bool:
        """Rewrite a committed version page in place WITHOUT touching its
        commit reference bytes; returns False if the page changed under us.

        A committed version page has exactly one concurrently-mutable
        field: the commit reference, which any server may test-and-set at
        any moment (§5.2's critical section).  A whole-page write racing
        that test-and-set — even one sitting in the deferred buffer and
        flushed later — can overwrite the freshly-set reference with the
        stale nil we loaded earlier, re-arming the critical section so a
        SECOND successor commits and the version chain forks.  So the
        garbage collector's in-place rewrites (resharing, pruning) go
        through this primitive instead: one block-level compare-and-swap
        covering every byte AFTER the commit reference.  The swap is
        atomic at the block server, never writes the commit-reference
        bytes, and fails — rather than clobbers — if anything else in the
        page (base reference, locks) moved since we read it.
        """
        assert block not in self._dirty, "version page must not be buffered"
        raw = bytes(self.blocks.read(block))
        fresh = Page.from_bytes(raw)
        page.commit_ref = fresh.commit_ref
        if keep_base:
            page.base_ref = fresh.base_ref
        page.top_lock = fresh.top_lock
        page.inner_lock = fresh.inner_lock
        new = page.to_bytes()
        start = COMMIT_REF_OFFSET + COMMIT_REF_SIZE
        if len(new) != len(raw):
            # The page changed shape (e.g. the table grew) — a plain
            # region swap cannot express that; let the caller retry later.
            self.cache.invalidate(block)
            return False
        result = self.blocks.test_and_set(block, start, raw[start:], new[start:])
        # Whatever happened, the cached copy is now unreliable (on success
        # its commit reference may lag the disk; on failure its refs do).
        self.cache.invalidate(block)
        return result.success


class HybridPageStore(PageStore):
    """A page store over hybrid media (Figure 2): version pages on the
    magnetic pair, everything else on the write-once optical pair.

    An optical block must be written exactly once, which the
    flush-at-commit discipline guarantees (each private page reaches its
    optical block once, with its final content).
    """

    def store_new(self, page: Page) -> int:
        if page.is_version_page:
            block = self.blocks.allocate_magnetic()
        else:
            block = self.blocks.allocate_optical()
        self._dirty[block] = page
        self.cache.put(block, page)
        return block

    def store_mutable(self, block: int, page: Page) -> int:
        """Store an updated private page; relocate if its optical block is
        already burned (version pages on magnetic media stay in place)."""
        if block in self._dirty or not self.blocks.is_optical(block):
            self.store_in_place(block, page)
            return block
        # The old optical copy is unreachable garbage the moment the
        # parent's reference moves; account the loss and burn a new block.
        self.blocks.free(block)
        self.cache.invalidate(block)
        new_block = self.blocks.allocate_optical()
        self._dirty[new_block] = page
        self.cache.put(new_block, page)
        return new_block
