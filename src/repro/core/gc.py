"""The garbage collector.

"A garbage collector that runs independent of, and in parallel with, the
operation of the system" (abstract).  Its three jobs:

* **Sweep** — free blocks no longer reachable from any live version
  (aborted versions' leftovers, subtrees orphaned by wholesale merge
  grafts, pruned history).
* **Reshare** — "The Amoeba File Service garbage collector may remove pages
  that were copied but not written or modified and reshare the
  corresponding page from the version on which it was based" (§5.1): a
  committed version's subtree that carries no W or M anywhere is
  semantically identical to its base's subtree, so the reference is
  redirected to the base's block and the copies become garbage.
* **Reap** — abort uncommitted versions whose managing server is gone
  ("uncommitted versions need not be salvaged in a server crash").

Parallelism is cooperative, like everything in the simulation: the
incremental interface (:meth:`GarbageCollector.run_incremental`) yields
between page visits so the scheduler can interleave it with live client
updates.  Safety under that interleaving rests on two rules: the sweep
frees only blocks that were already allocated when the cycle *started* and
are still unmarked and unreferenced at its end, and resharing is skipped
for files that have uncommitted versions (whose pages hold base references
into the trees being reshaped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.errors import BlockError
from repro.core.flags import Flags
from repro.core.page import NIL, Page, PageRef
from repro.core.registry import FileEntry, FileRegistry
from repro.core.store import PageStore


@dataclass
class GcStats:
    """What one collection cycle did."""

    marked: int = 0
    swept: int = 0
    reshared: int = 0
    reaped_versions: int = 0
    pages_visited: int = 0
    # True when some live root or page could not be loaded during marking
    # (e.g. another server reserved the block but has not flushed its data
    # yet).  The subtree behind it is unmarked, so sweeping would free live
    # blocks: the cycle skips its sweep and leaves garbage for the next one.
    mark_incomplete: bool = False
    sweep_skipped: bool = False


class GarbageCollector:
    """Mark/sweep plus resharing over one file service's block account."""

    def __init__(self, service) -> None:
        self.service = service
        self.store: PageStore = service.store
        self.registry: FileRegistry = service.registry

    # ------------------------------------------------------------------
    # roots and marking
    # ------------------------------------------------------------------

    def _roots(self, stats: GcStats | None = None) -> set[int]:
        """Every version page block that anchors live data: the full
        committed chain of every file, plus uncommitted version roots.

        A chain walk that hits an unreadable block (another server's
        version root, reserved but not yet flushed) keeps what it found and
        flags the cycle incomplete rather than crashing the collector.
        """
        roots: set[int] = set()
        for entry in self.registry.files.values():
            chain: list[int] = []
            try:
                # Forward along commit references to current...
                for block, _ in self.store.commits_from(entry.entry_block):
                    chain.append(block)
                # ...and back along base references while each is
                # committed at all: a root set must never shrink.
                block = self.store.load(chain[0], fresh=True).base_ref
                while block != NIL:
                    page = self.store.load(block, fresh=True)
                    if page.commit_ref == NIL:
                        break  # not part of the committed chain
                    chain.append(block)
                    block = page.base_ref
            except BlockError:
                if stats is not None:
                    stats.mark_incomplete = True
            roots.update(chain)
        roots.update(self.registry.live_version_roots())
        return roots

    def _mark_tree(
        self, block: int, marked: set[int], stats: GcStats, open_version: bool
    ) -> Generator[None, None, None]:
        """Mark every block reachable from a page tree root.  The tree of
        an ``open_version`` is read without caching (``PageStore.peek``)."""
        load = self.store.peek if open_version else self.store.load
        stack = [block]
        while stack:
            current = stack.pop()
            if current in marked or current == NIL:
                continue
            marked.add(current)
            stats.marked += 1
            try:
                page = load(current)
            except BlockError:
                # Either the block is already freed (harmless) or another
                # server reserved it and has not flushed the data yet — we
                # cannot tell which, and in the second case the children are
                # now unreachable to us.  Be conservative: flag the mark.
                stats.mark_incomplete = True
                continue
            stats.pages_visited += 1
            for ref in page.refs:
                if not ref.is_nil and ref.block not in marked:
                    stack.append(ref.block)
            yield

    # ------------------------------------------------------------------
    # resharing (§5.1)
    # ------------------------------------------------------------------

    def _reshare_version(
        self, file_entry: FileEntry, root_block: int, stats: GcStats
    ) -> Generator[None, None, None]:
        """Reshare copied-but-unchanged subtrees of one committed version."""
        root = self.store.load(root_block, fresh=True)
        rewritten: list[int] = []
        changed = yield from self._reshare_page(root, stats, rewritten)
        if changed or rewritten:
            # Other servers' cached copies name the pages the sweep frees:
            # the table stops naming the version, so their readers chase.
            file_entry.rewrite()
            # The walk yields between page visits, and a concurrent commit
            # may test-and-set this version's commit reference at any of
            # them — including between the shard batches of a deferred
            # flush.  A whole-page write of our stale copy would reset the
            # commit reference to nil; the commit critical section would
            # then accept a SECOND successor and fork the version chain (a
            # lost update).  So the root never goes through the deferred
            # buffer: the interior redirections are flushed first, then
            # the root is rewritten by a block-level compare-and-swap that
            # leaves the commit-reference bytes untouched.  If that swap
            # fails (the header moved under us), the redirects are
            # abandoned — the cache is dropped so memory agrees with disk
            # and a later cycle reshares again.  Only the pages the walk
            # rewrote are flushed: the rest of the deferred set belongs to
            # updates still open on this server.
            try:
                self.store.flush("reshare", only=rewritten)
                swapped = self.store.rewrite_version_page(root_block, root)
            except BlockError:
                self.store.forget(root_block)
                raise
            if not swapped:
                self.store.forget(root_block)

    def _reshare_page(
        self, page: Page, stats: GcStats, rewritten: list[int]
    ) -> Generator[None, bool, bool]:
        changed = False
        for index, ref in enumerate(page.refs):
            if ref.is_nil or not ref.flags.c:
                continue
            if self._subtree_clean(ref.block, ref.flags):
                child = self.store.load(ref.block)
                if child.base_ref != NIL:
                    page.set_ref(index, PageRef(child.base_ref, Flags()))
                    stats.reshared += 1
                    changed = True
                continue
            # Subtree contains real changes: recurse to reshare below them.
            if ref.flags.s:
                child = self.store.load(ref.block)
                stats.pages_visited += 1
                child_changed = yield from self._reshare_page(child, stats, rewritten)
                if child_changed:
                    self.store.store_in_place(ref.block, child)
                    rewritten.append(ref.block)
            yield
        return changed

    def _subtree_clean(self, block: int, flags: Flags) -> bool:
        """True if no page in the subtree was written or restructured."""
        if flags.w or flags.m:
            return False
        page = self.store.load(block)
        return all(
            ref.is_nil
            or not ref.flags.c
            or self._subtree_clean(ref.block, ref.flags)
            for ref in page.refs
        )

    # ------------------------------------------------------------------
    # reaping orphaned updates
    # ------------------------------------------------------------------

    def reap_orphans(self) -> int:
        """Abort uncommitted versions whose managing server is dead, and
        purge registry entries of versions already aborted (their blocks
        are long freed; only the tombstone remains)."""
        reaped = 0
        network = self.service.network
        for entry in list(self.registry.versions.values()):
            if entry.status == "aborted":
                self.registry.drop_version(entry.obj)
                continue
            if entry.status != "uncommitted":
                continue
            if entry.server and not network.is_up(entry.server):
                self.service._remove_version(entry)
                self.registry.drop_version(entry.obj)
                reaped += 1
        return reaped

    # ------------------------------------------------------------------
    # the cycle
    # ------------------------------------------------------------------

    def run_incremental(
        self, reshare: bool = True, reap: bool = True
    ) -> Generator[None, None, GcStats]:
        """One collection cycle as a generator (schedulable in parallel
        with live updates).  Returns the cycle's statistics."""
        stats = GcStats()
        from repro.core.store import HybridPageStore

        if isinstance(self.store, HybridPageStore):
            # Resharing rewrites committed interior pages in place, which
            # write-once optical media cannot do: sweep-only on hybrid.
            reshare = False
        if reap:
            stats.reaped_versions = self.reap_orphans()
            yield
        # Snapshot the allocation state before marking.
        snapshot = set(self.store.blocks.recover())
        yield
        if reshare:
            # Only the *current* version of each file is reshared: pages of
            # older versions may still be the targets of base references in
            # later versions' pages (the merge correlates through them), so
            # their read-copies are reclaimed by history pruning instead.
            for file_entry in list(self.registry.files.values()):
                if file_entry.open:
                    continue
                block, _ = self.service._resolve_current(file_entry)
                yield from self._reshare_version(file_entry, block, stats)
        marked: set[int] = set()
        roots = self._roots(stats)
        # Taken after the roots: a version published since has its final
        # pages on disk, and every one still open is among these.
        versions = list(self.registry.versions.values())
        open_roots = {v.root_block for v in versions if v.status == "uncommitted"}
        for root in roots:
            yield from self._mark_tree(root, marked, stats, root in open_roots)
        if stats.mark_incomplete:
            # Some live subtree could not be fully traversed, so "unmarked"
            # does not imply "garbage".  Skip the sweep; the next cycle
            # (after the owning server flushed or the version died) gets it.
            stats.sweep_skipped = True
            return stats
        # Sweep: only blocks that existed at the snapshot and are still
        # unreachable now.  Blocks allocated during the cycle are spared.
        still_allocated = set(self.store.blocks.recover())
        for block in sorted(snapshot & still_allocated - marked):
            if block in self.store._dirty:
                continue  # an in-flight private page of this very server
            self.store.free(block)
            stats.swept += 1
            yield
        return stats

    def collect(self, reshare: bool = True, reap: bool = True) -> GcStats:
        """Run one full collection cycle synchronously."""
        gen = self.run_incremental(reshare, reap)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    # ------------------------------------------------------------------
    # history pruning
    # ------------------------------------------------------------------

    def truncate_history(self, file_cap, keep: int = 1) -> int:
        """Drop all but the newest ``keep`` committed versions of a file.

        The oldest retained version becomes the start of the chain (its
        base reference is cut to nil); pruned version pages and the pages
        only they referenced become garbage for the next sweep.  Returns
        the number of versions pruned.
        """
        if keep < 1:
            raise ValueError("must keep at least the current version")
        entry = self.service._file_entry(file_cap)
        current, _ = self.service._resolve_current(entry)
        chain = self.store.history_of(current)
        if len(chain) <= keep:
            return 0
        cutoff = chain[keep - 1]  # oldest version we keep
        pruned = chain[keep:]
        # The cutoff may be the current version, whose commit reference a
        # concurrent commit can test-and-set at any moment: cut the base
        # reference with the commit-ref-preserving compare-and-swap rather
        # than a whole-page write (same fork hazard as resharing).  Cached
        # copies elsewhere keep the old base: the table stops naming it.
        entry.rewrite()
        while True:
            cut_page = self.store.load(cutoff, fresh=True)
            cut_page.base_ref = NIL
            if self.store.rewrite_version_page(cutoff, cut_page, keep_base=False):
                break
        entry.advance(current)
        for block in pruned:
            version = self.registry.version_by_block(block)
            if version is not None:
                self.registry.drop_version(version.obj)
        return len(pruned)
