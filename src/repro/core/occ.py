"""Optimistic concurrency control: the serialisability test and merge.

§5.2 of the paper.  The Kung-Robinson validation conditions reduce, because
validation's critical section and the write phase are one atomic action, to:

1. version ``V.b`` commits while its base is still the current version
   (pure test-and-set of the commit reference; no tree walk at all), or
2. the write set of the committed concurrent version ``V.c`` does not
   intersect the read set of ``V.b``; then ``V.b`` may commit *after*
   ``V.c``.

Condition 2 is checked by ``serialise``: "it can descend V.c's and V.b's
page trees in parallel to examine if there is a serialisability conflict.
This is tested using the R, W, S, M, and C flags in the page references.
Note that uncopied parts of the tree in either V.b or V.c need not be
visited since they can neither have been read nor written."

Page ``X``'s data and its reference table are independent channels:
``V.c`` *writing* X's data (W) conflicts with ``V.b`` *reading* it (R);
``V.c`` *modifying* X's references (M) conflicts with ``V.b`` *searching*
them (S).  Blind write/write overlaps are not conflicts — ``V.b`` is
serialised after ``V.c`` and its value stands.

"While descending the two page trees, checking the serialisability
constraint, M.b also prepares the new current version [...] by replacing
unaccessed parts in V.b's page tree by corresponding written parts in
V.c's page tree."  ``serialise`` performs this merge in the same pass:

* where ``V.b`` never accessed a subtree that ``V.c`` changed, ``V.b``'s
  reference is redirected to ``V.c``'s subtree (shared, flags clear);
* where both versions copied a page (no conflict), the pages are merged
  field-wise: data from whichever version wrote it (V.b wins blind
  write/write), references recursively.

One relaxation sits on top of the paper's rules: when both versions
*wrote* a page that is typed ``mergeable`` (a directory entry table; see
:mod:`repro.merge`), the W/R and W/W overlap is not necessarily fatal —
a merge policy gets a chance to reconcile the two tables three-way
against their common base (``V.c``'s base reference names it precisely).
Distinct-entry adds and removes commute; same-entry divergence or an
undecodable table falls back to the strict conflict.  Pages without the
flag, and the reference channel (M/S), are never merged semantically.

Pages that ``V.b`` *created* (inserted; base reference nil) have no
counterpart in ``V.c`` and are kept as-is.  When ``V.b`` restructured a
reference table (M) that ``V.c`` only navigated (S), index alignment is
lost, so children are matched by the block they were *based on* — the
base-reference field every page carries exists exactly to make this
correlation possible.

The walk visits only pages **copied in both versions**, so its cost is
proportional to the size of the intersection of the two accessed sets
(claim C2), and it runs entirely on committed/private pages, so it needs
no locks and can proceed in parallel with other commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.flags import Flags
from repro.core.page import NIL, Page, PageRef
from repro.core.pathname import PagePath
from repro.core.store import PageStore
from repro.errors import MergeConflict
from repro.obs import NULL_RECORDER


class _Conflict(Exception):
    """Internal: unwinds the walk when serialisation fails."""

    def __init__(self, path: PagePath, reason: str) -> None:
        super().__init__(f"conflict at page {path or '<root>'}: {reason}")
        self.path = path
        self.reason = reason


@dataclass
class SerialiseResult:
    """Outcome of the serialisability test between two versions."""

    ok: bool
    conflict_path: PagePath | None = None
    reason: str = ""
    pages_visited: int = 0
    grafts: int = 0  # V.c subtrees adopted into V.b
    semantic_merges: int = 0  # W/W overlaps reconciled by the merge policy
    merged_paths: list[PagePath] = field(default_factory=list)


def _resolve_pair(
    store: PageStore,
    b_page: Page,
    c_page: Page,
    b: Flags,
    c: Flags,
    path: PagePath,
    result: SerialiseResult,
    policy,
) -> bytes | None:
    """The conflict relation between V.b's and V.c's flags for one page,
    with the semantic-merge escape hatch: when both sides wrote a
    mergeable page and a policy is installed, return the reconciled data
    instead of conflicting.  Returns ``None`` when the paper's rules
    apply unchanged."""
    if c.m and b.s:
        raise _Conflict(path, "V.c modified references that V.b searched")
    if (
        policy is not None
        and c.w
        and b.w
        and b_page.mergeable
        and c_page.mergeable
    ):
        merged = _semantic_merge(store, b_page, c_page, path, policy)
        result.semantic_merges += 1
        result.merged_paths.append(path)
        return merged
    if c.w and b.r:
        raise _Conflict(path, "V.c wrote data that V.b read")
    return None


def _semantic_merge(
    store: PageStore, b_page: Page, c_page: Page, path: PagePath, policy
) -> bytes:
    """Three-way merge of two concurrent rewrites of a mergeable page.

    The common base is the page ``V.c`` was copied from — its base
    reference survives commit untouched, and earlier serialise rounds
    rebased ``V.b`` onto the same chain, so both tables descend from it.
    """
    if c_page.base_ref == NIL:
        raise _Conflict(path, "merge: concurrent pages share no base")
    try:
        base_page = store.load(c_page.base_ref)
    except Exception:
        raise _Conflict(
            path, "merge: base page unavailable; cannot merge entry tables"
        )
    try:
        return policy.merge(base_page.data, b_page.data, c_page.data)
    except MergeConflict as exc:
        raise _Conflict(path, f"merge: {exc}")


def serialise(
    store: PageStore,
    b_root: int,
    c_root: int,
    merge: bool = True,
    recorder=None,
    policy=None,
) -> SerialiseResult:
    """Test whether ``V.b`` (root block ``b_root``, uncommitted) can be
    serialised after ``V.c`` (root block ``c_root``, committed), merging
    ``V.c``'s updates into ``V.b``'s tree as it goes.

    Returns a :class:`SerialiseResult`; on ``ok=False`` the caller must
    abort ``V.b`` ("V.b is removed, and its owner notified").  The merge
    mutates ``V.b``'s private pages in memory; a failed test may leave them
    partially merged, which is harmless because the version is discarded.
    """
    if recorder is None:
        recorder = NULL_RECORDER
    with recorder.span("serialise", b_root=b_root, c_root=c_root) as span:
        result = _serialise(store, b_root, c_root, merge, policy)
        span.tag(
            ok=result.ok,
            pages_visited=result.pages_visited,
            grafts=result.grafts,
            semantic_merges=result.semantic_merges,
        )
        if not result.ok:
            span.tag(reason=result.reason)
    return result


def _serialise(
    store: PageStore, b_root: int, c_root: int, merge: bool, policy=None
) -> SerialiseResult:
    result = SerialiseResult(ok=True)
    b_page = store.load(b_root)
    c_page = store.load(c_root)
    try:
        merged_data = _resolve_pair(
            store,
            b_page,
            c_page,
            b_page.root_flags,
            c_page.root_flags,
            PagePath.ROOT,
            result,
            policy,
        )
        _merge_pair(
            store,
            b_root,
            b_page,
            c_page,
            b_page.root_flags,
            c_page.root_flags,
            c_root,
            PagePath.ROOT,
            result,
            merge,
            policy,
            merged_data,
        )
    except _Conflict as conflict:
        return SerialiseResult(
            ok=False,
            conflict_path=conflict.path,
            reason=conflict.reason,
            pages_visited=result.pages_visited,
            grafts=result.grafts,
            semantic_merges=result.semantic_merges,
        )
    return result


def _merge_pair(
    store: PageStore,
    b_block: int,
    b_page: Page,
    c_page: Page,
    b_flags: Flags,
    c_flags: Flags,
    c_block: int,
    path: PagePath,
    result: SerialiseResult,
    merge: bool,
    policy=None,
    merged_data: bytes | None = None,
) -> int:
    """Merge one corresponding page pair (conflict between the pair's own
    flags has already been checked by the caller, who hands over any
    semantically merged data).  Returns the merged page's block number —
    possibly a fresh one, when the store relocates pages whose old block
    cannot be rewritten (write-once media); the caller updates its
    reference accordingly.

    Besides combining the updates, the merge *rebases* ``V.b``'s page onto
    ``V.c``'s copy: the base reference is redirected to ``c_block`` so that
    a later round of this algorithm (against a version based on ``V.c``)
    can still correlate the pages.
    """
    result.pages_visited += 1
    changed = False

    if merge and b_page.base_ref != c_block:
        b_page.base_ref = c_block
        changed = True

    # Data channel: adopt V.c's data unless V.b wrote the page itself
    # (blind write/write: V.b is serialised after V.c, its value stands) —
    # or install the policy's reconciliation when both wrote a mergeable
    # entry table.
    if merged_data is not None:
        if merge and b_page.data != merged_data:
            b_page.data = merged_data
            changed = True
    elif c_flags.w and not b_flags.w:
        if merge and b_page.data != c_page.data:
            b_page.data = c_page.data
            changed = True

    # Reference channel.
    if c_flags.m:
        # V.c restructured this table; V.b never searched it (checked), so
        # adopt V.c's table wholesale, shared and unaccessed from V.b's view.
        if merge:
            b_page.refs = [PageRef(ref.block, Flags()) for ref in c_page.refs]
            changed = True
            result.grafts += 1
    elif c_flags.s:
        # V.c navigated below: it may have copied or changed children.
        if b_flags.m:
            changed |= _merge_restructured(
                store, b_page, c_page, path, result, merge, policy
            )
        else:
            changed |= _merge_aligned(
                store, b_page, c_page, path, result, merge, policy
            )

    if changed:
        if b_page.is_version_page:
            # The version page is the one page always rewritten in place.
            store.store_in_place(b_block, b_page)
            return b_block
        return store.store_mutable(b_block, b_page)
    return b_block


def _graft(b_page: Page, index: int, c_ref: PageRef, result: SerialiseResult) -> bool:
    """Redirect V.b's unaccessed reference to V.c's subtree (shared)."""
    if b_page.refs[index].block == c_ref.block:
        return False
    b_page.refs[index] = PageRef(c_ref.block, Flags())
    result.grafts += 1
    return True


def _merge_aligned(
    store: PageStore,
    b_page: Page,
    c_page: Page,
    path: PagePath,
    result: SerialiseResult,
    merge: bool,
    policy=None,
) -> bool:
    """Merge children when neither side restructured: index alignment holds.

    Both tables descend unmodified from the common base page, so they have
    the same length and index ``i`` names the same logical child in both.
    A length mismatch means the tables cannot be correlated after all
    (a missed M flag, a damaged page) — zipping would silently truncate
    the merge to the shorter table, so the walk conflicts instead:
    aborting ``V.b`` is always safe.
    """
    if len(b_page.refs) != len(c_page.refs):
        raise _Conflict(
            path,
            f"reference tables differ in length ({len(b_page.refs)} vs "
            f"{len(c_page.refs)}); cannot correlate unrestructured tables",
        )
    changed = False
    for index, (b_ref, c_ref) in enumerate(zip(b_page.refs, c_page.refs)):
        if not c_ref.flags.c:
            continue  # V.c shares the base's subtree; keep V.b's side.
        child_path = path.child(index)
        if not b_ref.flags.c:
            # V.b never touched this subtree: adopt V.c's copy of it.
            if merge:
                changed |= _graft(b_page, index, c_ref, result)
            continue
        b_child = store.load(b_ref.block)
        c_child = store.load(c_ref.block)
        merged_data = _resolve_pair(
            store,
            b_child,
            c_child,
            b_ref.flags,
            c_ref.flags,
            child_path,
            result,
            policy,
        )
        merged_block = _merge_pair(
            store,
            b_ref.block,
            b_child,
            c_child,
            b_ref.flags,
            c_ref.flags,
            c_ref.block,
            child_path,
            result,
            merge,
            policy,
            merged_data,
        )
        if merged_block != b_ref.block:
            b_page.refs[index] = PageRef(merged_block, b_ref.flags)
            changed = True
    return changed


def _merge_restructured(
    store: PageStore,
    b_page: Page,
    c_page: Page,
    path: PagePath,
    result: SerialiseResult,
    merge: bool,
    policy=None,
) -> bool:
    """Merge children when V.b restructured the table (M) and V.c only
    navigated it (S): index alignment is lost, so children are matched by
    the base block they were copied from."""
    base_map: dict[int, PageRef] = {}
    base_page = None
    if c_page.base_ref != NIL:
        try:
            base_page = store.load(c_page.base_ref)
        except Exception:
            # The base page is gone (history pruned): correlation through
            # it is impossible, so treat the situation as a conflict —
            # aborting the update is always safe.
            raise _Conflict(
                path, "base page unavailable; cannot correlate restructured table"
            )
    for index, c_ref in enumerate(c_page.refs):
        if not c_ref.flags.c:
            continue
        if base_page is not None and index < len(base_page.refs):
            original = base_page.refs[index].block
            if original != NIL:
                base_map[original] = c_ref

    changed = False
    for index, b_ref in enumerate(b_page.refs):
        if b_ref.is_nil:
            continue
        if not b_ref.flags.c:
            # Unaccessed by V.b: its block is still the base block.
            c_ref = base_map.get(b_ref.block)
            if c_ref is not None and merge:
                changed |= _graft(b_page, index, c_ref, result)
            continue
        # Accessed by V.b: correlate via the child's base reference.
        b_child = store.load(b_ref.block)
        if b_child.base_ref == NIL:
            continue  # page created by V.b; no counterpart in V.c
        c_ref = base_map.get(b_child.base_ref)
        if c_ref is None:
            continue  # V.c did not copy or change this child's subtree
        child_path = path.child(index)
        c_child = store.load(c_ref.block)
        merged_data = _resolve_pair(
            store,
            b_child,
            c_child,
            b_ref.flags,
            c_ref.flags,
            child_path,
            result,
            policy,
        )
        merged_block = _merge_pair(
            store,
            b_ref.block,
            b_child,
            c_child,
            b_ref.flags,
            c_ref.flags,
            c_ref.block,
            child_path,
            result,
            merge,
            policy,
            merged_data,
        )
        if merged_block != b_ref.block:
            b_page.refs[index] = PageRef(merged_block, b_ref.flags)
            changed = True
    return changed


# ---------------------------------------------------------------------------
# Chain serialisation (commit catch-up)
# ---------------------------------------------------------------------------


@dataclass
class ChainResult:
    """Outcome of serialising one version through a whole committed chain."""

    ok: bool
    tip: int  # last committed block the walk reached (the new base on ok)
    conflict_path: PagePath | None = None
    reason: str = ""
    serialise_runs: int = 0
    pages_visited: int = 0
    grafts: int = 0
    semantic_merges: int = 0
    merged_paths: list[PagePath] = field(default_factory=list)


def serialise_through(
    store: PageStore,
    b_root: int,
    first_successor: int,
    stop: int,
    merge: bool = True,
    recorder=None,
    policy=None,
) -> ChainResult:
    """Serialise ``V.b`` after every committed version from
    ``first_successor`` up to and including ``stop`` — the version the
    caller will attempt its test-and-set on — merging as it goes,
    without flushing or touching the critical section between steps: a
    version is caught up through the whole intervening chain in memory
    and pays for stable storage once at the end.

    ``stop``'s own commit reference is deliberately not read: if a
    newer version exists, the lost test-and-set is what reports it.
    The walk also ends where the chain does.  Returns a
    :class:`ChainResult` whose ``tip`` is the last committed version
    walked.
    """
    out = ChainResult(ok=True, tip=first_successor)
    successor = first_successor
    while True:
        result = serialise(
            store, b_root, successor, merge, recorder=recorder, policy=policy
        )
        out.serialise_runs += 1
        out.pages_visited += result.pages_visited
        out.grafts += result.grafts
        out.semantic_merges += result.semantic_merges
        out.merged_paths.extend(result.merged_paths)
        out.tip = successor
        if not result.ok:
            out.ok = False
            out.conflict_path = result.conflict_path
            out.reason = result.reason
            return out
        if successor == stop:
            return out
        next_block = store.load(successor, fresh=True).commit_ref
        if next_block == NIL:
            return out
        successor = next_block


# ---------------------------------------------------------------------------
# Write-path collection (cache validation, §5.4)
# ---------------------------------------------------------------------------


@dataclass
class WritePaths:
    """The write set of a committed version, as client-visible path names."""

    paths: list[PagePath] = field(default_factory=list)
    pages_visited: int = 0


def collect_write_paths(store: PageStore, root: int) -> WritePaths:
    """All path names a committed version wrote (W) or restructured (M).

    A path with M invalidates its whole subtree for cache purposes (path
    names below it may have been renumbered); the caller treats returned
    paths as subtree roots.  The walk follows S flags only, so its cost is
    proportional to the version's accessed set, not the file size.
    """
    out = WritePaths()
    page = store.load(root)
    out.pages_visited += 1
    flags = page.root_flags
    if flags.w or flags.m:
        out.paths.append(PagePath.ROOT)
        if flags.m:
            return out  # everything below is suspect anyway
    if flags.s:
        _collect_below(store, page, PagePath.ROOT, out)
    return out


def _collect_below(
    store: PageStore, page: Page, path: PagePath, out: WritePaths
) -> None:
    for index, ref in enumerate(page.refs):
        if ref.is_nil or not ref.flags.c:
            continue
        child_path = path.child(index)
        if ref.flags.w or ref.flags.m:
            out.paths.append(child_path)
            if ref.flags.m:
                continue  # subtree paths are renumbered; stop here
        if ref.flags.s:
            child = store.load(ref.block)
            out.pages_visited += 1
            _collect_below(store, child, child_path, out)
