"""The Amoeba File Service: files, versions, copy-on-write, commit.

One :class:`FileService` instance is one file *server process*.  Several
instances may serve the same file system ("replicated server processes",
§5.4.1): they share the block storage (through the network), the capability
issuer, and the :class:`repro.core.registry.FileRegistry` (the replicated
file table).  Any server can resolve, update and commit any file; a server
crash loses only its in-memory page cache and dirty pages of *uncommitted*
versions, which clients must be prepared to redo anyway.

The update cycle (§5):

1. ``create_version`` — the new version "initially behaves like a copy of
   the current version": its page tree is fully shared with the base, and
   only the version page (the root, "always copied") is private.
2. ``read_page`` / ``write_page`` / tree operations — pages touched by the
   update are *shadowed* (copied to fresh blocks) on first access, because
   recording any access means changing the parent's flags, and changing a
   committed page is impossible; "every change thus bubbles up from the
   leaves of the page tree to the root page".  Private pages are written
   in place thereafter, deferred until commit (§5.4: the cache is not
   write-through).
3. ``commit`` — flush, then test-and-set the base's commit reference (the
   single critical section).  If the base is no longer current, run
   ``serialise`` against each intervening committed version, merging as it
   goes, and retry; on a conflict the version is removed and
   :class:`repro.errors.CommitConflict` tells the client to redo the
   update (§5.2).
4. ``abort`` — discard an uncommitted version and free its private pages.

Flag bookkeeping (who reads these: the serialisability test): navigating
*through* a page sets S on the reference to it; reading a page's data sets
R; writing sets W; restructuring a page's reference table sets M on the
reference to that page.  All flags live in the parent's reference entry;
the root's own flags live in the version-page header.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability import (
    ALL_RIGHTS,
    Capability,
    CapabilityIssuer,
    RIGHT_COMMIT,
    RIGHT_CREATE,
    RIGHT_DESTROY,
    RIGHT_READ,
    RIGHT_WRITE,
    new_port,
)
from repro.errors import (
    BadPathName,
    CommitConflict,
    CrossesSubFile,
    FileLocked,
    HoleReference,
    PageTooLarge,
    ReproError,
    VersionAborted,
    VersionCommitted,
)
from repro.block.sharding import ShardedBlockClient
from repro.core.cache import Lease, PageCache
from repro.core.flags import Flags
from repro.core.locks import LockOps
from repro.core.occ import collect_write_paths, serialise, serialise_through
from repro.core.page import NIL, PAGE_BODY_SIZE, Page, PageRef, REF_SIZE
from repro.merge import DEFAULT_MERGE_POLICY as _DEFAULT_MERGE_POLICY
from repro.core.pathname import PagePath
from repro.core.registry import FileEntry, FileRegistry, VersionEntry
from repro.core.store import PageStore
from repro.obs import NULL_RECORDER
from repro.sim.network import Network
from repro.sim.rpc import Request, command


@dataclass(frozen=True)
class VersionHandle:
    """What a client gets back from ``create_version``: the capabilities it
    needs to work on the update and to find the file again."""

    version: Capability
    file: Capability


@dataclass
class ServiceMetrics:
    """Per-server operation counters (benchmarks and dashboards read these)."""

    files_created: int = 0
    versions_created: int = 0
    commits: int = 0
    fast_commits: int = 0  # base still current: no serialise run
    merged_commits: int = 0  # went through serialise at least once
    group_commits: int = 0  # group-commit batches published
    group_committed: int = 0  # members committed through a group batch
    conflicts: int = 0
    aborts: int = 0
    pages_read: int = 0
    pages_written: int = 0
    snapshot_reads: int = 0  # pages served from the current committed tree
    serialise_runs: int = 0
    serialise_pages_visited: int = 0
    semantic_merges: int = 0  # W/W overlaps reconciled by the merge policy
    merge_conflicts: int = 0  # merge attempts that fell back to a conflict
    leases_granted: int = 0  # client-cache read leases handed out
    lease_fast_renewals: int = 0  # renewals answered from the epoch alone
    epoch_bumps: int = 0  # lease epochs advanced by commit publications


@dataclass
class _Member:
    """One version on its way through :meth:`FileService._settle`."""

    entry: VersionEntry
    # Last committed block the member has serialised against (at first,
    # its base).  Kept apart from the page's base_ref: intra-group merges
    # rebase base_ref onto *uncommitted* predecessors, which must not be
    # mistaken for catch-up progress when a test-and-set is lost.
    caught_up: int = NIL
    # Paths the merge policy reconciled during catch-up: the client must
    # not cache its pre-merge writes for them.
    merged: set[str] = field(default_factory=set)
    serialised: bool = False  # needed at least one ``serialise`` run
    # (page or None, reason) once the member was removed as a conflict.
    conflict: tuple[PagePath | None, str] | None = None


class FileService:
    """One Amoeba file server process."""

    def __init__(
        self,
        name: str,
        network: Network,
        registry: FileRegistry,
        issuer: CapabilityIssuer,
        block_port: int,
        account: int,
        cache_capacity: int = 4096,
        rng=None,
        store: PageStore | None = None,
        recorder=None,
        history=None,
        max_lease_ticks: int = 1_000_000,
        merge_policy=_DEFAULT_MERGE_POLICY,
    ) -> None:
        self.name = name
        self.network = network
        self.clock = network.clock
        self.registry = registry
        self.issuer = issuer
        self.account = account
        self.rng = rng
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # Optional repro.verify.history.HistoryRecorder: when set, every
        # operation that matters to serializability checking is logged.
        # The soak harness attaches one recorder to every server process.
        self.history = history
        if store is not None:
            # An injected store (e.g. a HybridPageStore over mixed media).
            self.store = store
            if store.recorder is NULL_RECORDER:
                store.recorder = self.recorder
        else:
            self.store = PageStore(
                ShardedBlockClient(network, name, [block_port], account),
                PageCache(cache_capacity, recorder=self.recorder),
                recorder=self.recorder,
            )
        self.locks = LockOps(self.store)
        self.metrics = ServiceMetrics()
        # Semantic-merge policy for mergeable (directory-typed) pages.
        # ``None`` turns the relaxation off: every W/W overlap conflicts
        # exactly as in the paper — the contention benchmark's baseline.
        self.merge_policy = merge_policy
        # Hard ceiling on the lease TTL this server grants, in the
        # deployment's clock units (logical ticks on the simulation,
        # microseconds over TCP).  Clients request shorter TTLs suited
        # to their staleness tolerance; the grant is the minimum.
        self.max_lease_ticks = max_lease_ticks
        self._crashed = False
        # §5.4: "The Amoeba File Servers can also conveniently cache the
        # concurrency control administration, the flag bits.  This allows
        # serialisability tests without having to read the page tree.
        # However, the flags must also be present in the files themselves
        # to make crash recovery possible."  Per committed version page:
        # its write paths, as cache validation consumes them.
        self._write_paths_cache: dict[int, list[PagePath]] = {}
        # Ports of updates this server process is managing.  Deliberately
        # in-memory only: "when the server crashes, the outstanding
        # transactions with the server crash as well, telling all servers
        # waiting on locks that the process holding the locks has crashed."
        self._live_updates: set[int] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Crash this server process.  Dirty pages and cache are lost; the
        file system on stable storage stays consistent — that is the
        paper's headline property."""
        self._crashed = True
        self.store._dirty.clear()
        self.store.cache.clear()
        self._live_updates.clear()
        self._write_paths_cache.clear()  # recoverable: flags are on disk
        self.network.detach(self.name)
        if self.history is not None:
            self.history.record("crash", actor=self.name)

    def restart(self) -> None:
        self._crashed = False
        self.network.reattach(self.name)
        if self.history is not None:
            self.history.record("restart", actor=self.name)

    def _check_up(self) -> None:
        if self._crashed:
            from repro.errors import ServerCrashed

            raise ServerCrashed(f"file server {self.name} is crashed")

    # ------------------------------------------------------------------
    # capability plumbing
    # ------------------------------------------------------------------

    def _file_entry(self, cap: Capability, rights: int = 0) -> FileEntry:
        obj = self.issuer.validate(cap, rights)
        return self.registry.file(obj)

    def _version_entry(self, cap: Capability, rights: int = 0) -> VersionEntry:
        obj = self.issuer.validate(cap, rights)
        entry = self.registry.version(obj)
        if (
            entry.status == "uncommitted"
            and entry.server
            and entry.server != self.name
        ):
            # An in-flight update belongs to one server: its pages may
            # still sit in that server's deferred write buffer, invisible
            # to this replica.  Serving it here — and especially
            # committing it here — would operate on a version whose pages
            # are not durable (client-side failover retries land here when
            # the managing server's own downstream storage call failed).
            from repro.errors import NotManagingServer

            raise NotManagingServer(
                f"version {obj} is an in-flight update managed by "
                f"server {entry.server!r}; abort and redo the update"
            )
        return entry

    def _open_version(
        self, cap: Capability, rights: int = RIGHT_WRITE
    ) -> VersionEntry:
        entry = self._version_entry(cap, rights)
        if entry.status == "committed":
            raise VersionCommitted(f"version {entry.obj} already committed")
        if entry.status == "aborted":
            raise VersionAborted(f"version {entry.obj} was aborted")
        return entry

    # ------------------------------------------------------------------
    # file management
    # ------------------------------------------------------------------

    def create_file(
        self, initial_data: bytes = b"", mergeable: bool = False
    ) -> Capability:
        """Create a file whose initial committed version holds
        ``initial_data`` in its root page.

        ``mergeable=True`` types the root page as a directory entry
        table: concurrent rewrites of it may be reconciled by the
        server's merge policy instead of conflicting (see
        :mod:`repro.merge`).  The flag rides in the page header, so every
        shadow copy, disk image and wire transfer of the page carries it.
        """
        self._check_up()
        file_cap = self.issuer.mint(ALL_RIGHTS, self.rng)
        version_cap = self.issuer.mint(ALL_RIGHTS, self.rng)
        root = Page(
            file_cap=file_cap,
            version_cap=version_cap,
            is_version_page=True,
            mergeable=mergeable,
            data=initial_data,
        )
        root.check_fits()
        # The initial version is committed: durable now, in one exchange.
        block = self.store.store_durable(root)
        self.registry.add_file(
            FileEntry(
                file_cap.obj,
                block,
                self.issuer.secret_of(file_cap.obj),
                mergeable=mergeable,
                current=version_cap.obj,
            )
        )
        self.registry.add_version(
            VersionEntry(
                version_cap.obj,
                file_cap.obj,
                block,
                self.issuer.secret_of(version_cap.obj),
                status="committed",
            )
        )
        self.metrics.files_created += 1
        if self.history is not None:
            if mergeable:
                # Tells the checker to replay this file's commits through
                # the merge semantics rather than last-write-wins.
                self.history.record(
                    "merge_typed", actor=self.name, file=file_cap.obj
                )
            self.history.record(
                "create",
                actor=self.name,
                file=file_cap.obj,
                version=version_cap.obj,
                path="",
                value=bytes(initial_data),
                tick=self.clock.now,
            )
        return file_cap

    def delete_file(self, file_cap: Capability) -> None:
        """Drop a file from the file table; its blocks become garbage that
        the collector reclaims."""
        self._check_up()
        entry = self._file_entry(file_cap, RIGHT_DESTROY)
        self.registry.drop_file(entry.obj)
        self.issuer.revoke(entry.obj)

    def _resolve_current(self, entry: FileEntry) -> tuple[int, Page]:
        """The current version's block and page, chased from the file
        table's (possibly stale) entry block, which advances to it."""
        *_, (block, page) = self.store.commits_from(entry.entry_block)
        entry.advance(block)
        return block, page

    def _trusted_current(self, entry: FileEntry) -> tuple[int, int] | None:
        """(block, version obj) of the current version when a read may take
        the file table's name (:meth:`FileEntry.named_current`) instead of
        a chase: this server's cached copy of the entry block is that
        version's page by its version capability (never an open one's:
        ``PageStore.peek``)."""
        obj = entry.named_current()
        block = entry.entry_block
        page = None if obj is None else self.store.cache.get(block)
        if page is None or page.version_cap is None or page.version_cap.obj != obj:
            return None
        return block, obj

    def current_version(self, file_cap: Capability) -> Capability:
        """The capability of the file's current (committed) version."""
        self._check_up()
        entry = self._file_entry(file_cap, RIGHT_READ)
        block, _ = self._resolve_current(entry)
        return self._version_cap_for_block(entry.obj, block)

    def _version_cap_for_block(self, file_obj: int, block: int) -> Capability:
        """A capability for the committed version page in ``block``,
        minting a registry entry lazily — needed after a registry restore,
        whose durable half records files but not versions."""
        version = self.registry.version_by_block(block)
        if version is not None:
            return self.issuer.mint_for(version.obj, ALL_RIGHTS, self.rng)
        # The issuer's counter, not the registry's: the registry learns a
        # freshly minted number only when its version is added.
        cap = self.issuer.mint(ALL_RIGHTS, self.rng)
        self.registry.add_version(
            VersionEntry(
                cap.obj,
                file_obj,
                block,
                self.issuer.secret_of(cap.obj),
                status="committed",
            )
        )
        return cap

    # ------------------------------------------------------------------
    # version creation (§5, §5.3's small-file lock rule)
    # ------------------------------------------------------------------

    def create_version(
        self, file_cap: Capability, owner: str = "", respect_soft_lock: bool = False
    ) -> VersionHandle:
        """Create an uncommitted version based on the current version.

        Small-file rule (§5.3): "If the file is a small file, only the
        inner lock must be tested, but the top lock set."  A set inner lock
        means an enclosing super-file update owns this file right now:
        :class:`FileLocked` is raised and the client waits (see
        :mod:`repro.core.locks` for the waiting-and-recovery protocol).
        The top lock is set regardless but does not exclude anyone — it is
        the *soft lock* hint, honoured only when the client asks
        (``respect_soft_lock=True``, for updates known to be large).

        The inner lock is tested on the base, read afresh; the top lock is
        the registry's soft state (a non-empty ``FileEntry.open``), so
        beginning writes nothing to stable storage.  A super update's top
        lock stays on the page and counts as held too.
        """
        self._check_up()
        entry = self._file_entry(file_cap, RIGHT_CREATE)
        cur_block, cur_page = self._resolve_current(entry)
        if cur_page.inner_lock:
            raise FileLocked(
                f"file {entry.obj}: inner lock held by update "
                f"{cur_page.inner_lock:#x} (super-file update in progress)"
            )
        holder = cur_page.top_lock or entry.soft_lock()
        if respect_soft_lock and holder:
            raise FileLocked(
                f"file {entry.obj}: soft top lock held by update {holder:#x}"
            )
        update_port = new_port(self.rng)
        return self._new_version_from(entry, cur_block, owner, update_port, cur_page)

    def _new_version_from(
        self,
        entry: FileEntry,
        cur_block: int,
        owner: str,
        update_port: int,
        cur_page: Page | None = None,
    ) -> VersionHandle:
        """Build the version page of a new version based on ``cur_block``
        and list it among the file's open versions."""
        if cur_page is None:
            cur_page = self.store.load(cur_block, fresh=True)
        version_cap = self.issuer.mint(ALL_RIGHTS, self.rng)
        file_cap = self.issuer.mint_for(entry.obj, ALL_RIGHTS, self.rng)
        v_page = cur_page.clone()
        v_page.file_cap = file_cap
        v_page.version_cap = version_cap
        v_page.commit_ref = NIL
        v_page.top_lock = 0
        v_page.inner_lock = 0
        v_page.base_ref = cur_block
        v_page.root_flags = Flags()
        v_page.clear_access_flags()  # share the whole tree with the base
        v_block = self.store.store_new(v_page)
        if update_port:
            self._live_updates.add(update_port)
        version = VersionEntry(
            version_cap.obj,
            entry.obj,
            v_block,
            self.issuer.secret_of(version_cap.obj),
            status="uncommitted",
            owner=owner or self.name,
            update_port=update_port,
            server=self.name,
            epoch=entry.epoch,
        )
        self.registry.add_version(version)
        entry.open_version(version)
        self.metrics.versions_created += 1
        if self.history is not None:
            base_entry = self.registry.version_by_block(cur_block)
            self.history.record(
                "begin",
                actor=owner or self.name,
                file=entry.obj,
                version=version_cap.obj,
                base=base_entry.obj if base_entry is not None else None,
            )
        return VersionHandle(version=version_cap, file=file_cap)

    # ------------------------------------------------------------------
    # the walk: shadowing and flag bookkeeping
    # ------------------------------------------------------------------

    def _walk(self, entry: VersionEntry, path: PagePath, mode: str) -> tuple[int, Page]:
        """Descend an uncommitted version to ``path``, shadowing every page
        on the way and recording access flags; returns the private target.

        ``mode`` is what the client is about to do to the target page:
        ``read`` (its data), ``write`` (its data), ``search`` (its
        references), ``modify`` (its references).
        """
        block = entry.root_block
        page = self.store.load(block)
        if path.is_root:
            page.root_flags = _apply_mode(page.root_flags, mode)
            self.store.store_in_place(block, page)
            return block, page
        # Navigating below the root uses the root's references.
        new_root_flags = page.root_flags.search()
        if new_root_flags != page.root_flags:
            page.root_flags = new_root_flags
            self.store.store_in_place(block, page)
        for depth, index in enumerate(path):
            if index >= page.nrefs:
                raise BadPathName(
                    f"path {path}: index {index} out of range "
                    f"({page.nrefs} references) at depth {depth}"
                )
            ref = page.ref(index)
            if ref.is_nil:
                raise HoleReference(f"path {path}: hole at depth {depth}")
            last = depth == len(path) - 1
            if not ref.flags.c:
                child = self.store.load(ref.block)
                if child.is_version_page:
                    raise CrossesSubFile(
                        f"path {path} crosses a sub-file boundary at depth "
                        f"{depth}; open the sub-file instead"
                    )
                shadow = child.clone()
                shadow.base_ref = ref.block
                shadow.clear_access_flags()
                new_block = self.store.store_new(shadow)
                ref = PageRef(new_block, ref.flags.copy())
            else:
                child_probe = self.store.load(ref.block)
                if child_probe.is_version_page:
                    raise CrossesSubFile(
                        f"path {path} crosses a sub-file boundary at depth "
                        f"{depth}; open the sub-file instead"
                    )
            new_flags = _apply_mode(ref.flags, mode) if last else ref.flags.search()
            new_ref = PageRef(ref.block, new_flags)
            if new_ref != page.ref(index):
                page.set_ref(index, new_ref)
                self.store.store_in_place(block, page)
            block = ref.block
            page = self.store.load(block)
        return block, page

    def _walk_readonly(self, root_block: int, path: PagePath) -> Page:
        """Descend a committed (immutable) version without any bookkeeping."""
        page = self.store.load(root_block)
        for depth, index in enumerate(path):
            if index >= page.nrefs:
                raise BadPathName(
                    f"path {path}: index {index} out of range at depth {depth}"
                )
            ref = page.ref(index)
            if ref.is_nil:
                raise HoleReference(f"path {path}: hole at depth {depth}")
            page = self.store.load(ref.block)
        return page

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------

    def read_page(self, version_cap: Capability, path: PagePath) -> bytes:
        """Read a page's data.

        On an uncommitted version this records the read (R flags) —
        the read set is what commit validation protects.  On a committed
        version it is a plain snapshot read with no bookkeeping.
        """
        self._check_up()
        entry = self._version_entry(version_cap, RIGHT_READ)
        if entry.status == "committed":
            data = self._walk_readonly(entry.root_block, path).data
            if self.history is not None:
                self.history.record(
                    "snapshot_read",
                    actor=self.name,
                    file=entry.file_obj,
                    version=entry.obj,
                    path=str(path),
                    value=data,
                )
            return data
        if entry.status == "aborted":
            raise VersionAborted(f"version {entry.obj} was aborted")
        _, page = self._walk(entry, path, "read")
        self.metrics.pages_read += 1
        if self.history is not None:
            self.history.record(
                "read",
                actor=self.name,
                file=entry.file_obj,
                version=entry.obj,
                path=str(path),
                value=page.data,
            )
        return page.data

    def write_page(self, version_cap: Capability, path: PagePath, data: bytes) -> None:
        """Write a page's data (copy-on-write shadowing underneath)."""
        self._check_up()
        entry = self._open_version(version_cap)
        block, page = self._walk(entry, path, "write")
        if len(data) + REF_SIZE * page.nrefs > PAGE_BODY_SIZE:
            raise PageTooLarge(
                f"{len(data)} data bytes + {page.nrefs} references exceed "
                f"the {PAGE_BODY_SIZE}-byte page"
            )
        page.data = data
        self.store.store_in_place(block, page)
        self.metrics.pages_written += 1
        if self.history is not None:
            self.history.record(
                "write",
                actor=self.name,
                file=entry.file_obj,
                version=entry.obj,
                path=str(path),
                value=bytes(data),
            )

    def page_structure(self, version_cap: Capability, path: PagePath) -> list[int]:
        """The block-validity view of a page's reference table: for each
        entry, 1 if it refers to a page and 0 if it is a hole.  Reading the
        structure of an uncommitted version records a search (S)."""
        self._check_up()
        entry = self._version_entry(version_cap, RIGHT_READ)
        if entry.status == "committed":
            page = self._walk_readonly(entry.root_block, path)
        else:
            if entry.status == "aborted":
                raise VersionAborted(f"version {entry.obj} was aborted")
            _, page = self._walk(entry, path, "search")
        return [0 if ref.is_nil else 1 for ref in page.refs]

    # ------------------------------------------------------------------
    # tree shape commands (§5, §5.1; implemented in tree_ops)
    # ------------------------------------------------------------------

    def _history_tree_op(
        self, version_cap: Capability, kind: str, path_text: str, value: bytes | None = None
    ) -> None:
        """Log one tree operation on an uncommitted version.

        ``append`` keeps sibling path names stable, so the checker can
        replay it like a write; every other restructuring is logged as
        ``structure``, which tells the checker path-keyed values for this
        file can no longer be correlated.
        """
        if self.history is None:
            return
        entry = self._version_entry(version_cap)
        self.history.record(
            kind,
            actor=self.name,
            file=entry.file_obj,
            version=entry.obj,
            path=path_text,
            value=value,
        )

    def insert_page(
        self,
        version_cap: Capability,
        parent_path: PagePath,
        index: int,
        data: bytes = b"",
        nref_slots: int = 0,
    ) -> PagePath:
        """Insert a new page as a child of ``parent_path`` (shifts later
        references right); see :func:`repro.core.tree_ops.insert_page`."""
        self._check_up()
        from repro.core import tree_ops

        path = tree_ops.insert_page(
            self, version_cap, parent_path, index, data, nref_slots
        )
        self._history_tree_op(version_cap, "structure", str(path))
        return path

    def append_page(
        self,
        version_cap: Capability,
        parent_path: PagePath,
        data: bytes = b"",
        nref_slots: int = 0,
    ) -> PagePath:
        """Append a new child page to the page at ``parent_path``."""
        self._check_up()
        from repro.core import tree_ops

        path = tree_ops.append_page(
            self, version_cap, parent_path, data, nref_slots
        )
        self._history_tree_op(version_cap, "append", str(path), bytes(data))
        return path

    def remove_page(self, version_cap: Capability, path: PagePath) -> None:
        """Remove the page (and subtree) at ``path``; later siblings shift."""
        self._check_up()
        from repro.core import tree_ops

        tree_ops.remove_page(self, version_cap, path)
        self._history_tree_op(version_cap, "structure", str(path))

    def make_hole(self, version_cap: Capability, path: PagePath) -> None:
        """Turn the reference at ``path`` into a hole (keeps sibling paths)."""
        self._check_up()
        from repro.core import tree_ops

        tree_ops.make_hole(self, version_cap, path)
        self._history_tree_op(version_cap, "structure", str(path))

    def remove_hole(self, version_cap: Capability, path: PagePath) -> None:
        """Delete a hole slot; later siblings shift left."""
        self._check_up()
        from repro.core import tree_ops

        tree_ops.remove_hole(self, version_cap, path)
        self._history_tree_op(version_cap, "structure", str(path))

    def fill_hole(
        self,
        version_cap: Capability,
        path: PagePath,
        data: bytes = b"",
        nref_slots: int = 0,
    ) -> None:
        """Replace the hole at ``path`` with a fresh page."""
        self._check_up()
        from repro.core import tree_ops

        tree_ops.fill_hole(self, version_cap, path, data, nref_slots)
        self._history_tree_op(version_cap, "structure", str(path))

    def split_page(
        self, version_cap: Capability, path: PagePath, at: int
    ) -> PagePath:
        """Split a page's data at offset ``at`` into the page plus a new
        right sibling; returns the sibling's path."""
        self._check_up()
        from repro.core import tree_ops

        sibling = tree_ops.split_page(self, version_cap, path, at)
        self._history_tree_op(version_cap, "structure", str(path))
        return sibling

    def move_subtree(
        self,
        version_cap: Capability,
        src: PagePath,
        dst_parent: PagePath,
        dst_index: int,
    ) -> PagePath:
        """Move a subtree elsewhere in the tree; returns its new path."""
        self._check_up()
        from repro.core import tree_ops

        new_path = tree_ops.move_subtree(self, version_cap, src, dst_parent, dst_index)
        self._history_tree_op(version_cap, "structure", str(src))
        return new_path

    # ------------------------------------------------------------------
    # commit and abort (§5.2)
    # ------------------------------------------------------------------

    def commit(
        self, version_cap: Capability, *, max_rounds: int = 64
    ) -> list[str]:
        """Commit an uncommitted version, making it the current version:
        a group of one through :meth:`_settle`.

        Returns the (usually empty) list of page paths whose data the
        merge policy reconciled with concurrent committed updates: the
        committed bytes there are a merge, not the client's own write, so
        the client must not seed its cache with what it wrote.

        Raises :class:`CommitConflict` when the update cannot be serialised
        after the concurrently committed updates; the version is then
        removed and the client must redo the update on a fresh version.
        """
        self._check_up()
        entry = self._open_version(version_cap, RIGHT_COMMIT)
        member = _Member(entry)
        recorder = self.recorder
        started = self.clock.now
        with recorder.span("commit", server=self.name, version=entry.obj) as span:
            rounds, _ = self._settle([member], max_rounds, "commit")
            span.tag(rounds=rounds)
            recorder.observe("commit.ticks", self.clock.now - started)
            if member.conflict is not None:
                path, reason = member.conflict
                if path is None:
                    span.tag(path="unsettled")
                    raise CommitConflict(f"version {entry.obj}: {reason}")
                span.tag(path="conflict")
                raise CommitConflict(
                    f"version {entry.obj} conflicts with committed update at "
                    f"page '{path}': {reason}"
                )
            # "fast": the base was still current, so no ``serialise`` ran.
            if member.serialised:
                self.metrics.merged_commits += 1
                span.tag(path="serialise")
            else:
                self.metrics.fast_commits += 1
                span.tag(path="fast")
            if member.merged:
                span.tag(semantic_merges=len(member.merged))
            return sorted(member.merged)

    def update(
        self,
        file_cap: Capability,
        writes: dict[str, bytes],
        owner: str = "",
        respect_soft_lock: bool = False,
    ) -> tuple[Capability, list[str]]:
        """A blind update in one request, its writes "postponed until just
        before commit" (§5.4): :meth:`create_version`, :meth:`write_page`
        per ``writes`` entry (page-path text -> data), :meth:`commit`;
        returns the version's capability and the merged paths.  Its block
        numbers — version page, one shadow per written page and ancestor —
        take one allocation exchange; a failed write aborts the version."""
        paths = {PagePath.parse(text): data for text, data in writes.items()}
        shadows = {path.indices[:i] for path in paths for i in range(1, len(path) + 1)}
        with self.store.reserving(1 + len(shadows)):
            handle = self.create_version(file_cap, owner, respect_soft_lock)
            try:
                for path in sorted(paths):
                    self.write_page(handle.version, path, paths[path])
            except Exception:
                self.abort(handle.version)
                raise
        return handle.version, self.commit(handle.version)

    def commit_group(
        self, version_caps: list[Capability], *, max_rounds: int = 64
    ) -> dict[int, str]:
        """Commit a batch of ready updates through ONE critical section
        per file and ONE batched flush for the whole group.

        Committed one at a time, the k-th of N back-to-back updates of
        one file walks the k-1 versions committed since its base and pays
        its own flush and test-and-set — N stable-storage requests and
        O(N²) ``serialise`` runs in total.  Grouping exploits that all
        members are on *this* server: they are serialised against each
        other in memory, their version pages are pre-linked into a
        commit-reference chain, and one
        ``write_many`` request flushes the whole set and, behind the
        pages, runs a single test-and-set on each file's base, which
        publishes that file's entire chain atomically.  Until that
        test-and-set lands, the chain hangs off nothing: a crash or
        storage failure mid-flush aborts *every* member, never a prefix.

        Returns ``{version_obj: "committed" | "committed-merged" |
        "conflict: ..."}`` for each distinct member ("committed-merged":
        the member committed but some of its pages carry policy-merged
        data rather than the member's own writes).  Storage outages (e.g. a whole companion pair
        down mid-flush) propagate as :class:`ServerUnreachable` after the
        chain links are withdrawn — no member commits, all stay
        uncommitted for the client to retry.
        """
        self._check_up()
        entries: dict[int, VersionEntry] = {}
        for cap in version_caps:
            entry = self._open_version(cap, RIGHT_COMMIT)
            entries.setdefault(entry.obj, entry)
        outcomes: dict[int, str] = {}
        if not entries:
            return outcomes
        members = [_Member(entry) for entry in entries.values()]
        recorder = self.recorder
        started = self.clock.now
        with recorder.span(
            "commit.group", server=self.name, members=len(members)
        ) as span:
            recorder.count("commit.group.batches")
            recorder.count("commit.group.members", len(members))
            recorder.observe("commit.group.size", len(members))
            try:
                rounds, lost = self._settle(members, max_rounds, "commit_group")
            except Exception:
                recorder.count("commit.group.flush_failures")
                span.tag(path="flush_failed")
                raise
            finally:
                # Also after a failed request: what it published counts.
                for member in members:
                    obj = member.entry.obj
                    if member.conflict is not None:
                        recorder.count("commit.group.conflicts")
                        path, reason = member.conflict
                        where = f"page '{path}': " if path is not None else ""
                        outcomes[obj] = f"conflict: {where}{reason}"
                    elif member.entry.status == "committed":
                        self.metrics.group_committed += 1
                        recorder.count("commit.group.committed")
                        outcomes[obj] = (
                            "committed-merged" if member.merged else "committed"
                        )
            if lost:
                recorder.count("commit.group.tas_retries", lost)
            self.metrics.group_commits += 1
            span.tag(rounds=rounds)
            recorder.observe("commit.group.ticks", self.clock.now - started)
        return outcomes

    def _settle(
        self, members: list[_Member], max_rounds: int, reason: str
    ) -> tuple[int, int]:
        """The commit (§5.2), for any number of this server's versions:
        per file, catch each member up with what was committed since its
        base and serialise it behind the chain-mates before it, pre-link
        the chain, then flush everything and test-and-set every chain's
        head onto its file's base in ONE stable-storage request — the
        only critical section.  A chain whose test-and-set is lost
        catches up with the successor the loser was told about and goes
        round again (Figure 6); members that cannot be serialised are
        removed and carry the ``conflict`` that says why.

        Returns the rounds used and the test-and-sets lost.  A failed
        request propagates after its chains are either published (the
        reference did land) or unlinked (the members stay open).
        """
        pending: dict[int, list[_Member]] = {}
        for member in members:
            member.caught_up = self.store.load(member.entry.root_block).base_ref
            pending.setdefault(member.entry.file_obj, []).append(member)
        # file obj -> (base, successor) of its chain's lost test-and-set.
        beaten: dict[int, tuple[int, int]] = {}
        rounds = lost = 0
        while pending and rounds < max_rounds:
            rounds += 1
            chains: dict[int, tuple[int, list[_Member]]] = {}
            for file_obj, waiting in pending.items():
                # The base is optimistic, no read: the successor a lost
                # test-and-set reported, else the table's entry block.
                # Either is committed, so a stale one can only lose the
                # test-and-set — which reports the newer tip — never win.
                behind, base = beaten.pop(file_obj, (NIL, NIL))
                if base == NIL:
                    base = self.registry.file(file_obj).entry_block
                chain: list[_Member] = []
                for i, member in enumerate(waiting):
                    if self._catch_up(member, base, chain, behind):
                        chain.append(member)
                        continue
                    # Members after a conflicted predecessor were
                    # rebased onto it and share its pages; they
                    # cannot outlive it.
                    for later in waiting[i + 1:]:
                        self._conflict(
                            later,
                            None,
                            "grouped predecessor conflicted with a "
                            "committed update; redo the update",
                        )
                    break
                if chain:
                    chains[file_obj] = (base, chain)
            pending = {}
            if not chains:
                break
            for _, chain in chains.values():
                self._link_chain_refs(chain)
            # "First it ascertains that all of V.b's pages are safely on
            # disk" — then the single critical section: test-and-set the
            # base's commit reference.  One stable-storage request does
            # both, in that order on every disk, for every chain.
            try:
                results = self.store.tas_commit_refs(
                    [
                        (base, chain[0].entry.root_block)
                        for base, chain in chains.values()
                    ],
                    reason,
                )
            except Exception:
                # Abort: withdraw the chain links so a later retry
                # cannot publish half-written pages, and leave the
                # members uncommitted — except the chains whose
                # reference was set by a request that failed part-way
                # (swaps on several shards) or whose reply was lost.
                for base, chain in chains.values():
                    if self._chain_published(base, chain):
                        self._publish_chain(chain)
                        # Pages before reference: the chain is on disk.
                        # A still-buffered copy of a committed version
                        # page would later overwrite the commit
                        # reference its successor sets.
                        for member in chain:
                            self.store.forget(member.entry.root_block)
                    else:
                        self._unlink_chain_refs(chain)
                raise
            for (file_obj, (base, chain)), result in zip(chains.items(), results):
                if result.success:
                    self._publish_chain(chain)
                    continue
                # A commit the table had not shown slipped in.  Its block
                # is the next base and the catch-up's first hop: hop by
                # hop, as Figure 6.  (A member beyond a lagging base walks
                # on from where it is, never back through its ancestors.)
                lost += 1
                beaten[file_obj] = (base, int.from_bytes(result.current, "big"))
                pending[file_obj] = chain
        for waiting in pending.values():
            for member in waiting:
                self._conflict(
                    member, None, f"commit did not settle in {max_rounds} rounds"
                )
        return rounds, lost

    def _catch_up(
        self, member: _Member, base: int, prior: list[_Member], behind: int
    ) -> bool:
        """Serialise one member up to the head of its chain: first
        through the committed versions between its own base and ``base``,
        then — always — against this round's earlier survivors, so the
        member's own writes re-graft over whatever the catch-up pulled in
        (idempotent where already merged).  A member caught up to
        ``behind``, where a test-and-set was just lost to ``base``, knows
        its first hop without asking."""
        v_block = member.entry.root_block
        if member.caught_up != base:
            if member.caught_up == behind:
                first = base
            else:
                first = self.store.read_commit_ref(member.caught_up)
            if first != NIL:
                walk = serialise_through(
                    self.store,
                    v_block,
                    first,
                    base,
                    recorder=self.recorder,
                    policy=self.merge_policy,
                )
                if not self._merged_in(member, walk, walk.serialise_runs):
                    return False
                member.caught_up = walk.tip
        for earlier in prior:
            result = serialise(
                self.store,
                v_block,
                earlier.entry.root_block,
                recorder=self.recorder,
                policy=self.merge_policy,
            )
            if not self._merged_in(member, result, 1):
                return False
        return True

    def _merged_in(self, member: _Member, result, runs: int) -> bool:
        """Account one catch-up step (merge-policy observability: applied
        merges, and the conflicts that reached the policy but could not
        be reconciled); a failed step removes the member."""
        member.serialised = True
        self.metrics.serialise_runs += runs
        self.metrics.serialise_pages_visited += result.pages_visited
        if result.semantic_merges:
            self.metrics.semantic_merges += result.semantic_merges
            self.recorder.count("merge.applied", result.semantic_merges)
        if result.reason.startswith("merge:"):
            self.metrics.merge_conflicts += 1
            self.recorder.count("merge.conflicts")
        member.merged.update(str(p) for p in result.merged_paths)
        if not result.ok:
            self._conflict(member, result.conflict_path, result.reason)
        return result.ok

    def _conflict(self, member: _Member, path, reason: str) -> None:
        member.conflict = (path, reason)
        self.metrics.conflicts += 1
        self.recorder.count("commit.conflicts")
        self._remove_version(member.entry)

    def _link_chain_refs(self, chain: list[_Member]) -> None:
        """Pre-link the members' commit references into the chain order
        they will be published in, dirtying only pages whose reference
        actually changes (re-linking after a lost test-and-set is mostly
        a no-op)."""
        blocks = [member.entry.root_block for member in chain]
        for block, successor in zip(blocks, blocks[1:] + [NIL]):
            page = self.store.load(block)
            if page.commit_ref != successor:
                page.commit_ref = successor
                self.store.store_in_place(block, page)

    def _chain_published(self, base: int, chain: list[_Member]) -> bool:
        """Whether ``base``'s commit reference on disk names the chain's
        head (asked only after a commit request failed)."""
        try:
            return self.store.read_commit_ref(base) == chain[0].entry.root_block
        except ReproError:
            return False  # the shard that cannot answer did not commit it

    def _unlink_chain_refs(self, chain: list[_Member]) -> None:
        for member in chain:
            try:
                page = self.store.load(member.entry.root_block)
            except ReproError:
                continue
            if page.commit_ref != NIL:
                page.commit_ref = NIL
                self.store.store_in_place(member.entry.root_block, page)

    def _publish_chain(self, chain: list[_Member]) -> None:
        """Bookkeeping for a chain the test-and-set just made current:
        every member is now committed, in chain order."""
        for member in chain:
            entry = member.entry
            self._published(entry)
            if self.history is not None:
                # Recorded while the critical section's outcome is fresh
                # and no other task can run: seq order of these events IS
                # the commit-reference chain order.
                self.history.record(
                    "commit",
                    actor=self.name,
                    file=entry.file_obj,
                    version=entry.obj,
                    tick=self.clock.now,
                )
            self._live_updates.discard(entry.update_port)
            self.metrics.commits += 1
            self.recorder.count("commit.committed")

    def _published(self, entry: VersionEntry) -> None:
        """What every commit-publication point owes a version whose
        base's commit reference now names it: the registry, the file
        table (:meth:`FileEntry.publish`; none left if the file was deleted
        meanwhile) and the flag administration, cached while in memory."""
        entry.status = "committed"
        file_entry = self.registry.files.get(entry.file_obj)
        if file_entry is not None:
            file_entry.publish(entry)
            self.metrics.epoch_bumps += 1
            if self.recorder.enabled:
                self.recorder.count("cache.lease.epoch_bumps")
        if len(self._write_paths_cache) >= 4096:
            # Soft state, rebuilt from the flags on disk.  Cleared rather
            # than trimmed: lock-free reads insert while this runs, and
            # iterating a dict that grows under it raises.
            self._write_paths_cache.clear()
        self._write_paths_cache[entry.root_block] = collect_write_paths(
            self.store, entry.root_block
        ).paths

    def abort(self, version_cap: Capability) -> None:
        """Explicitly discard an uncommitted version."""
        self._check_up()
        entry = self._version_entry(version_cap)
        if entry.status == "committed":
            raise VersionCommitted(f"version {entry.obj} already committed")
        if entry.status == "aborted":
            return
        self.metrics.aborts += 1
        self._remove_version(entry)

    def _remove_version(self, entry: VersionEntry) -> None:
        """Free a dead version's private pages and mark it aborted.

        Private pages are those behind references carrying the C flag;
        parts grafted from other versions during merge carry clear flags
        and are shared, so they survive.  Pages orphaned by wholesale table
        grafts are left to the garbage collector.  The version leaves the
        file's open ones (:meth:`FileEntry.remove`).  A super update's
        durable locks are cleared by :mod:`repro.core.system_tree`, which
        set them.
        """
        from repro.errors import BlockError

        entry.status = "aborted"
        if self.history is not None:
            self.history.record(
                "abort", actor=self.name, file=entry.file_obj, version=entry.obj
            )
        self._live_updates.discard(entry.update_port)
        file_entry = self.registry.files.get(entry.file_obj)
        if file_entry is not None:
            file_entry.remove(entry)
        # A version owned by a crashed server may have allocated blocks it
        # never flushed; tolerate the holes and free what exists.
        try:
            self._free_private(entry.root_block)
            self.store.free(entry.root_block)
        except BlockError:
            pass
        # The registry entry stays (status "aborted") so the owner's stale
        # capability gets an informative error; the GC purges it later.

    def _free_private(self, block: int) -> None:
        from repro.errors import BlockError

        try:
            page = self.store.load(block)
        except BlockError:
            return
        for ref in page.refs:
            if not ref.is_nil and ref.flags.c:
                self._free_private(ref.block)
                try:
                    self.store.free(ref.block)
                except BlockError:
                    pass

    # ------------------------------------------------------------------
    # current-state reads and cache validation (§5.4)
    # ------------------------------------------------------------------

    def _discards_since(
        self, file_entry: FileEntry, block: int
    ) -> tuple[list[PagePath], int]:
        """The §5.4 test: chase the commit chain from the committed
        version in ``block`` to the current one, collecting the write paths
        of every version after it — "a list of path names of pages to be
        discarded" (empty, reading no tree, for an unshared file: C5)."""
        discards: list[PagePath] = []
        seen_root_discard = False
        for block, page in self.store.commits_from(block):
            successor = page.commit_ref
            if successor == NIL or seen_root_discard:
                continue  # everything is dead already; just find current
            cached_paths = self._write_paths_cache.get(successor)
            if cached_paths is None:
                cached_paths = collect_write_paths(self.store, successor).paths
                self._write_paths_cache[successor] = cached_paths
            for path in cached_paths:
                discards.append(path)
                if path.is_root:
                    seen_root_discard = True
        file_entry.advance(block)
        return discards, block

    def _grant_lease(self, epoch: int, lease_ticks: int) -> Lease:
        """A lease of ``lease_ticks``, clamped at ``max_lease_ticks``.  A
        zero-tick request comes from a reader that takes no leases: it is
        answered with a zero-TTL lease and counted as no grant."""
        granted = max(0, min(int(lease_ticks), self.max_lease_ticks))
        if lease_ticks > 0:
            self.metrics.leases_granted += 1
            if self.recorder.enabled:
                self.recorder.count("cache.lease.grants")
        return Lease(epoch, granted)

    def read_current(
        self,
        file_cap: Capability,
        path: PagePath,
        lease_ticks: int = 0,
        cached_version_cap: Capability | None = None,
        epoch: int | None = None,
        have_page: bool = False,
        allow_delegate: bool = True,
    ) -> tuple[bytes | None, Capability, Lease, list[PagePath]]:
        """The one read of a file's current state: the page at ``path``,
        the current version, a lease of ``lease_ticks`` on it (zero: no
        lease wanted, no lease counter moves) and the §5.4 discard list
        for the client's cache.

        Without ``cached_version_cap`` the current version is resolved
        *truly*, never from the possibly stale entry block alone: a lease
        granted on a version that lags another server's commit would break
        the staleness bound.  While no version of the file is open the
        shared file table names it (:meth:`_trusted_current`); otherwise
        the commit references are chased afresh.  Nothing is discarded.

        With it, the §5.4 test runs between the cached version and the
        current one.  A client presenting its lease ``epoch`` on a file
        where nothing committed since — the counter is unchanged and the
        entry block still names the cached version — is answered from the
        file table alone, and so is one whose cached version the table
        names current; otherwise the commit chain is walked.  The page
        comes back as ``None`` when the client holds it (``have_page``)
        and the test did not discard it: "it is not necessary to transmit
        pages while making the serialisability test".  A cached version
        this server no longer knows (pruned, or lost with a registry
        restore) is answered like a cold read, the root discarded.

        Delegation ("it can delegate the task to the server holding the
        most recent version for efficiency"): when another live server
        committed the newest version, so *its* flag-bits cache is warm and
        ours is cold, the whole read is forwarded there.

        The lease carries the epoch read before resolution: a commit
        racing this read makes the next one walk again, it can never make
        a stale fast renewal.
        """
        self._check_up()
        entry = self._file_entry(file_cap, RIGHT_READ)
        current_epoch = entry.epoch
        cached = None
        if cached_version_cap is not None:
            try:
                cached = self._version_entry(cached_version_cap)
            except ReproError:
                pass  # unknown here: answered as a cold read
        current_cap = None
        if cached is None or cached.status != "committed":
            trusted = self._trusted_current(entry)
            if self.recorder.enabled:
                self.recorder.count(
                    "cache.current.chased" if trusted is None
                    else "cache.current.trusted"
                )
            if trusted is None:
                block, _ = self._resolve_current(entry)
            else:
                block = trusted[0]
                current_cap = self.issuer.mint_for(trusted[1], ALL_RIGHTS, self.rng)
            discards = [] if cached_version_cap is None else [PagePath.ROOT]
            if lease_ticks > 0 and self.recorder.enabled:
                self.recorder.count("cache.lease.cold_reads")
        elif (
            epoch is not None
            and epoch >= 0
            and epoch == current_epoch
            and entry.entry_block == cached.root_block
        ):
            block, discards, current_cap = cached.root_block, [], cached_version_cap
            self.metrics.lease_fast_renewals += 1
            if self.recorder.enabled:
                self.recorder.count("cache.lease.fast_renewals")
        elif (trusted := self._trusted_current(entry)) and trusted[1] == cached.obj:
            block, discards, current_cap = cached.root_block, [], cached_version_cap
            if self.recorder.enabled:
                self.recorder.count("cache.current.trusted")
        else:
            delegate = self._validation_delegate(entry) if allow_delegate else None
            if delegate is not None:
                params = {
                    "file_cap": file_cap,
                    "path": str(path),
                    "lease_ticks": lease_ticks,
                    "cached_version_cap": cached_version_cap,
                    "epoch": epoch,
                    "have_page": have_page,
                    "allow_delegate": False,
                }
                try:
                    data, current_cap, lease, texts = self.network.send(
                        self.name, delegate, Request("read_current", params)
                    )
                    return data, current_cap, lease, [PagePath.parse(t) for t in texts]
                except Exception:
                    pass  # the delegate vanished: do the test ourselves
            if self.recorder.enabled:
                self.recorder.count("cache.current.chased")
            discards, block = self._discards_since(entry, cached.root_block)
        if current_cap is None:
            current_cap = self._version_cap_for_block(entry.obj, block)
        lease = self._grant_lease(current_epoch, lease_ticks)
        if have_page and not any(bad.is_ancestor_of(path) for bad in discards):
            return None, current_cap, lease, discards
        data = self._walk_readonly(block, path).data
        self.metrics.snapshot_reads += 1
        if self.history is not None:
            self.history.record(
                "snapshot_read",
                actor=self.name,
                file=entry.obj,
                version=current_cap.obj,
                path=str(path),
                value=data,
            )
        return data, current_cap, lease, discards

    def _validation_delegate(self, file_entry: FileEntry) -> str | None:
        """Pick the server to delegate a cache-validation test to: the
        live server that committed the version at the file's entry block
        (the newest the table has published), provided it is not us and
        our own flag cache is cold for that version."""
        newest = self.registry.version_by_block(file_entry.entry_block)
        if (
            newest is None
            or newest.file_obj != file_entry.obj
            or newest.status != "committed"
            or not newest.server
            or newest.server == self.name
        ):
            return None
        if newest.root_block in self._write_paths_cache:
            return None  # we already hold the flag administration
        if not self.network.is_up(newest.server):
            return None
        return newest.server

    # ------------------------------------------------------------------
    # introspection (Figure 4: the family tree)
    # ------------------------------------------------------------------

    def family_tree(self, file_cap: Capability) -> dict:
        """The file's version family: the committed chain (oldest to
        current) and the uncommitted versions hanging off it — Figure 4."""
        self._check_up()
        entry = self._file_entry(file_cap, RIGHT_READ)
        current, _ = self._resolve_current(entry)
        chain = self.store.history_of(current)[::-1]
        uncommitted = [
            {"version": obj, "based_on": self.store.peek(v.root_block).base_ref}
            for obj in list(entry.open)
            if (v := self.registry.versions.get(obj)) is not None
        ]
        return {
            "file": entry.obj,
            "committed": chain,
            "current": current,
            "uncommitted": uncommitted,
        }


    # ------------------------------------------------------------------
    # the persisted file table (§5.4.1's replicated file table)
    # ------------------------------------------------------------------

    def checkpoint_registry(self, table_block: int | None = None) -> int:
        """Write the file table to stable storage; returns its block.

        With ``table_block`` given, the existing table block is rewritten
        in place (the table lives on the magnetic/rewritable side); without
        it a fresh block is allocated.  Call after creating files — commits
        never need re-checkpointing, because entry blocks are only hints
        (resolution chases commit references from any committed version).
        """
        self._check_up()
        raw = self.registry.serialize()
        if table_block is None:
            return self.store.blocks.allocate_write(raw)
        self.store.blocks.write(table_block, raw)
        return table_block

    def restore_registry(self, table_block: int) -> int:
        """Rebuild this server's registry and capability secrets from a
        persisted file table; returns the number of files restored.

        This is the cheap §4 recovery path (the expensive fallback, when
        even the table is lost, is :func:`repro.tools.salvage.salvage`).
        """
        self._check_up()
        recovered = FileRegistry.deserialize(self.store.blocks.read(table_block))
        self.registry.restore_from(recovered)
        for entry in self.registry.files.values():
            self.issuer.install_secret(entry.obj, entry.secret)
        return len(self.registry.files)

    def committed_versions(self, file_cap: Capability) -> list[Capability]:
        """Capabilities for every committed version, oldest to current.

        Committed versions are immutable snapshots; handing out their
        capabilities is how history stays readable (the source-control
        service is built on exactly this)."""
        self._check_up()
        tree = self.family_tree(file_cap)
        caps: list[Capability] = []
        for block in tree["committed"]:
            version = self.registry.version_by_block(block)
            if version is None:
                continue
            caps.append(self.issuer.mint_for(version.obj, ALL_RIGHTS, self.rng))
        return caps

    # ------------------------------------------------------------------
    # RPC command surface: each command declared once, over its method.
    # Read-only ones only read, repairing at most soft state: entry
    # blocks, the write-paths cache and lazily minted version entries.
    # read_page and page_structure record flags: they stay locked.
    # ------------------------------------------------------------------

    cmd_create_file = command(create_file)
    cmd_delete_file = command(delete_file)
    cmd_current_version = command(current_version, read_only=True)
    cmd_create_version = command(create_version)
    cmd_read_page = command(read_page, paths=("path",))
    cmd_write_page = command(write_page, paths=("path",))
    cmd_page_structure = command(page_structure, paths=("path",))
    cmd_insert_page = command(insert_page, paths=("parent_path",), path_reply=True)
    cmd_append_page = command(append_page, paths=("parent_path",), path_reply=True)
    cmd_remove_page = command(remove_page, paths=("path",))
    cmd_make_hole = command(make_hole, paths=("path",))
    cmd_remove_hole = command(remove_hole, paths=("path",))
    cmd_fill_hole = command(fill_hole, paths=("path",))
    cmd_split_page = command(split_page, paths=("path",), path_reply=True)
    cmd_move_subtree = command(
        move_subtree, paths=("src", "dst_parent"), path_reply=True
    )
    cmd_update = command(update)
    cmd_commit = command(commit)
    cmd_commit_group = command(commit_group)
    cmd_abort = command(abort)
    cmd_read_current = command(
        read_current, read_only=True, paths=("path",), path_reply=True
    )
    cmd_committed_versions = command(committed_versions, read_only=True)
    cmd_family_tree = command(family_tree, read_only=True)

    @command(read_only=True)
    def cmd_probe_update(self, update_port: int) -> bool:
        """Whether this server process still manages the given update —
        the lock waiter's liveness probe (§5.3's warning mechanism)."""
        return update_port in self._live_updates

    def cmd_recover_lock(self, file_cap: Capability) -> str:
        """One §5.3 waiter step on behalf of a blocked client: probe the
        lock holder and clear or finish its work if it died."""
        from repro.core.system_tree import SystemTree

        return SystemTree(self).wait_or_recover(file_cap)

    @command(read_only=True)
    def cmd_ping(self) -> str:
        return self.name


def _apply_mode(flags: Flags, mode: str) -> Flags:
    if mode == "read":
        return flags.read()
    if mode == "write":
        return flags.write()
    if mode == "search":
        return flags.search()
    if mode == "modify":
        return flags.modify()
    raise ValueError(f"unknown access mode {mode!r}")
