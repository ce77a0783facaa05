"""The client library.

A :class:`FileClient` is what runs on a host that uses the file service:

* it addresses the *service port*, so requests fail over between
  replicated file server processes ("clients do not have to wait until the
  server is restored, because they can use another server");
* it maintains the client-side page cache of §5.4, revalidated through the
  server's serialisability test (no unsolicited messages);
* it provides :meth:`FileClient.transact`, the redo loop: run the update
  against a fresh version, commit, and on :class:`CommitConflict` redo it,
  exactly as the optimistic method demands (a write-only one is one RPC);
* it waits out super-file locks with the §5.3 waiter protocol (including
  taking over a dead holder's recovery) via the service's recovery command.

All page data moves as bytes; path names move in their textual form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.capability import Capability
from repro.errors import CommitConflict, FileLocked, ReproError
from repro.core.cache import ClientFileCache
from repro.core.pathname import PagePath
from repro.core.service import VersionHandle
from repro.obs import NULL_RECORDER
from repro.sim.network import Network
from repro.sim.rpc import Transaction


@dataclass
class ClientStats:
    """What the client observed (benchmarks report these)."""

    commits: int = 0
    conflicts: int = 0
    redos: int = 0
    lock_waits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lease_hits: int = 0  # cached reads served under a live lease (0 messages)
    lease_expired: int = 0  # reads that found the lease dead and revalidated


class FileClient:
    """A host-side handle on the file service."""

    def __init__(
        self,
        network: Network,
        node: str,
        service_port: int,
        prefer_server: str | None = None,
        use_cache: bool = True,
        buffer_writes: bool = False,
        history: "Any | None" = None,
        lease_ticks: int | None = None,
        cache_pages: int = 1024,
    ) -> None:
        self.node = node
        self.txn = Transaction(network, node)
        self.service_port = service_port
        self.prefer_server = prefer_server
        self.cache = ClientFileCache(max_pages=cache_pages) if use_cache else None
        self.buffer_writes = buffer_writes
        # Read-lease TTL this client asks servers for, in the deployment's
        # clock units (logical ticks on the simulation, microseconds over
        # TCP) — also the client's staleness tolerance: a lease-served
        # read may lag the newest commit by at most this much.  None
        # keeps the seed behaviour: revalidate on every read.
        self.lease_ticks = lease_ticks
        self.clock = network.clock
        self.stats = ClientStats()
        self._recorder = getattr(network, "recorder", NULL_RECORDER)
        # Operation-history recorder (repro.verify.history.HistoryRecorder).
        # Only cache-served reads are recorded here — every other operation
        # reaches a server, which records it.  Named history_recorder because
        # :meth:`history` is the committed-versions query.
        self.history_recorder = history

    @classmethod
    def from_discovery(cls, spec: str, node: str = "client", recorder=None, **kwargs):
        """Join a served TCP deployment knowing only its ``discovery``
        spec entry: bootstrap from the registry (service port, daemon
        directory) and return a ready client.  The rest of the spec —
        block and shard entries — is not needed; the directory carries
        every daemon's socket address."""
        from repro.net.cluster import bootstrap

        network, payload = bootstrap(spec, node=node, recorder=recorder)
        return cls(network, node, payload["service_port"], **kwargs)

    # -- raw command helpers ------------------------------------------------

    def _call(self, command: str, **params: Any) -> Any:
        return self.txn.call(
            self.service_port, command, prefer=self.prefer_server, **params
        )

    # -- file management --------------------------------------------------------

    def create_file(
        self, initial_data: bytes = b"", mergeable: bool = False
    ) -> Capability:
        """Create a new file; returns its owner capability.

        ``mergeable=True`` types the file's root page as a directory
        entry table whose concurrent rewrites the server's merge policy
        may reconcile instead of conflicting (:mod:`repro.merge`).
        """
        return self._call(
            "create_file", initial_data=initial_data, mergeable=mergeable
        )

    def delete_file(self, file_cap: Capability) -> None:
        self._call("delete_file", file_cap=file_cap)
        if self.cache is not None:
            self.cache.drop(file_cap)

    def current_version(self, file_cap: Capability) -> Capability:
        return self._call("current_version", file_cap=file_cap)

    # -- current-state reads ------------------------------------------------------

    def read(self, file_cap: Capability, path: PagePath = PagePath.ROOT) -> bytes:
        """Read a page of the file's current state, going through the cache.

        With ``lease_ticks`` set, a cache hit under a live lease costs
        **no messages at all**.  Every other read is one lock-free
        ``read_current`` round trip.  Holding a cache entry, the client
        presents its version (and its lease epoch), and the server runs
        the §5.4 serialisability test in the same exchange: it answers
        with the paths to discard and sends the page only if the client
        does not hold it or must discard it.  For a file nobody else
        modified that is one small message and no page transfer.  The
        reply carries a fresh lease when ``lease_ticks`` is set.
        """
        if self.cache is None:
            # No cache, nowhere to keep a lease: ask for none.
            return self._call(
                "read_current", file_cap=file_cap, path=str(path), lease_ticks=0
            )[0]
        recorder = self._recorder
        entry = self.cache.entry(file_cap)
        validation = {}
        if entry is not None:
            if self.lease_ticks and entry.lease_live(self.clock.now):
                data = self.cache.get(file_cap, path)
                if data is not None:
                    self.stats.cache_hits += 1
                    self.stats.lease_hits += 1
                    if recorder.enabled:
                        recorder.count("cache.lease.hits")
                    self._record_cached_read(file_cap, entry, path, data, leased=True)
                    return data
            elif self.lease_ticks:
                self.stats.lease_expired += 1
                if recorder.enabled:
                    recorder.count("cache.lease.expired")
            validation = {
                "cached_version_cap": entry.version_cap,
                "epoch": entry.lease_epoch,
                "have_page": path in entry.pages,
            }
        # Stamped before the request: the version granted on cannot have
        # been superseded before this instant, so the lease window bounds
        # how far any lease-served read can lag.
        now = self.clock.now
        data, current, lease, discards = self._call(
            "read_current",
            file_cap=file_cap,
            path=str(path),
            lease_ticks=self.lease_ticks or 0,
            **validation,
        )
        if entry is None:
            self.cache.remember(file_cap, current, {path: data})
        else:
            self.cache.apply_discards(
                file_cap, [PagePath.parse(text) for text in discards], current
            )
            if data is None:
                # Still valid in the current version: a cache-served read
                # of that committed version, which no server records.
                data = self.cache.get(file_cap, path)
                self.stats.cache_hits += 1
                self._record_cached_read(file_cap, entry, path, data, leased=False)
            else:
                self.stats.cache_misses += 1
                self.cache.put(file_cap, path, data)
        if self.lease_ticks:
            self.cache.set_lease(file_cap, lease, now)
        return data

    def _record_cached_read(
        self,
        file_cap: Capability,
        entry: Any,
        path: PagePath,
        data: bytes,
        leased: bool,
    ) -> None:
        if self.history_recorder is None or entry is None:
            return
        extra: dict[str, int] = {}
        if leased:
            # The tick and TTL let the history checker prove the
            # staleness bound: this read may lag the superseding commit
            # by at most the lease TTL.
            extra = {"tick": self.clock.now, "ttl": entry.lease_ttl}
        self.history_recorder.record(
            "snapshot_read",
            actor=self.node,
            file=file_cap.obj,
            version=entry.version_cap.obj,
            path=str(path),
            value=data,
            **extra,
        )

    def ping(self) -> str:
        """Name of the server process currently answering this client —
        group commits must hand all their updates to one server, so
        callers pin ``prefer_server`` to this before beginning them."""
        return self._call("ping")

    def history(self, file_cap: Capability) -> list[Capability]:
        """Capabilities for every committed version, oldest to current —
        committed versions are immutable snapshots, so these stay readable
        forever (until history pruning)."""
        return self._call("committed_versions", file_cap=file_cap)

    def read_version(
        self, version_cap: Capability, path: PagePath = PagePath.ROOT
    ) -> bytes:
        """Read a page of a specific (usually historical) version."""
        return self._call("read_page", version_cap=version_cap, path=str(path))

    # -- updates ----------------------------------------------------------------

    def begin(
        self,
        file_cap: Capability,
        respect_soft_lock: bool = False,
        buffer_writes: bool | None = None,
    ) -> "ClientUpdate":
        """Create a version and return an update handle.

        Waits out inner locks (enclosing super-file updates) using the
        §5.3 waiter protocol: probe, recover if the holder died, retry.

        ``buffer_writes`` (default: the client's setting) enables the
        client-side write-behind cache of §5.4: page writes are held
        locally and shipped in one burst just before commit, so a page
        rewritten n times crosses the network once.
        """
        buffering = self.buffer_writes if buffer_writes is None else buffer_writes
        update = ClientUpdate(self, file_cap, buffering, respect_soft_lock)
        update.handle  # begun now, not on first need
        return update

    def _waiting(
        self, command: str, file_cap: Capability, max_waits: int = 64, **params: Any
    ) -> Any:
        """``create_version`` or ``update`` on ``file_cap``, waiting out locks."""
        for _ in range(max_waits):
            try:
                return self._call(command, file_cap=file_cap, owner=self.node, **params)
            except FileLocked:
                self.stats.lock_waits += 1
                # One waiter step: clears or finishes a dead holder's work,
                # or tells us the holder is alive (keep waiting).
                self._call("recover_lock", file_cap=file_cap)
        raise FileLocked(f"file {file_cap.obj}: still locked after {max_waits} waits")

    def commit_group(self, updates: list["ClientUpdate"]) -> dict[int, str]:
        """Commit several ready updates in one group-commit call.

        Every update must be managed by the same server process (begin
        them with ``prefer_server`` pinned to :meth:`ping`'s answer).
        Buffered writes ship first, then one ``commit_group`` RPC settles
        the whole batch.  Returns the server's per-version outcome map
        (``version obj -> "committed" | "committed-merged" |
        "conflict: ..."``); conflicted members are already removed
        server-side and must be redone.  If the call itself fails (server
        or storage outage) no member committed and the updates stay open
        for retry.
        """
        for update in updates:
            update.flush()
        outcomes = self._call(
            "commit_group",
            version_caps=[update.version for update in updates],
        )
        for update in updates:
            outcome = outcomes.get(update.version.obj)
            if outcome is None:
                continue
            update.done = True
            if outcome == "committed":
                self.stats.commits += 1
                if self.cache is not None and update._written:
                    self.cache.remember(
                        update.file_cap, update.version, update._written
                    )
            elif outcome == "committed-merged":
                # Committed, but the merge policy reconciled some pages
                # with concurrent updates: what we wrote is NOT what the
                # committed version holds, so seed nothing — the cache
                # refetches on demand.
                self.stats.commits += 1
            else:
                self.stats.conflicts += 1
        return outcomes

    def transact(
        self,
        file_cap: Capability,
        update_fn: Callable[["ClientUpdate"], Any],
        max_redos: int = 16,
        respect_soft_lock: bool = False,
    ) -> Any:
        """The optimistic redo loop: apply ``update_fn`` to a fresh version
        and commit; on a serialisability conflict, redo from scratch.

        Returns ``update_fn``'s result from the attempt that committed.
        Whatever ``update_fn`` raises aborts the version first; a failed
        ``commit`` does not, because its reply may be all that was lost.
        An ``update_fn`` that only writes costs one ``update`` request.
        """
        last: ReproError | None = None
        for attempt in range(max_redos):
            update = ClientUpdate(self, file_cap, self.buffer_writes, respect_soft_lock)
            try:
                outcome = update_fn(update)
            except Exception:
                update.abort()
                raise
            try:
                update.commit()
                return outcome
            except CommitConflict as conflict:
                self.stats.conflicts += 1
                self.stats.redos += 1
                last = conflict
        raise CommitConflict(
            f"update on file {file_cap.obj} failed after {max_redos} redos"
        ) from last


class ClientUpdate:
    """One update in progress on one file (a version plus local bookkeeping).

    With ``buffering`` on, page writes stay in client memory ("the page
    cache does not have to be a 'write through' cache", §5.4) and are
    shipped just before commit; reading a buffered page is served locally
    (reading your own write depends on nothing in the base version, so no
    server-side R flag is needed for it).  Structural operations flush the
    buffer first — they renumber paths, which the buffer is keyed by.
    The version is begun on first need (:attr:`handle`).
    """

    def __init__(
        self,
        client: FileClient,
        file_cap: Capability,
        buffering: bool = False,
        respect_soft_lock: bool = False,
    ) -> None:
        self.client = client
        self.file_cap = file_cap
        self.buffering = buffering
        self.respect_soft_lock = respect_soft_lock
        self.done = False
        self._handle: VersionHandle | None = None
        self._written: dict[PagePath, bytes] = {}
        self._buffered: dict[PagePath, bytes] = {}

    @property
    def handle(self) -> VersionHandle:
        """The update's version, begun on the server the first time
        anything but a write or a commit needs it: the writes buffered
        until then ship first, as later ones will unless ``buffering``."""
        if self._handle is None:
            self._handle = self.client._waiting(
                "create_version", self.file_cap, respect_soft_lock=self.respect_soft_lock
            )
            if not self.buffering:
                self.flush()
        return self._handle

    @property
    def version(self) -> Capability:
        return self.handle.version

    # -- the write-behind buffer ---------------------------------------------

    def flush(self) -> int:
        """Ship buffered writes to the server; returns how many pages."""
        count = 0
        for path, data in sorted(self._buffered.items()):
            self.client._call(
                "write_page", version_cap=self.version, path=str(path), data=data
            )
            count += 1
        self._buffered.clear()
        return count

    # -- page operations ---------------------------------------------------

    def read(self, path: PagePath = PagePath.ROOT) -> bytes:
        if path in self._buffered:
            return self._buffered[path]
        data = self.client._call(
            "read_page", version_cap=self.version, path=str(path)
        )
        return data

    def write(self, path: PagePath, data: bytes) -> None:
        if self.buffering or self._handle is None:
            self._buffered[path] = data
        else:
            self.client._call(
                "write_page", version_cap=self.version, path=str(path), data=data
            )
        self._written[path] = data

    def _forget_under(self, parent: PagePath) -> None:
        """Drop local write records below ``parent``: a structural change
        renumbers sibling paths, so path-keyed records there go stale."""
        for path in [p for p in self._written if parent.is_ancestor_of(p) and p != parent]:
            del self._written[path]

    def append_page(self, parent: PagePath, data: bytes = b"") -> PagePath:
        self.flush()
        text = self.client._call(
            "append_page", version_cap=self.version, parent_path=str(parent), data=data
        )
        path = PagePath.parse(text)
        self._written[path] = data
        return path

    def insert_page(self, parent: PagePath, index: int, data: bytes = b"") -> PagePath:
        self.flush()
        text = self.client._call(
            "insert_page",
            version_cap=self.version,
            parent_path=str(parent),
            index=index,
            data=data,
        )
        self._forget_under(parent)
        path = PagePath.parse(text)
        self._written[path] = data
        return path

    def remove_page(self, path: PagePath) -> None:
        self.flush()
        self.client._call("remove_page", version_cap=self.version, path=str(path))
        self._forget_under(path.parent())

    def make_hole(self, path: PagePath) -> None:
        self.flush()
        self.client._call("make_hole", version_cap=self.version, path=str(path))
        self._written.pop(path, None)
        self._forget_under(path)

    def remove_hole(self, path: PagePath) -> None:
        self.flush()
        self.client._call("remove_hole", version_cap=self.version, path=str(path))
        self._forget_under(path.parent())

    def fill_hole(self, path: PagePath, data: bytes = b"") -> None:
        self.flush()
        self.client._call(
            "fill_hole", version_cap=self.version, path=str(path), data=data
        )
        self._written[path] = data

    def split_page(self, path: PagePath, at: int) -> PagePath:
        self.flush()
        text = self.client._call(
            "split_page", version_cap=self.version, path=str(path), at=at
        )
        self._written.pop(path, None)
        self._forget_under(path.parent())
        return PagePath.parse(text)

    def move_subtree(
        self, src: PagePath, dst_parent: PagePath, dst_index: int
    ) -> PagePath:
        self.flush()
        text = self.client._call(
            "move_subtree",
            version_cap=self.version,
            src=str(src),
            dst_parent=str(dst_parent),
            dst_index=dst_index,
        )
        self._written.pop(src, None)
        self._forget_under(src.parent())
        self._forget_under(dst_parent)
        return PagePath.parse(text)

    def structure(self, path: PagePath = PagePath.ROOT) -> list[int]:
        self.flush()
        return self.client._call(
            "page_structure", version_cap=self.version, path=str(path)
        )

    # -- ending the update ----------------------------------------------------

    def commit(self) -> None:
        """Commit; buffered writes ship first ("postponed until just
        before commit", §5.4), and on success the written pages seed the
        client cache — except paths the server's merge policy reconciled
        with concurrent updates, whose committed bytes are a merge rather
        than our write.  An update never begun is created, written and
        committed by one ``update`` request."""
        if self._handle is None:
            writes = {str(path): data for path, data in self._buffered.items()}
            version, merged_paths = self.client._waiting(
                "update", self.file_cap, writes=writes,
                respect_soft_lock=self.respect_soft_lock,
            )
            self._buffered.clear()
            self._handle = VersionHandle(version, self.file_cap)
        else:
            self.flush()
            merged_paths = self.client._call("commit", version_cap=self.version)
        self.done = True
        self.client.stats.commits += 1
        written = self._written
        if merged_paths:
            merged = set(merged_paths)
            written = {
                path: data
                for path, data in written.items()
                if str(path) not in merged
            }
        if self.client.cache is not None and written:
            self.client.cache.remember(self.file_cap, self.version, written)

    def abort(self) -> None:
        """Discard the update; one never begun costs no request."""
        if not self.done:
            self._buffered.clear()
            if self._handle is not None:
                self.client._call("abort", version_cap=self.version)
            self.done = True
