"""Super-files, sub-files and the locking mechanism (§5.3).

"The upper part of the tree, stored on magnetic media, which contains the
version pages for the files in the system, will be called the *system
tree*.  A file whose root is a leaf of the system tree will be called a
*small file* [...].  A file whose root is an internal node of the system
tree will be called a *super-file*."

The key trick that makes nesting cheap: a super-file's page tree references
a sub-file's *version page*, and that reference never changes when the
sub-file is updated independently — resolution simply chases the sub-file's
commit references to its current version.  Small-file updates therefore
never touch their enclosing super-file's tree.

Super-file updates use locking, "because it warns in advance that two
updates are likely to cause a conflict":

* creating the super version requires the current version block's top and
  inner locks both clear, then sets the top lock;
* each sub-file the update touches gets an *inner lock* on its current
  version block (waiting out any small update's top lock first), and a new
  sub-version is created under the super update's port;
* these locks are durable, because a waiter's crash recovery reads them;
  a small update's top lock is registry soft state (:mod:`repro.core.locks`)
  and is waited out the same way;
* commit sets the super-file's commit reference first (the usual atomic
  test-and-set — it cannot fail, the top lock excluded super competitors),
  then descends to commit every sub-version and clear the locks; "these
  commits always succeed, because the locks prevent access by other
  clients during the update".

Crash recovery needs no rollback: a waiter that finds the lock holder's
server dead either clears the locks (commit reference still nil — the
update simply never happened; its versions are garbage) or finishes the
crashed server's work (commit reference set — the super-file committed, so
the sub-file commits are completed by the waiter).  Everything the waiter
needs is on stable storage plus the shared registry: the sub-versions'
pages were flushed before the super commit's test-and-set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability import ALL_RIGHTS, Capability, RIGHT_CREATE, new_port
from repro.errors import BlockError, FileLocked, NotASuperFile
from repro.core.flags import Flags
from repro.core.page import NIL, Page, PageRef
from repro.core.pathname import PagePath
from repro.core.registry import FileEntry, VersionEntry
from repro.core.service import FileService, VersionHandle


@dataclass
class SuperFileUpdate:
    """A super-file update in progress."""

    handle: VersionHandle
    file_obj: int
    update_port: int
    locked_current: int  # the super-file current version block we top-locked
    sub_updates: dict[int, VersionHandle] = field(default_factory=dict)
    inner_locked: dict[int, int] = field(default_factory=dict)  # file_obj -> block
    created_subfiles: list[int] = field(default_factory=list)
    done: bool = False


class SystemTree:
    """Super-file operations bound to one file server."""

    def __init__(self, service: FileService) -> None:
        self.service = service

    # ------------------------------------------------------------------
    # creating nested files
    # ------------------------------------------------------------------

    def create_subfile(
        self,
        parent_version: Capability,
        parent_path: PagePath,
        index: int | None = None,
        initial_data: bytes = b"",
        mergeable: bool = False,
    ) -> Capability:
        """Create a new file nested inside an uncommitted version of its
        parent: the sub-file's initial version page becomes a child of the
        page at ``parent_path``.  The parent becomes a super-file.

        The sub-file is fully usable immediately (its own capability, its
        own small-file updates), but it only becomes *reachable* in the
        parent once the parent version commits; if the parent aborts, the
        sub-file dies with it.
        """
        service = self.service
        entry = service._open_version(parent_version)
        parent_file = service.registry.file(entry.file_obj)

        file_cap = service.issuer.mint(ALL_RIGHTS, service.rng)
        version_cap = service.issuer.mint(ALL_RIGHTS, service.rng)
        sub_root = Page(
            file_cap=file_cap,
            version_cap=version_cap,
            is_version_page=True,
            mergeable=mergeable,
            parent_ref=entry.root_block,
            data=initial_data,
        )
        sub_root.check_fits()
        sub_block = service.store.store_durable(sub_root)

        block, page = service._walk(entry, parent_path, "modify")
        ref = PageRef(sub_block, Flags(c=True, w=True))
        if index is None:
            page.append_ref(ref)
        else:
            page.insert_ref(index, ref)
        service.store.store_in_place(block, page)

        service.registry.add_file(
            FileEntry(
                file_cap.obj,
                sub_block,
                service.issuer.secret_of(file_cap.obj),
                is_super=False,
                parent_obj=entry.file_obj,
                mergeable=mergeable,
            )
        )
        if service.history is not None:
            if mergeable:
                service.history.record(
                    "merge_typed", actor=service.name, file=file_cap.obj
                )
            # The sub-file's initial version is committed here and now (the
            # enclosing super-file update only publishes the *binding*), so
            # the checker needs its birth on the log like any create_file.
            service.history.record(
                "create",
                actor=service.name,
                file=file_cap.obj,
                version=version_cap.obj,
                path="",
                value=bytes(initial_data),
                tick=service.clock.now,
            )
        service.registry.add_version(
            VersionEntry(
                version_cap.obj,
                file_cap.obj,
                sub_block,
                service.issuer.secret_of(version_cap.obj),
                status="committed",
            )
        )
        parent_file.is_super = True
        return file_cap

    def subfile_at(self, version_cap: Capability, path: PagePath) -> Capability:
        """The file capability of the sub-file whose version page sits at
        ``path`` in the given version's tree (read-only resolution)."""
        service = self.service
        entry = service._version_entry(version_cap)
        page = service._walk_readonly(entry.root_block, path)
        if not page.is_version_page or page.file_cap is None:
            raise NotASuperFile(f"page at {path} is not a sub-file version page")
        return page.file_cap

    # ------------------------------------------------------------------
    # the super-file update cycle
    # ------------------------------------------------------------------

    def begin_super_update(
        self,
        file_cap: Capability,
        owner: str = "",
        relaxed: bool = False,
        max_retries: int = 16,
    ) -> SuperFileUpdate:
        """Start an update of a super-file.

        Standard rule: wait for both lock fields of the current version
        block, and a small update's soft top lock, to be clear, then set
        the top lock.  ``relaxed=True`` implements the §5.3 relaxation
        ("allow creating a version when the version block's top lock is
        set" — the optimistic layer underneath still guarantees
        consistency); the inner lock is always honoured.
        """
        service = self.service
        entry = service._file_entry(file_cap, RIGHT_CREATE)
        if not relaxed and entry.open:
            raise FileLocked(
                f"super-file {entry.obj}: top lock held by {entry.soft_lock():#x}"
            )
        update_port = new_port(service.rng)
        for _ in range(max_retries):
            cur_block, _ = service._resolve_current(entry)
            if relaxed:
                snapshot = service.locks.read(cur_block)
                if snapshot.inner != 0:
                    raise FileLocked(
                        f"super-file {entry.obj}: inner lock held by "
                        f"{snapshot.inner:#x}"
                    )
                if service.locks.set_top(cur_block, snapshot, update_port):
                    break
            else:
                if service.locks.set_top_exclusive(cur_block, update_port):
                    break
                snapshot = service.locks.read(cur_block)
                raise FileLocked(
                    f"super-file {entry.obj}: locked (top={snapshot.top:#x}, "
                    f"inner={snapshot.inner:#x})"
                )
        else:
            raise FileLocked(f"super-file {entry.obj}: could not set top lock")
        handle = service._new_version_from(entry, cur_block, owner, update_port)
        return SuperFileUpdate(
            handle=handle,
            file_obj=entry.obj,
            update_port=update_port,
            locked_current=cur_block,
        )

    def open_subfile(
        self, update: SuperFileUpdate, sub_file_cap: Capability
    ) -> VersionHandle:
        """Bring a sub-file into a super-file update: set the inner lock on
        its current version block and create a sub-version owned by the
        same update port.  A small update's soft top lock makes the super
        update wait, as a durable one would."""
        service = self.service
        entry = service._file_entry(sub_file_cap, RIGHT_CREATE)
        if entry.obj in update.sub_updates:
            return update.sub_updates[entry.obj]
        cur_block, _ = service._resolve_current(entry)
        if entry.open or not service.locks.set_inner(
            cur_block, update.update_port
        ):
            snapshot = service.locks.read(cur_block)
            raise FileLocked(
                f"sub-file {entry.obj}: cannot set inner lock (top="
                f"{snapshot.top or entry.soft_lock():#x}, inner={snapshot.inner:#x})"
            )
        handle = service._new_version_from(
            entry, cur_block, owner=service.name, update_port=update.update_port
        )
        update.sub_updates[entry.obj] = handle
        update.inner_locked[entry.obj] = cur_block
        return handle

    def commit_super(self, update: SuperFileUpdate) -> None:
        """Commit the super-file update: flush everything and set the
        super-file's commit reference, then finish the sub-file commits and
        clear the locks (the part a waiter redoes after a crash)."""
        service = self.service
        if update.done:
            return
        # Everything — super version and every sub-version — must be on
        # stable storage before the commit reference is set, so that a
        # crash after the set leaves a finishable state.  The commit's one
        # request flushes the whole dirty set, sub-versions included, and
        # the block tier makes the reference durable behind all of it.
        service.commit(update.handle.version)
        self._finish_sub_commits(update.update_port)
        service.locks.clear_top_if(update.locked_current, update.update_port)
        update.done = True

    def abort_super(self, update: SuperFileUpdate) -> None:
        """Abandon the update: abort all versions, clear all locks."""
        service = self.service
        if update.done:
            return
        for handle in update.sub_updates.values():
            service.abort(handle.version)
        for file_obj, block in update.inner_locked.items():
            service.locks.clear_inner_if(block, update.update_port)
        for sub_obj in update.created_subfiles:
            service.registry.drop_file(sub_obj)
        service.abort(update.handle.version)
        service.locks.clear_top_if(update.locked_current, update.update_port)
        update.done = True

    def _finish_sub_commits(self, update_port: int) -> int:
        """Commit every flushed sub-version belonging to ``update_port`` and
        clear its base's inner lock.  Idempotent — this is exactly what a
        waiter performs when it finishes a crashed server's commit."""
        service = self.service
        finished = 0
        for entry in list(service.registry.versions.values()):
            if entry.update_port != update_port or entry.status != "uncommitted":
                continue
            base = service.store.load(entry.root_block, fresh=True).base_ref
            result = service.store.tas_commit_ref(base, entry.root_block)
            # "These commits always succeed, because the locks prevent
            # access by other clients during the update" — or a recovering
            # waiter already performed them (result carries our block).
            if result.success or int.from_bytes(result.current, "big") == entry.root_block:
                # A commit-publication point like any other: leases on
                # the old current version must stop fast-renewing.
                service._published(entry)
                finished += 1
            service.locks.clear_inner_if(base, update_port)
        return finished

    # ------------------------------------------------------------------
    # waiting and crash recovery (§5.3)
    # ------------------------------------------------------------------

    def holder_alive(self, update_port: int) -> bool:
        """Probe whether the update holding ``update_port`` is still alive.

        "Locks are made of ports, which are used to realise an automatic
        warning mechanism": a transaction to the update's port fails when
        the holding process has died.  The probe is a message to the
        managing server asking whether it still knows the update — a
        restarted server answers no, because live-update state is
        deliberately in-memory only.
        """
        from repro.sim.rpc import Request

        service = self.service
        for entry in service.registry.versions.values():
            if entry.update_port == update_port and entry.status == "uncommitted":
                if not entry.server:
                    return False
                try:
                    return bool(
                        service.network.send(
                            service.name,
                            entry.server,
                            Request("probe_update", {"update_port": update_port}),
                        )
                    )
                except Exception:
                    return False
        # No live version claims the port: the update is gone either way.
        return False

    def recover_top_lock(self, file_cap: Capability) -> str:
        """What a waiter on a top lock does (§5.3).

        Returns ``"free"`` (nothing to wait for), ``"alive"`` (the holder
        is running — keep waiting), ``"cleared"`` (holder crashed before
        committing; locks cleared, update discarded) or ``"finished"``
        (holder crashed after setting the commit reference; this waiter
        completed the sub-file commits).  The holders are a super update's
        durable top lock and every open version's update (the soft lock):
        each dead one is cleared, and the waiter keeps waiting while any
        is alive."""
        service = self.service
        entry = service._file_entry(file_cap)
        block, _ = service._resolve_current(entry)
        durable = service.locks.read(block).top
        holders = set(entry.open.values()) | ({durable} if durable else set())
        if not holders:
            return "free"
        dead = {port for port in holders if not self.holder_alive(port)}
        # "If the commit reference is off, the lock can be cleared without
        # further ado" — resolve_current gave us the lock-bearing block
        # only if its commit reference is nil.
        for port in sorted(dead):
            self._abandon_update(port)
        if durable in dead:
            service.locks.force_clear_top(block)
        return "alive" if holders - dead else "cleared"

    def recover_after_commit(self, file_cap: Capability) -> str:
        """Recovery when the crashed holder *had* set the super-file's
        commit reference: finish the sub-file commits.  Use this when a
        super-file's current version carries inner-locked sub-files but no
        live holder (the waiter found the super commit done)."""
        service = self.service
        entry = service._file_entry(file_cap)
        current, page = service._resolve_current(entry)
        # The newly committed super version's own registry entry tells us
        # the update port; sub-versions share it.
        version = service.registry.version_by_block(current)
        if version is None or version.update_port == 0:
            return "free"
        port = version.update_port
        if self.holder_alive(port):
            return "alive"
        finished = self._finish_sub_commits(port)
        prev = page.base_ref
        if prev != NIL:
            service.locks.force_clear_top(prev)
        return "finished" if finished else "free"

    def wait_or_recover(self, file_cap: Capability) -> str:
        """One waiter step, covering every §5.3 recovery case.

        * blocked by a *top lock* whose holder died before committing:
          clear the locks, discard the update ("cleared");
        * the holder died after setting the commit reference: finish the
          sub-file commits ("finished");
        * blocked by an *inner lock*: "ascend the system tree to the first
          unlocked page, or a page with a top lock" — recover the
          enclosing super-file update, then clear or finish here;
        * the holder is alive: "alive" — keep waiting.
        """
        service = self.service
        entry = service._file_entry(file_cap)
        block, _ = service._resolve_current(entry)
        snapshot = service.locks.read(block)
        if snapshot.inner != 0:
            return self._recover_inner(entry, block, snapshot.inner)
        status = self.recover_top_lock(file_cap)
        if status != "free":
            return status
        return self.recover_after_commit(file_cap)

    def _recover_inner(self, entry, block: int, port: int) -> str:
        """Recovery for a waiter blocked by an inner lock."""
        service = self.service
        if self.holder_alive(port):
            return "alive"
        # Ascend to the enclosing super-file.
        if entry.parent_obj and entry.parent_obj in service.registry.files:
            parent_entry = service.registry.file(entry.parent_obj)
            parent_cap = service.issuer.mint_for(
                parent_entry.obj, ALL_RIGHTS, service.rng
            )
            parent_block, _ = service._resolve_current(parent_entry)
            parent_snap = service.locks.read(parent_block)
            if parent_snap.top == port:
                # The dead holder never committed the super-file: the whole
                # update is discarded and every lock cleared.
                self._abandon_update(port)
                service.locks.force_clear_top(parent_block)
                service.locks.force_clear_inner(block)
                return "cleared"
            # The parent's current version may BE the dead holder's commit:
            # finish its sub-file commits (idempotent; clears inner locks).
            status = self.recover_after_commit(parent_cap)
            if status == "finished":
                return "finished"
        # No locked ancestor claims the port: the inner lock is residue of
        # an update that no longer exists — "the inner lock can be ignored".
        self._abandon_update(port)
        service.locks.force_clear_inner(block)
        return "cleared"

    def _abandon_update(self, update_port: int) -> int:
        """Discard all uncommitted versions of a dead update and clear the
        inner locks they held."""
        service = self.service
        dropped = 0
        for entry in list(service.registry.versions.values()):
            if entry.update_port != update_port or entry.status != "uncommitted":
                continue
            try:
                base = service.store.load(entry.root_block, fresh=True).base_ref
            except BlockError:
                # Never flushed, so its base is unknown here; each waiter
                # clears the inner lock it is blocked on itself.
                base = NIL
            service._remove_version(entry)
            if base != NIL:
                service.locks.clear_inner_if(base, update_port)
            dropped += 1
        return dropped
