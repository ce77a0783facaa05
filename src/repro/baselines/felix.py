"""A FELIX-style baseline: versions plus file-level locking.

§3: "The FELIX file server also uses locking, although here it is at the
file level.  The FELIX locking mechanism is combined with a version
mechanism: when a file is examined or modified, a new version of the file
is created.  [...] When it is modified, a copy-on-write mechanism is used,
leaving the original tree intact."

And §6, the paper's direct criticism: "FELIX uses locking at the file
level.  The idea behind our system of not locking small files is that many
updates, even on the same file, do not affect the same parts of the file."

This baseline reuses the whole Amoeba substrate (versions, copy-on-write,
page trees) but replaces optimistic validation with an **exclusive
per-file update lock**: only one writer version may exist per file at a
time.  Commits therefore never conflict and never merge — and updates to
*disjoint pages of one file serialise needlessly*, which is exactly the
cost the comparison benchmarks make visible.  Readers read committed
versions freely (the version mechanism's gift, same as FELIX's).

Lock waiting is cooperative: ``begin`` raises :class:`FileBusy` and the
caller yields and retries (the driver's standard wait loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability import Capability
from repro.errors import BaselineError
from repro.core.pathname import PagePath
from repro.core.service import FileService, VersionHandle


class FileBusy(BaselineError):
    """Another update holds the file's exclusive lock; wait and retry."""


@dataclass
class _FileLockState:
    holder: int | None = None  # update ticket currently holding the file
    waiters: int = 0


class FelixFileService:
    """File-level-locked updates over the Amoeba version substrate."""

    def __init__(self, service: FileService) -> None:
        self.service = service
        self._locks: dict[int, _FileLockState] = {}
        self._next_ticket = 1
        self._ticket_of_version: dict[int, int] = {}
        self.stats_waits = 0

    # -- the exclusive update cycle -----------------------------------------

    def begin(self, file_cap: Capability) -> VersionHandle:
        """Create the file's one writable version, or raise
        :class:`FileBusy` if an update is already in progress."""
        state = self._locks.setdefault(file_cap.obj, _FileLockState())
        if state.holder is not None:
            self.stats_waits += 1
            raise FileBusy(f"file {file_cap.obj} is being updated")
        ticket = self._next_ticket
        self._next_ticket += 1
        state.holder = ticket
        try:
            handle = self.service.create_version(file_cap)
        except Exception:
            state.holder = None
            raise
        self._ticket_of_version[handle.version.obj] = ticket
        return handle

    def commit(self, handle: VersionHandle) -> None:
        """Commit; with the exclusive lock held this can never conflict."""
        try:
            self.service.commit(handle.version)
        finally:
            self._release(handle)

    def abort(self, handle: VersionHandle) -> None:
        try:
            self.service.abort(handle.version)
        finally:
            self._release(handle)

    def _release(self, handle: VersionHandle) -> None:
        ticket = self._ticket_of_version.pop(handle.version.obj, None)
        entry = self.service.registry.versions.get(handle.version.obj)
        file_obj = entry.file_obj if entry is not None else None
        if file_obj is None:
            # Fall back: scan (the version entry was purged).
            for obj, state in self._locks.items():
                if state.holder == ticket:
                    file_obj = obj
                    break
        if file_obj is not None:
            state = self._locks.get(file_obj)
            if state is not None and state.holder == ticket:
                state.holder = None

    # -- reads (unlocked: versions are snapshots) ------------------------------

    def read_committed(self, file_cap: Capability, path: PagePath) -> bytes:
        current = self.service.current_version(file_cap)
        return self.service.read_page(current, path)
