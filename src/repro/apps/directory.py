"""A directory server: hierarchical naming of capabilities.

Figure 1 places a *directory server* beside the file services: something
has to map human names to capabilities.  A directory here is itself an
Amoeba file whose root page stores a sorted table of
``name → packed capability`` entries; nested directories are just entries
whose capability names another directory file.

Lookups are snapshot reads of the current version; mutations run through
the optimistic redo loop, so two clients can extend the *same* directory
concurrently and both succeed unless they really race on the same name
table (in which case one transparently redoes).
"""

from __future__ import annotations

from repro.capability import Capability
from repro.errors import NoSuchFile, ReproError
from repro.core.pathname import PagePath
from repro.client.api import FileClient
from repro.merge.orset import decode_entries, encode_entries


class DirectoryEntryExists(ReproError):
    """The name is already bound in the directory."""


class NoSuchEntry(ReproError):
    """The name is not bound in the directory."""


def _pack_table(entries: dict[str, Capability]) -> bytes:
    """The table's bytes: :mod:`repro.merge.orset`'s codec, the one place
    the format lives, over packed capabilities."""
    return encode_entries({name: cap.pack() for name, cap in entries.items()})


def _unpack_table(raw: bytes) -> dict[str, Capability]:
    entries: dict[str, Capability] = {}
    for name, packed in decode_entries(raw).items():
        cap = Capability.unpack(packed)
        if cap is not None:
            entries[name] = cap
    return entries


class DirectoryServer:
    """Directories as files; path names as ``/``-separated strings."""

    def __init__(self, client: FileClient) -> None:
        self.client = client

    # -- directory objects -----------------------------------------------

    def create_root(self) -> Capability:
        """Create an empty root directory (merge-typed: concurrent binds
        of distinct names commit without conflicting)."""
        return self.client.create_file(_pack_table({}), mergeable=True)

    def mkdir(self, directory: Capability, name: str) -> Capability:
        """Create a new empty directory and bind it under ``name``."""
        child = self.client.create_file(_pack_table({}), mergeable=True)
        self.enter(directory, name, child)
        return child

    # -- bindings -------------------------------------------------------------

    def enter(self, directory: Capability, name: str, cap: Capability) -> None:
        """Bind ``name`` to ``cap``; raises if the name is taken."""

        def apply(update) -> None:
            table = _unpack_table(update.read(PagePath.ROOT))
            if name in table:
                raise DirectoryEntryExists(f"name {name!r} already bound")
            table[name] = cap
            update.write(PagePath.ROOT, _pack_table(table))

        self.client.transact(directory, apply)

    def replace(self, directory: Capability, name: str, cap: Capability) -> None:
        """Bind ``name`` to ``cap``, replacing any existing binding."""

        def apply(update) -> None:
            table = _unpack_table(update.read(PagePath.ROOT))
            table[name] = cap
            update.write(PagePath.ROOT, _pack_table(table))

        self.client.transact(directory, apply)

    def unlink(self, directory: Capability, name: str) -> None:
        """Remove the binding for ``name``; raises if absent."""

        def apply(update) -> None:
            table = _unpack_table(update.read(PagePath.ROOT))
            if name not in table:
                raise NoSuchEntry(f"name {name!r} not bound")
            del table[name]
            update.write(PagePath.ROOT, _pack_table(table))

        self.client.transact(directory, apply)

    # -- queries --------------------------------------------------------------

    def lookup(self, directory: Capability, name: str) -> Capability:
        """The capability bound to ``name``."""
        table = _unpack_table(self.client.read(directory, PagePath.ROOT))
        if name not in table:
            raise NoSuchEntry(f"name {name!r} not bound")
        return table[name]

    def list(self, directory: Capability) -> list[str]:
        """All names bound in the directory, sorted."""
        return sorted(_unpack_table(self.client.read(directory, PagePath.ROOT)))

    def resolve(self, root: Capability, path: str) -> Capability:
        """Resolve a ``/``-separated path from ``root``."""
        cap = root
        for part in path.strip("/").split("/"):
            if not part:
                continue
            cap = self.lookup(cap, part)
        return cap

    def bind_path(self, root: Capability, path: str, cap: Capability) -> None:
        """Bind a capability at a path, creating intermediate directories."""
        parts = [part for part in path.strip("/").split("/") if part]
        if not parts:
            raise NoSuchFile("empty path")
        directory = root
        for part in parts[:-1]:
            try:
                directory = self.lookup(directory, part)
            except NoSuchEntry:
                directory = self.mkdir(directory, part)
        self.enter(directory, parts[-1], cap)
