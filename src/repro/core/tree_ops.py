"""Structural operations on a version's page tree.

§5: "There are commands to read and write the pages of a version and
commands to manipulate the shape of a version's page tree (split pages into
two, move subtrees to another part of the tree, etc.)."  §5.1 names the
reference-modifying operations the M flag records: "insert page, remove
page, make hole, remove hole".

Every operation here walks to the affected parent page in ``modify`` mode,
which shadows the path and sets the M (and S) flags the serialisability
test relies on.  Pages created by an operation are private to the version
(their references carry C and W); removed subtrees that were private are
freed immediately, while shared subtrees are left to the base version.

Clients use these to shape files into whatever structure they need —
"objects ranging from linear files to B-trees can easily be represented".
"""

from __future__ import annotations

from repro.capability import Capability
from repro.errors import BadPathName
from repro.core.flags import Flags
from repro.core.page import NIL, Page, PageRef
from repro.core.pathname import PagePath


def _modify_parent(service, version_cap: Capability, parent_path: PagePath):
    """Walk to the page whose reference table is about to change."""
    entry = service._open_version(version_cap)
    block, page = service._walk(entry, parent_path, "modify")
    return entry, block, page


def _new_child(service, page_data: bytes, nref_slots: int = 0) -> int:
    """Create a brand-new private page and return its block."""
    child = Page(
        base_ref=NIL,
        refs=[PageRef(NIL, Flags()) for _ in range(nref_slots)],
        data=page_data,
    )
    child.check_fits()
    return service.store.store_new(child)


_CREATED_FLAGS = Flags(c=True, w=True)


def insert_page(
    service,
    version_cap: Capability,
    parent_path: PagePath,
    index: int,
    data: bytes = b"",
    nref_slots: int = 0,
) -> PagePath:
    """Insert a new page as child ``index`` of the page at ``parent_path``
    (existing references at and after ``index`` shift right).  Returns the
    new page's path name."""
    entry, block, page = _modify_parent(service, version_cap, parent_path)
    if index > page.nrefs:
        raise BadPathName(
            f"insert index {index} beyond reference table of {page.nrefs}"
        )
    child_block = _new_child(service, data, nref_slots)
    page.insert_ref(index, PageRef(child_block, _CREATED_FLAGS))
    service.store.store_in_place(block, page)
    return parent_path.child(index)


def append_page(
    service,
    version_cap: Capability,
    parent_path: PagePath,
    data: bytes = b"",
    nref_slots: int = 0,
) -> PagePath:
    """Insert a new page after the last reference of ``parent_path``."""
    entry, block, page = _modify_parent(service, version_cap, parent_path)
    child_block = _new_child(service, data, nref_slots)
    index = page.append_ref(PageRef(child_block, _CREATED_FLAGS))
    service.store.store_in_place(block, page)
    return parent_path.child(index)


def remove_page(service, version_cap: Capability, path: PagePath) -> None:
    """Remove the reference at ``path`` from its parent (later references
    shift left).  A subtree private to this version is freed; a shared
    subtree still belongs to the base version and is left alone."""
    if path.is_root:
        raise BadPathName("cannot remove the root page")
    entry, block, page = _modify_parent(service, version_cap, path.parent())
    index = path.last
    if index >= page.nrefs:
        raise BadPathName(f"remove: index {index} out of range ({page.nrefs})")
    ref = page.remove_ref(index)
    service.store.store_in_place(block, page)
    _free_if_private(service, ref)


def make_hole(service, version_cap: Capability, path: PagePath) -> None:
    """Replace the reference at ``path`` with nil, keeping its slot (so
    sibling path names do not shift)."""
    if path.is_root:
        raise BadPathName("cannot make the root a hole")
    entry, block, page = _modify_parent(service, version_cap, path.parent())
    index = path.last
    if index >= page.nrefs:
        raise BadPathName(f"make_hole: index {index} out of range ({page.nrefs})")
    ref = page.ref(index)
    if ref.is_nil:
        return
    page.set_ref(index, PageRef(NIL, Flags()))
    service.store.store_in_place(block, page)
    _free_if_private(service, ref)


def remove_hole(service, version_cap: Capability, path: PagePath) -> None:
    """Delete a nil reference slot (later references shift left)."""
    if path.is_root:
        raise BadPathName("the root is not a hole")
    entry, block, page = _modify_parent(service, version_cap, path.parent())
    index = path.last
    if index >= page.nrefs:
        raise BadPathName(f"remove_hole: index {index} out of range ({page.nrefs})")
    if not page.ref(index).is_nil:
        raise BadPathName(f"reference at {path} is not a hole")
    page.remove_ref(index)
    service.store.store_in_place(block, page)


def fill_hole(
    service,
    version_cap: Capability,
    path: PagePath,
    data: bytes = b"",
    nref_slots: int = 0,
) -> None:
    """Replace the nil reference at ``path`` with a fresh page."""
    if path.is_root:
        raise BadPathName("the root is not a hole")
    entry, block, page = _modify_parent(service, version_cap, path.parent())
    index = path.last
    if index >= page.nrefs:
        raise BadPathName(f"fill_hole: index {index} out of range ({page.nrefs})")
    if not page.ref(index).is_nil:
        raise BadPathName(f"reference at {path} is not a hole")
    child_block = _new_child(service, data, nref_slots)
    page.set_ref(index, PageRef(child_block, _CREATED_FLAGS))
    service.store.store_in_place(block, page)


def split_page(
    service, version_cap: Capability, path: PagePath, at: int
) -> PagePath:
    """Split the page at ``path`` at data offset ``at``: the page keeps
    ``data[:at]``, and a new sibling inserted right after it receives
    ``data[at:]``.  Returns the new sibling's path."""
    if path.is_root:
        raise BadPathName("cannot split the root page into siblings")
    entry = service._open_version(version_cap)
    block, page = service._walk(entry, path, "write")
    if not 0 <= at <= page.dsize:
        raise BadPathName(f"split offset {at} outside 0..{page.dsize}")
    tail = page.data[at:]
    page.data = page.data[:at]
    service.store.store_in_place(block, page)
    return insert_page(
        service, version_cap, path.parent(), path.last + 1, data=tail
    )


def move_subtree(
    service,
    version_cap: Capability,
    src: PagePath,
    dst_parent: PagePath,
    dst_index: int,
) -> PagePath:
    """Move the subtree at ``src`` to become child ``dst_index`` of the page
    at ``dst_parent``.  Returns the subtree's new path name."""
    if src.is_root:
        raise BadPathName("cannot move the root page")
    if src.is_ancestor_of(dst_parent):
        raise BadPathName(f"cannot move {src} into its own subtree {dst_parent}")
    src_parent = src.parent()
    if src_parent == dst_parent:
        # Same table: one modify walk, one splice.
        entry, block, page = _modify_parent(service, version_cap, src_parent)
        if src.last >= page.nrefs or dst_index > page.nrefs - 1:
            raise BadPathName("move_subtree: index out of range")
        ref = page.remove_ref(src.last)
        page.insert_ref(dst_index, ref)
        service.store.store_in_place(block, page)
        return dst_parent.child(dst_index)
    entry, src_block, src_page = _modify_parent(service, version_cap, src_parent)
    if src.last >= src_page.nrefs:
        raise BadPathName(f"move_subtree: source index {src.last} out of range")
    moved = src_page.remove_ref(src.last)
    service.store.store_in_place(src_block, src_page)
    # The destination walk happens after the removal; dst_parent cannot run
    # through the removed subtree (ancestor check above), but its indices
    # can shift if it passes through the source parent's table.
    dst_parent = _shift_after_removal(dst_parent, src)
    __, dst_block, dst_page = _modify_parent(service, version_cap, dst_parent)
    if dst_index > dst_page.nrefs:
        raise BadPathName(f"move_subtree: destination index {dst_index} out of range")
    dst_page.insert_ref(dst_index, moved)
    service.store.store_in_place(dst_block, dst_page)
    return dst_parent.child(dst_index)


def _shift_after_removal(path: PagePath, removed: PagePath) -> PagePath:
    """Adjust ``path`` for the table shift caused by removing ``removed``."""
    parent = removed.parent()
    if not parent.is_ancestor_of(path) or len(path) <= len(parent):
        return path
    indices = list(path.indices)
    position = len(parent)
    if indices[position] > removed.last:
        indices[position] -= 1
    return PagePath(tuple(indices))


def _free_if_private(service, ref: PageRef) -> None:
    """Free a removed subtree if it was private to this version."""
    if ref.is_nil or not ref.flags.c:
        return
    service._free_private(ref.block)
    service.store.free(ref.block)
