"""Archive: export a file — with its whole committed history — and import
it elsewhere.

The version chain is a self-contained object graph (version pages linked
by base/commit references; page trees sharing unchanged blocks), which
makes a faithful, sharing-preserving serialisation straightforward:

* **export** walks the committed chain oldest→current, collects every
  reachable block once, and emits them with their reference topology
  intact (block numbers are rewritten to archive-local ids);
* **import** replays the archive into a target service: blocks are
  written bottom-up with fresh numbers, shared pages stay shared (one
  copy, many references), the chain is stitched with new base/commit
  references, and the file gets a fresh capability in the target's
  registry.

Differential storage survives the trip: a 10-revision file whose
revisions share 90 % of their pages archives (and imports) those pages
once, not ten times.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.capability import ALL_RIGHTS, Capability
from repro.core.page import NIL, Page, PageRef
from repro.core.registry import FileEntry, VersionEntry

_MAGIC = b"AFAR1"
_HEADER = struct.Struct(">5sII")  # magic, block count, chain length
_BLOCK_HEAD = struct.Struct(">II")  # archive id, payload length


@dataclass
class ArchiveStats:
    blocks: int = 0
    versions: int = 0
    bytes: int = 0
    shared_blocks: int = 0  # referenced by more than one version


def export_file(service, file_cap: Capability) -> bytes:
    """Serialise a file's committed history into a portable byte string."""
    tree = service.family_tree(file_cap)
    chain: list[int] = tree["committed"]

    # Collect every reachable block once; remember which versions touch it.
    order: list[int] = []  # stable order: first-seen during the walk
    seen: set[int] = set()
    for root in chain:
        stack = [root]
        while stack:
            block = stack.pop()
            if block in seen:
                continue
            seen.add(block)
            order.append(block)
            page = service.store.load(block, fresh=True)
            for ref in page.refs:
                if not ref.is_nil:
                    stack.append(ref.block)

    ids = {block: index + 1 for index, block in enumerate(order)}  # 0 = nil

    def rewrite(block: int) -> int:
        return ids.get(block, 0)

    body = bytearray()
    body += _HEADER.pack(_MAGIC, len(order), len(chain))
    # The chain, as archive ids, oldest first.
    for root in chain:
        body += struct.pack(">I", ids[root])
    for block in order:
        page = service.store.load(block, fresh=True).clone()
        # Rewrite the topology to archive ids; strip runtime-only fields.
        page.refs = [
            PageRef(rewrite(ref.block), ref.flags) for ref in page.refs
        ]
        page.base_ref = rewrite(page.base_ref)
        page.commit_ref = rewrite(page.commit_ref)
        page.parent_ref = 0
        page.top_lock = 0
        page.inner_lock = 0
        raw = page.to_bytes()
        body += _BLOCK_HEAD.pack(ids[block], len(raw)) + raw
    return bytes(body)


def import_file(service, archive: bytes) -> tuple[Capability, ArchiveStats]:
    """Replay an archive into ``service``; returns the new file capability
    (the imported file is a new object with fresh capabilities) and stats.
    """
    magic, block_count, chain_length = _HEADER.unpack_from(archive, 0)
    if magic != _MAGIC:
        raise ValueError("not a file archive")
    offset = _HEADER.size
    chain_ids = [
        struct.unpack_from(">I", archive, offset + 4 * i)[0]
        for i in range(chain_length)
    ]
    offset += 4 * chain_length

    pages: dict[int, Page] = {}
    for _ in range(block_count):
        archive_id, length = _BLOCK_HEAD.unpack_from(archive, offset)
        offset += _BLOCK_HEAD.size
        pages[archive_id] = Page.from_bytes(archive[offset:offset + length])
        offset += length

    # Allocate fresh blocks: one per archive id (sharing preserved).
    stats = ArchiveStats(blocks=block_count, versions=chain_length)
    stats.bytes = len(archive)
    blocks: dict[int, int] = {}
    for archive_id, page in pages.items():
        blocks[archive_id] = service.store.store_new(page)

    # Mint the new file identity.  Every number comes from the issuer: the
    # registry learns the file's only when it is added below.
    file_cap = service.issuer.mint(ALL_RIGHTS, service.rng)
    version_caps = {
        archive_id: service.issuer.mint(ALL_RIGHTS, service.rng)
        for archive_id in chain_ids
    }

    # Rewrite topology to the fresh block numbers and finalise pages.
    refcount: dict[int, int] = {}
    for archive_id, page in pages.items():
        page.refs = [
            PageRef(blocks.get(ref.block, NIL), ref.flags) for ref in page.refs
        ]
        for ref in page.refs:
            if not ref.is_nil:
                refcount[ref.block] = refcount.get(ref.block, 0) + 1
        page.base_ref = blocks.get(page.base_ref, NIL)
        page.commit_ref = blocks.get(page.commit_ref, NIL)
        if page.is_version_page and archive_id in version_caps:
            page.file_cap = file_cap
            page.version_cap = version_caps[archive_id]
        service.store.store_in_place(blocks[archive_id], page)
    stats.shared_blocks = sum(1 for count in refcount.values() if count > 1)
    service.store.flush()

    # Register the file (entry at the current version) and its versions.
    current_block = blocks[chain_ids[-1]]
    service.registry.add_file(
        FileEntry(
            file_cap.obj,
            current_block,
            service.issuer.secret_of(file_cap.obj),
        )
    )
    for archive_id in chain_ids:
        cap = version_caps[archive_id]
        service.registry.add_version(
            VersionEntry(
                cap.obj,
                file_cap.obj,
                blocks[archive_id],
                service.issuer.secret_of(cap.obj),
                status="committed",
            )
        )
    return file_cap, stats
