"""Salvage: rebuild the file table from the blocks themselves.

§4: "Block servers can support a recovery operation, which given an
account number, returns a list of block numbers owned by that account.
A client, e.g., a file server, can then use its redundancy information to
restore its file system after a severe crash."

The redundancy information here is exactly what Figure 3 stores in every
version page: the file capability, the version capability, and the
base/commit references.  Salvage therefore needs *nothing* beyond the
block service:

1. ask the block service for every block the file-service account owns;
2. parse each as a page; keep the version pages;
3. group version pages by the file object they claim;
4. within each group, chase commit references to find the current version
   (the one whose commit reference is nil and that some chain reaches);
5. mint a registry entry per file.

Capability *secrets* cannot be recovered from pages (they are not stored
there — that is what makes capabilities unforgeable), so salvage re-keys
every file: it returns fresh owner capabilities, and the old ones die.
That matches the paper's security model: after a catastrophe the service
re-issues; only the persisted file table (see
:meth:`repro.core.registry.FileRegistry.serialize`) preserves old
capabilities, and salvage is the fallback for when even that is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability import ALL_RIGHTS, Capability
from repro.errors import ReproError
from repro.core.page import NIL, Page
from repro.core.registry import FileEntry, FileRegistry, VersionEntry


@dataclass
class SalvageReport:
    """What a salvage pass found."""

    blocks_scanned: int = 0
    version_pages: int = 0
    files_recovered: int = 0
    files: dict[int, Capability] = field(default_factory=dict)  # obj -> new cap
    orphan_version_pages: list[int] = field(default_factory=list)


def salvage(service) -> SalvageReport:
    """Rebuild ``service``'s registry from its block account.

    The service's registry is *replaced* by the recovered table; fresh
    owner capabilities for every recovered file are in the report.
    """
    report = SalvageReport()
    blocks = service.store.blocks.recover()

    # Pass 1: find every version page and index it by block.
    version_pages: dict[int, Page] = {}
    for block in blocks:
        report.blocks_scanned += 1
        try:
            raw = service.store.blocks.read(block)
            page = Page.from_bytes(raw)
        except (ReproError, ValueError):
            continue
        if page.is_version_page and page.file_cap is not None:
            version_pages[block] = page
            report.version_pages += 1

    # Pass 2: group by claimed file object.
    by_file: dict[int, dict[int, Page]] = {}
    for block, page in version_pages.items():
        by_file.setdefault(page.file_cap.obj, {})[block] = page

    # Pass 3: per file, find the current version: a committed-chain member
    # whose commit reference is nil.  Committed membership: reachable by
    # commit references from a chain start (a page that no other page's
    # commit reference names and that has a commit path to nil), or simply
    # any page with commit_ref == NIL that some page commits *to*, plus
    # the single-version case.  Uncommitted versions also have nil commit
    # references but are never the *target* of a commit reference — except
    # the very first version of a file, which is both.  Disambiguate:
    # prefer the nil-commit page reachable from the longest commit chain.
    registry = FileRegistry()
    for file_obj, pages in sorted(by_file.items()):
        committed_targets = {
            page.commit_ref for page in pages.values() if page.commit_ref != NIL
        }
        candidates = [
            block for block, page in pages.items() if page.commit_ref == NIL
        ]
        current = None
        # A current version that concluded a chain is someone's target.
        chained = [block for block in candidates if block in committed_targets]
        if chained:
            current = chained[0]
        elif len(candidates) == 1:
            current = candidates[0]
        elif candidates:
            # Several nil-commit pages, none chained: a file whose only
            # committed version is the birth version plus uncommitted
            # versions.  The birth version is the one the others' base
            # references point at.
            bases = {page.base_ref for page in pages.values()}
            rooted = [block for block in candidates if block in bases]
            current = rooted[0] if rooted else min(candidates)
        if current is None:
            report.orphan_version_pages.extend(sorted(pages))
            continue
        secret_cap = service.issuer.mint_for(file_obj, ALL_RIGHTS, service.rng)
        registry.add_file(
            FileEntry(
                file_obj,
                current,
                service.issuer.secret_of(file_obj),
                mergeable=pages[current].mergeable,
            )
        )
        report.files[file_obj] = secret_cap
        report.files_recovered += 1

    # Register each current version so reads work immediately.  Its number
    # comes from the issuer, once every file number is known to it: never
    # a file's, nor a pre-crash version's an old capability still names.
    for entry in registry.files.values():
        version_cap = service.issuer.mint(ALL_RIGHTS, service.rng)
        registry.add_version(
            VersionEntry(
                version_cap.obj,
                entry.obj,
                entry.entry_block,
                service.issuer.secret_of(version_cap.obj),
                status="committed",
            )
        )

    # Adopt the recovered table (in place, so replicas sharing the object
    # see it too).
    service.registry.adopt(registry)
    return report
