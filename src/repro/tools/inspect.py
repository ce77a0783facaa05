"""Human-readable dumps of files, versions and page trees.

Debugging and teaching aids: render the structures of Figures 2, 3 and 4
as text, from a live system.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.core.page import Page  # noqa: F401 (Page used in annotations)
from repro.core.pathname import PagePath


def dump_page_tree(service, root_block: int, max_depth: int = 8) -> str:
    """Render a version's page tree, one line per page:

        <path>  block=<n> flags=<CRWSM> data=<size>B refs=<n> "<preview>"
    """
    lines: list[str] = []

    def visit(block: int, path: PagePath, flags_text: str, depth: int) -> None:
        if depth > max_depth:
            lines.append("  " * depth + "...")
            return
        try:
            page = service.store.peek(block)
        except ReproError:
            lines.append("  " * depth + f"{path or '<root>'}  block={block} UNREADABLE")
            return
        preview = page.data[:24]
        kind = " [version page]" if page.is_version_page else ""
        lines.append(
            "  " * depth
            + f"{str(path) or '<root>'}  block={block} flags={flags_text} "
            f"data={page.dsize}B refs={page.nrefs}{kind} {preview!r}"
        )
        for index, ref in enumerate(page.refs):
            if ref.is_nil:
                lines.append("  " * (depth + 1) + f"{path.child(index)}  <hole>")
                continue
            visit(ref.block, path.child(index), str(ref.flags), depth + 1)

    try:
        root = service.store.peek(root_block)
        visit(root_block, PagePath.ROOT, str(root.root_flags), 0)
    except ReproError:
        lines.append(f"<root> block={root_block} UNREADABLE")
    return "\n".join(lines)


def dump_family(service, file_cap) -> str:
    """Render a file's version family, Figure 4 style."""
    tree = service.family_tree(file_cap)
    lines = [f"file {tree['file']}:"]
    for block in tree["committed"]:
        page = service.store.load(block, fresh=True)
        tag = " <- current" if block == tree["current"] else ""
        locks = ""
        if page.top_lock or page.inner_lock:
            locks = f" [top={page.top_lock:#x} inner={page.inner_lock:#x}]"
        lines.append(
            f"  committed block={block} base={page.base_ref or 'nil'} "
            f"commit={page.commit_ref or 'nil'}{locks}{tag}"
        )
    for entry in tree["uncommitted"]:
        lines.append(
            f"  uncommitted version={entry['version']} "
            f"based_on={entry['based_on']}"
        )
    return "\n".join(lines)
