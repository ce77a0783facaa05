"""``fsck`` for the Amoeba File Service.

Audits the invariants the design depends on.  A healthy system passes all
of them at any quiescent moment — including immediately after any crash,
which is the paper's central robustness claim ("the file system is always
in a consistent state").

Checked per file:

* **Chain shape** — committed versions form a doubly linked list: each
  base reference points back, each commit reference forward, the oldest
  base and the newest commit are nil, and the chain is acyclic.
* **Version pages** — every chain node is a version page and carries the
  file's capability identity.
* **Tree sanity** — every page tree resolves: references point at
  readable pages, flag codes decode (the 13-combo
  rule), and a reference's C flag is consistent with the child being
  exclusive to that version or shared with its base.
* **Sharing discipline** — a block referenced *without* C from version V
  must also be reachable from V's base (it is shared, not stolen).

Checked globally:

* **Reachability** — every block owned by the file-service account is
  reachable from some live version (leaks are reported, not fatal: the
  garbage collector's job is precisely to remove them).
* **Pair agreement** — both disks of every companion pair (each live
  shard, each retired one, a hybrid deployment's optical pair) hold
  identical bytes for every doubly-present block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.core.page import NIL, Page
from repro.core.registry import FileEntry


@dataclass
class CheckReport:
    """The outcome of a check run."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    files_checked: int = 0
    versions_checked: int = 0
    pages_checked: int = 0
    leaked_blocks: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.errors)} error(s)"
        return (
            f"fsck: {status}; {self.files_checked} files, "
            f"{self.versions_checked} versions, {self.pages_checked} pages, "
            f"{len(self.leaked_blocks)} leaked blocks, "
            f"{len(self.warnings)} warning(s)"
        )


def _load(service, block: int) -> Page | None:
    # Uncached: the audit reads open versions' pages, which no server may
    # keep (PageStore.peek).
    try:
        return service.store.peek(block)
    except ReproError:
        return None


def check_file(service, entry: FileEntry, report: CheckReport) -> set[int]:
    """Check one file; returns the set of blocks its versions reach."""
    report.files_checked += 1
    reachable: set[int] = set()

    # --- walk to the current version and collect the committed chain ----
    chain: list[int] = []
    block = entry.entry_block
    seen: set[int] = set()
    while block != NIL:
        if block in seen:
            report.error(f"file {entry.obj}: commit-reference cycle at {block}")
            return reachable
        seen.add(block)
        page = _load(service, block)
        if page is None:
            report.error(f"file {entry.obj}: unreadable version page {block}")
            return reachable
        chain.append(block)
        block = page.commit_ref
    # Extend backward to the oldest version.
    block = _load(service, chain[0]).base_ref
    while block != NIL:
        page = _load(service, block)
        if page is None:
            report.warn(
                f"file {entry.obj}: history ends at missing block {block} "
                f"(pruned?)"
            )
            break
        # Not a committed predecessor (an aborted base, a pruned one's
        # reused block) ends the history; a version of this file the
        # registry lists is in it, damaged: the invariants name it.
        version = service.registry.version_by_block(block)
        if page.commit_ref != chain[0] and (
            version is None or version.file_obj != entry.obj
        ):
            break
        if block in seen:
            report.error(f"file {entry.obj}: base-reference cycle at {block}")
            return reachable
        seen.add(block)
        chain.insert(0, block)
        block = page.base_ref

    # --- chain invariants ---------------------------------------------------
    for earlier, later in zip(chain, chain[1:]):
        ep = _load(service, earlier)
        lp = _load(service, later)
        if ep.commit_ref != later:
            report.error(
                f"file {entry.obj}: {earlier}.commit_ref={ep.commit_ref}, "
                f"expected {later}"
            )
        if lp.base_ref != earlier:
            report.error(
                f"file {entry.obj}: {later}.base_ref={lp.base_ref}, "
                f"expected {earlier}"
            )

    # --- per-version tree checks ----------------------------------------------
    base_reach: set[int] | None = None
    for index, version_block in enumerate(chain):
        page = _load(service, version_block)
        if not page.is_version_page:
            report.error(
                f"file {entry.obj}: chain block {version_block} is not a "
                f"version page"
            )
            continue
        if page.file_cap is not None and page.file_cap.obj != entry.obj:
            report.error(
                f"file {entry.obj}: version page {version_block} claims file "
                f"{page.file_cap.obj}"
            )
        this_reach = _check_tree(
            service, entry, version_block, page, base_reach, report
        )
        reachable |= this_reach
        base_reach = this_reach
        report.versions_checked += 1

    # --- uncommitted versions ----------------------------------------------------
    for version in service.registry.versions.values():
        if version.file_obj != entry.obj or version.status != "uncommitted":
            continue
        page = _load(service, version.root_block)
        if page is None:
            report.warn(
                f"file {entry.obj}: uncommitted version {version.obj} has "
                f"unreadable root (unflushed after a crash?)"
            )
            continue
        if page.base_ref not in seen:
            report.error(
                f"file {entry.obj}: uncommitted version {version.obj} based "
                f"on unknown block {page.base_ref}"
            )
        reachable |= _check_tree(service, entry, version.root_block, page, None, report)
        report.versions_checked += 1

    return reachable


def _check_tree(
    service,
    entry: FileEntry,
    root_block: int,
    root: Page,
    base_reach: set[int] | None,
    report: CheckReport,
) -> set[int]:
    """Walk one version's page tree; returns the blocks it reaches."""
    reached: set[int] = set()
    stack: list[tuple[int, Page, bool]] = [(root_block, root, True)]
    while stack:
        block, page, exclusive = stack.pop()
        if block in reached:
            report.error(
                f"file {entry.obj}: block {block} referenced twice within "
                f"one version tree"
            )
            continue
        reached.add(block)
        report.pages_checked += 1
        for index, ref in enumerate(page.refs):
            if ref.is_nil:
                continue
            child = _load(service, ref.block)
            if child is None:
                report.error(
                    f"file {entry.obj}: page {block} ref {index} points at "
                    f"unreadable block {ref.block}"
                )
                continue
            if child.is_version_page:
                continue  # a sub-file boundary: checked as its own file
            if not ref.flags.c and base_reach is not None:
                # Shared subtree: the base version must also reach it.
                if ref.block not in base_reach:
                    report.warn(
                        f"file {entry.obj}: page {block} shares block "
                        f"{ref.block} that its base does not reach "
                        f"(merge graft or reshare)"
                    )
            stack.append((ref.block, child, ref.flags.c))
    return reached


def check_cluster(cluster, gc_expected_clean: bool = False) -> CheckReport:
    """Audit a whole deployment: every file, global reachability, pair
    agreement.  ``gc_expected_clean=True`` turns leaked blocks (normally a
    warning — they are the GC's food) into errors."""
    report = CheckReport()
    # Pick any live server to check through.
    live = None
    for candidate in cluster.servers:
        if not candidate._crashed:
            live = candidate
            break
    if live is None:
        report.error("no live file server to check through")
        return report

    reachable: set[int] = set()
    for entry in list(live.registry.files.values()):
        try:
            reachable |= check_file(live, entry, report)
        except ReproError as exc:
            report.error(f"file {entry.obj}: check aborted: {exc}")

    allocated = set(live.store.blocks.recover())
    leaked = allocated - reachable
    report.leaked_blocks = sorted(leaked)
    if leaked:
        message = f"{len(leaked)} allocated blocks unreachable (GC fodder)"
        if gc_expected_clean:
            report.error(message)
        else:
            report.warn(message)

    check_pairs(cluster, report)
    return report


def check_pairs(cluster, report: CheckReport) -> None:
    """Pair agreement on every pair the deployment's state lives on.  Only
    an error when both halves are up; a crashed or recovering half is
    expected to lag until resync."""
    for pair in cluster.pairs:
        if pair.consistent():
            continue
        halves = f"{pair.a.name}/{pair.b.name}"
        if pair.a.available and pair.b.available:
            report.error(f"pair {halves}: disks disagree")
        else:
            report.warn(f"pair {halves}: disks disagree (one half down/recovering)")


def main() -> int:
    """``python -m repro.tools.check`` — the CI gate: exercise a busy
    deployment (several files, concurrent updates on two servers, a crash
    and restart, a GC pass) and fail on any invariant violation."""
    from repro.core.pathname import PagePath
    from repro.testbed import build_cluster

    cluster = build_cluster(servers=2, seed=1985)
    fs, other = cluster.fs(0), cluster.fs(1)
    files = []
    for i in range(4):
        cap = fs.create_file(b"file %d" % i)
        setup = fs.create_version(cap)
        pages = [fs.append_page(setup.version, PagePath.ROOT) for _ in range(2)]
        fs.commit(setup.version)
        files.append((cap, pages))
    for round_number in range(3):
        for cap, (mine, theirs) in files:
            handle = fs.create_version(cap)
            fs.write_page(handle.version, mine, b"round %d" % round_number)
            # A rival commits through the other server while this update
            # is open, so its commit catches up across servers.
            rival = other.create_version(cap)
            other.write_page(rival.version, theirs, b"rival %d" % round_number)
            other.commit(rival.version)
            fs.commit(handle.version)
    # A crash mid-update must leave the system clean.
    doomed = fs.create_version(files[0][0])
    fs.write_page(doomed.version, PagePath.ROOT, b"lost")
    fs.crash()
    fs.restart()
    cluster.gc(1).collect()
    report = check_cluster(cluster)
    print(report.summary())
    for line in report.errors:
        print("ERROR:", line)
    for line in report.warnings:
        print("warning:", line)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
