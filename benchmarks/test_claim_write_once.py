"""Claim C10: suitability for write-once (optical) media.

"Traditional file systems are not suitable for these media, because files
cannot be overwritten on a write-once device.  The version mechanism,
coupled with a cache in which uncommitted files are kept until just before
commit seems an ideal file store for optical disks."

Figure 2 puts the top of the tree (the version pages) on magnetic media
and allows the rest on optical media.  The measurable claim: under the
copy-on-write discipline, *no data page is ever overwritten* — every
in-place rewrite in a whole workload hits version pages only (commit
references and lock fields), which is precisely the part the paper keeps
on magnetic storage.
"""

from repro.core.page import Page
from repro.core.pathname import PagePath
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


def _workload(seed, track=False):
    """Three files, four update rounds each; optionally track which blocks
    get overwritten in place."""
    cluster = build_cluster(seed=seed)
    disk = cluster.pair.disk_a
    overwritten: set[int] = set()
    if track:
        original_write_many = disk.write_many

        def tracked_write_many(writes, owners=None):
            overwritten.update(b for b, _ in writes if disk.holds(b))
            original_write_many(writes, owners)

        disk.write_many = tracked_write_many  # the one way data reaches a disk
    fs = cluster.fs()
    caps = []
    for f in range(3):
        cap = fs.create_file(b"file%d" % f)
        setup = fs.create_version(cap)
        for i in range(4):
            fs.append_page(setup.version, ROOT, b"p%d" % i)
        fs.commit(setup.version)
        caps.append(cap)
    for round_ in range(4):
        for cap in caps:
            handle = fs.create_version(cap)
            fs.read_page(handle.version, PagePath.of(round_ % 4))
            fs.write_page(
                handle.version, PagePath.of((round_ + 1) % 4), b"r%d" % round_
            )
            fs.commit(handle.version)
    return cluster, disk, overwritten


def test_c10_only_version_pages_rewritten(benchmark, report):
    benchmark(lambda: _workload(seed=100))
    __, disk, overwritten = _workload(seed=101, track=True)
    version_rewrites = data_rewrites = 0
    for block in overwritten:
        raw = disk.peek(block)
        if raw is None:
            continue  # freed since
        if Page.from_bytes(raw).is_version_page:
            version_rewrites += 1
        else:
            data_rewrites += 1
    report.row(f"blocks overwritten in place during the workload: {len(overwritten)}")
    report.row(f"  version pages (the magnetic top of Figure 2): {version_rewrites}")
    report.row(f"  data pages (would live on optical media):     {data_rewrites}")
    assert data_rewrites == 0
    assert version_rewrites > 0


def test_c10_service_runs_on_real_write_once_media(benchmark, report):
    """The strongest form of the claim: the whole service on a hybrid
    deployment whose optical pair *raises* on any overwrite — version
    pages on a small magnetic pair (Figure 2's tree top), everything else
    burned once."""
    from repro.testbed import build_hybrid_cluster

    def hybrid_workload():
        cluster = build_hybrid_cluster(seed=105)
        fs = cluster.fs()
        cap = fs.create_file(b"root")
        setup = fs.create_version(cap)
        for i in range(4):
            fs.append_page(setup.version, ROOT, b"p%d" % i)
        fs.commit(setup.version)
        # Sequential updates, a concurrent merge, and a read-back sweep.
        for round_ in range(3):
            handle = fs.create_version(cap)
            fs.write_page(handle.version, PagePath.of(round_), b"r%d" % round_)
            fs.commit(handle.version)
        va = fs.create_version(cap)
        vb = fs.create_version(cap)
        fs.write_page(va.version, PagePath.of(0), b"A")
        fs.write_page(vb.version, PagePath.of(3), b"B")
        fs.commit(va.version)
        fs.commit(vb.version)
        current = fs.current_version(cap)
        for i in range(4):
            fs.read_page(current, PagePath.of(i))
        return cluster, fs

    cluster, fs = benchmark(hybrid_workload)
    optical = cluster.optical_pair
    report.row("full workload on enforced write-once optical media:")
    report.row(f"  optical blocks written: {optical.disk_a.stats.writes}")
    report.row(f"  optical overwrites (would raise): {optical.disk_a.stats.overwrites}")
    report.row(f"  magnetic overwrites (version pages): "
               f"{cluster.pair.disk_a.stats.overwrites}")
    report.row(f"  optical space lost to merge relocation: "
               f"{fs.store.blocks.optical_dead} blocks")
    assert optical.disk_a.stats.overwrites == 0
    assert cluster.pair.disk_a.stats.overwrites > 0


def test_c10_deferred_writes_batch_until_commit(benchmark, report):
    """"A cache in which uncommitted files are kept until just before
    commit": with deferred writes, an update's pages hit the disk exactly
    once each, however many times the client rewrites them."""
    cluster = build_cluster(seed=102)
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    disk = cluster.pair.disk_a

    def churn_then_commit():
        handle = fs.create_version(cap)
        before = disk.stats.writes
        for n in range(20):  # twenty rewrites of the same page
            fs.write_page(handle.version, ROOT, b"draft%d" % n)
        during = disk.stats.writes - before
        fs.commit(handle.version)
        return during

    writes_during_update = benchmark(churn_then_commit)
    assert writes_during_update == 0
    report.row("20 client rewrites of one page before commit:")
    report.row(f"  disk writes during the update: {writes_during_update}")
    report.row("  the page reaches stable storage once, at commit (write-once friendly)")
