"""Ablations: the design choices DESIGN.md calls out, each toggled.

* the server page cache, across sizes;
* the soft-lock hint honoured vs ignored under a heavy shared-file load;
* strict vs relaxed super-file version creation (§5.3's relaxation).
"""

import random

from repro.core.pathname import PagePath
from repro.core.system_tree import SystemTree
from repro.errors import CommitConflict, FileLocked
from repro.testbed import build_cluster
from repro.workloads.driver import AmoebaAdapter, run_workload
from repro.workloads.generators import hotspot_workload

ROOT = PagePath.ROOT


# ---------------------------------------------------------------------------
# server page cache size
# ---------------------------------------------------------------------------


def _read_workload_disk_reads(cache_capacity: int) -> tuple[int, float]:
    cluster = build_cluster(seed=121, cache_capacity=cache_capacity)
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(32):
        fs.append_page(setup.version, ROOT, b"p%d" % i)
    fs.commit(setup.version)
    rng = random.Random(122)
    current = fs.current_version(cap)
    disk_before = (
        cluster.pair.disk_a.stats.reads + cluster.pair.disk_b.stats.reads
    )
    for _ in range(200):
        fs.read_page(current, PagePath.of(rng.randrange(32)))
    reads = (
        cluster.pair.disk_a.stats.reads
        + cluster.pair.disk_b.stats.reads
        - disk_before
    )
    return reads, fs.store.cache.stats.hit_rate


def test_ablation_page_cache_size(benchmark, report):
    rows = {}
    for capacity in (2, 8, 64):
        rows[capacity] = _read_workload_disk_reads(capacity)
    report.row("200 random snapshot reads over a 32-page file:")
    report.row(f"{'cache':>6} {'disk reads':>11} {'hit rate':>9}")
    for capacity, (reads, hit_rate) in rows.items():
        report.row(f"{capacity:>6} {reads:>11} {hit_rate:>9.2f}")
    assert rows[64][0] < rows[2][0]
    benchmark(lambda: _read_workload_disk_reads(8))


# ---------------------------------------------------------------------------
# the soft-lock hint under a heavy shared-file load
# ---------------------------------------------------------------------------


def _bulk_update_redos(respect_hint: bool, seed: int = 123) -> int:
    """A large (whole-file) update racing a stream of small updates; with
    the hint honoured the bulk writer waits for a quiet moment, without it
    the bulk writer redoes every time a small update slips in."""
    cluster = build_cluster(seed=seed)
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(8):
        fs.append_page(setup.version, ROOT, b"p%d" % i)
    fs.commit(setup.version)

    redos = 0
    for round_ in range(6):
        # A small update is in flight (its hint is planted)...
        small = fs.create_version(cap)
        fs.write_page(small.version, PagePath.of(round_ % 8), b"small%d" % round_)
        # ...when the bulk writer arrives.
        if respect_hint:
            try:
                fs.create_version(cap, respect_soft_lock=True)
                raise AssertionError("hint should have been visible")
            except FileLocked:
                pass  # postponed: let the small update finish first
            fs.commit(small.version)
            bulk = fs.create_version(cap, respect_soft_lock=True)
        else:
            bulk = fs.create_version(cap)
            fs.commit(small.version)  # lands mid-bulk-update
        for i in range(8):
            fs.read_page(bulk.version, PagePath.of(i))
            fs.write_page(bulk.version, PagePath.of(i), b"bulk%d" % round_)
        try:
            fs.commit(bulk.version)
        except CommitConflict:
            redos += 1
            retry = fs.create_version(cap)
            for i in range(8):
                fs.write_page(retry.version, PagePath.of(i), b"bulk%d" % round_)
            fs.commit(retry.version)
    return redos


def test_ablation_soft_lock_hint(benchmark, report):
    ignored = _bulk_update_redos(respect_hint=False)
    honoured = _bulk_update_redos(respect_hint=True)
    report.row("whole-file bulk updates racing small updates (6 rounds):")
    report.row(f"  hint ignored:  {ignored} bulk updates redone")
    report.row(f"  hint honoured: {honoured} bulk updates redone")
    assert honoured < ignored
    benchmark(lambda: _bulk_update_redos(respect_hint=True))


# ---------------------------------------------------------------------------
# strict vs relaxed super-file locking (§5.3's relaxation)
# ---------------------------------------------------------------------------


def test_ablation_relaxed_super_locking(benchmark, report):
    """Strict: the second super update waits.  Relaxed: both proceed and
    the optimistic layer arbitrates — "no harm is done
    'concurrencywise'"."""

    def strict_round():
        cluster = build_cluster(seed=124)
        fs = cluster.fs()
        tree = SystemTree(fs)
        parent = fs.create_file(b"P")
        handle = fs.create_version(parent)
        tree.create_subfile(handle.version, ROOT, initial_data=b"S")
        fs.commit(handle.version)
        first = tree.begin_super_update(parent)
        blocked = False
        try:
            tree.begin_super_update(parent)
        except FileLocked:
            blocked = True
        tree.commit_super(first)
        return blocked

    def relaxed_round():
        cluster = build_cluster(seed=125)
        fs = cluster.fs()
        tree = SystemTree(fs)
        parent = fs.create_file(b"P")
        handle = fs.create_version(parent)
        tree.create_subfile(handle.version, ROOT, initial_data=b"S")
        fs.commit(handle.version)
        first = tree.begin_super_update(parent)
        second = tree.begin_super_update(parent, relaxed=True)  # no wait
        tree.commit_super(first)
        tree.abort_super(second)
        return True

    assert strict_round() is True
    assert relaxed_round() is True
    report.row("strict rule: the second super update blocks on the top lock")
    report.row("relaxed rule: it proceeds; the optimistic layer arbitrates at")
    report.row("commit (the §5.3 relaxation)")
    benchmark(relaxed_round)
