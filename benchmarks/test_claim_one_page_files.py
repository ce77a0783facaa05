"""Claim C6: "Pages of 32K bytes can be written.  Often, one such page is
large enough to contain a whole file.  Writing these one-page files is
efficient; no concurrency control mechanisms slow it down."

The compiler-temporary scenario (§2's Bauer-principle motivation): small
private files written once, read once.  The table compares the cost of a
one-page update against a deep-tree update.  A small file's top lock is
file-server soft state, so the one-page update carries no
concurrency-control message at all: it costs what the retired soft-lock
opt-out did.
"""

import random

from repro.core.pathname import PagePath
from repro.testbed import build_cluster
from repro.workloads.generators import compiler_temp_sizes

ROOT = PagePath.ROOT


def _update_cost(depth, seed=70):
    """Messages and disk writes for one update of a file whose written
    page sits ``depth`` levels below the root."""
    cluster = build_cluster(seed=seed)
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    path = ROOT
    # A set-up update at every depth, so each measured update draws its
    # block number from a warm pool: ``create_file`` is one
    # ``allocate_write`` and fills no pool.
    setup = fs.create_version(cap)
    for _ in range(depth):
        path = fs.append_page(setup.version, path, b"level")
    fs.commit(setup.version)
    disk = cluster.pair.disk_a
    msgs = cluster.network.stats.messages
    writes = disk.stats.writes
    handle = fs.create_version(cap)
    fs.write_page(handle.version, path, b"payload")
    fs.commit(handle.version)
    return {
        "messages": cluster.network.stats.messages - msgs,
        "writes": disk.stats.writes - writes,
    }


def test_c6_one_page_files_cheapest(benchmark, report):
    one_page = _update_cost(0)
    shallow = _update_cost(1)
    deep = _update_cost(4)
    report.row("full update-cycle cost by page-tree depth of the written page:")
    report.row(f"{'case':>22} {'messages':>9} {'disk writes':>12}")
    report.row(f"{'one-page file':>22} {one_page['messages']:>9} {one_page['writes']:>12}")
    report.row(f"{'1 level deep':>22} {shallow['messages']:>9} {shallow['writes']:>12}")
    report.row(f"{'4 levels deep':>22} {deep['messages']:>9} {deep['writes']:>12}")
    assert one_page["writes"] < shallow["writes"] < deep["writes"]
    # The base read, one block number from the pool and one replicated
    # commit request: the (8, 2) of the retired soft-lock opt-out.
    assert (one_page["messages"], one_page["writes"]) == (8, 2)

    cluster = build_cluster(seed=71)
    fs = cluster.fs()
    cap = fs.create_file(b"")

    def temp_file_cycle():
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"object code")
        fs.commit(handle.version)

    benchmark(temp_file_cycle)


def test_c6_compiler_temporaries_fit_one_page(benchmark, report):
    """The workload itself: a stream of compiler temporaries, every one a
    single page, written then read back once."""
    rng = random.Random(72)
    sizes = compiler_temp_sizes(rng, files=20)
    cluster = build_cluster(seed=73)
    fs = cluster.fs()

    def compile_run():
        caps = []
        for size in sizes:
            cap = fs.create_file(b"x" * size)
            caps.append(cap)
        for cap, size in zip(caps, sizes):
            data = fs.read_page(fs.current_version(cap), ROOT)
            assert len(data) == size
        return caps

    benchmark(compile_run)
    report.row(f"temporaries per run: {len(sizes)}, sizes 512..24000 bytes")
    report.row("every file is its root page: create+read touches 1 block each way")
