"""Claim C1: "As long as updates are done one after the other, commit
always succeeds and requires virtually no processing at all."

Table: commit-step cost (messages, disk reads, disk writes, logical
ticks) as the file grows — the fast path must be flat.
"""

from repro.block.stable import EXTENT
from repro.core.pathname import PagePath
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


def _commit_step_cost(n_pages):
    cluster = build_cluster(seed=20)
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(n_pages):
        fs.append_page(setup.version, ROOT, b"p%d" % i)
    fs.commit(setup.version)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, PagePath.of(n_pages // 2), b"x")
    fs.store.flush()
    disk = cluster.pair.disk_a
    msgs = cluster.network.stats.messages
    reads, writes = disk.stats.reads, disk.stats.writes
    ticks = cluster.clock.now
    fs.commit(handle.version)
    return {
        "messages": cluster.network.stats.messages - msgs,
        "reads": disk.stats.reads - reads,
        "writes": disk.stats.writes - writes,
        "ticks": cluster.clock.now - ticks,
    }


def test_c1_commit_cost_flat_in_file_size(benchmark, report):
    sizes = (1, 8, 64, 512)
    table = {n: _commit_step_cost(n) for n in sizes}
    report.row("commit step cost (sequential fast path) vs file size:")
    report.row(f"{'pages':>6} {'msgs':>6} {'reads':>6} {'writes':>7} {'ticks':>7}")
    for n, cost in table.items():
        report.row(
            f"{n:>6} {cost['messages']:>6} {cost['reads']:>6} "
            f"{cost['writes']:>7} {cost['ticks']:>7}"
        )
    first, last = table[sizes[0]], table[sizes[-1]]
    assert first["messages"] == last["messages"]
    assert first["writes"] == last["writes"]
    assert first["ticks"] == last["ticks"]

    # Wall-time of the committed fast path for the benchmark table.
    cluster = build_cluster(seed=21)
    fs = cluster.fs()
    cap = fs.create_file(b"v")

    def sequential_commit():
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"w")
        fs.commit(handle.version)

    benchmark(sequential_commit)


def _update_costs(tmp_path, updates=3 * EXTENT // 2):
    """(block-tier messages, journal syncs) of each of ``updates`` 1-page
    updates — begin, write one data page, commit — on a disk-backed pair.
    The file server talks to this process directly, so every network
    message is block-tier traffic: requests to the pair and the exchanges
    between its halves."""
    cluster = build_cluster(seed=22, backend="disk", data_dir=str(tmp_path))
    try:
        fs = cluster.fs()
        cap = fs.create_file(b"root")
        setup = fs.create_version(cap)
        for i in range(8):
            fs.append_page(setup.version, ROOT, b"p%d" % i)
        fs.commit(setup.version)
        disks = (cluster.pair.disk_a, cluster.pair.disk_b)
        costs = []
        for i in range(updates):
            messages = cluster.network.stats.messages
            syncs = sum(disk.fsyncs for disk in disks)
            handle = fs.create_version(cap)
            fs.write_page(handle.version, PagePath.of(i % 8), b"w%d" % i)
            fs.commit(handle.version)
            costs.append(
                (
                    cluster.network.stats.messages - messages,
                    sum(disk.fsyncs for disk in disks) - syncs,
                )
            )
        return costs
    finally:
        cluster.close()


def test_c1_warm_commit_block_tier_messages_and_syncs_exact(tmp_path, report):
    """The two counts the commit protocol diet is about, as exact numbers.

    A warm 1-page update shadows two pages (the data page and the version
    page).  Its block numbers come out of the pool (2 requests, no
    companion traffic, no sync).  Beginning it reads the base afresh (1
    exchange, no sync) and writes nothing: the small file's top-lock hint
    is file-server soft state.  The commit is ONE replicated request —
    both pages and the commit reference's test-and-set — with one sync
    per half: 5 exchanges = 10 messages and 2 syncs.  One update in
    EXTENT / 2 finds the pool empty and reserves the next extent: one
    more exchange, one more sync per half."""
    costs = _update_costs(tmp_path)
    warm, cold = (10, 2), (12, 4)
    report.row("1-page update on a disk-backed pair: (messages, syncs) per update")
    report.row(f"  warm pool {warm}, cold pool {cold}, seen {sorted(set(costs))}")
    assert set(costs) == {warm, cold}
    # Two allocations per update, EXTENT numbers per extent.
    assert costs.count(cold) == len(costs) // (EXTENT // 2)
