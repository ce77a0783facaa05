"""Group commit: N ready updates, one critical section, one batched flush.

Table: total commit-path cost (messages, stable writes, logical ticks)
for N concurrent non-conflicting updates on one file server, settled
sequentially (N groups of one through the commit engine: the k-th, k-1
versions behind a tip its server knows, reads its way along the chain,
serialises in memory and sends ONE request — no test-and-set is lost)
versus through one ``commit_group`` call (one group of N).  The
machine-readable twin of this table is ``BENCH_commit.json`` (see
docs/BENCHMARKS.md).
"""

from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


def _settle_cost(members, grouped):
    cluster = build_cluster(seed=7)
    client = FileClient(cluster.network, "bench", cluster.service_port,
                        use_cache=False)
    cap = client.create_file(b"base")
    setup = client.begin(cap)
    paths = [setup.append_page(ROOT, b"init") for _ in range(members)]
    setup.commit()
    client.prefer_server = client.ping()
    updates = []
    for i, path in enumerate(paths):
        update = client.begin(cap)
        update.write(path, b"w%d" % i)
        updates.append(update)
    disk = cluster.pair.disk_a
    msgs = cluster.network.stats.messages
    writes = disk.stats.writes
    ticks = cluster.clock.now
    if grouped:
        outcomes = client.commit_group(updates)
        assert all(v == "committed" for v in outcomes.values())
    else:
        for update in updates:
            update.commit()
    return {
        "messages": cluster.network.stats.messages - msgs,
        "writes": disk.stats.writes - writes,
        "ticks": cluster.clock.now - ticks,
    }


def test_group_commit_amortises_commit_cost(benchmark, report):
    sizes = (2, 4, 8)
    report.row("N ready non-conflicting updates, sequential vs grouped:")
    report.row(
        f"{'N':>3} {'seq msgs':>9} {'grp msgs':>9} {'seq wr':>7} "
        f"{'grp wr':>7} {'seq ticks':>10} {'grp ticks':>10}"
    )
    table = {}
    for n in sizes:
        seq = _settle_cost(n, grouped=False)
        grp = _settle_cost(n, grouped=True)
        table[n] = (seq, grp)
        report.row(
            f"{n:>3} {seq['messages']:>9} {grp['messages']:>9} "
            f"{seq['writes']:>7} {grp['writes']:>7} "
            f"{seq['ticks']:>10} {grp['ticks']:>10}"
        )
    seq8, grp8 = table[8]
    for key in ("messages", "writes"):
        reduction = 100.0 * (1.0 - grp8[key] / seq8[key])
        report.row(f"reduction at N=8, {key}: {reduction:.1f}%")
        assert reduction >= 30.0
    # Sequential is superlinear in N (a request per commit plus a chain
    # walk that grows with k); the grouped path stays one flush + one
    # test-and-set.  N=2 is the one-hop Figure-6 case: two client RPCs,
    # one read of the base's commit reference, two replicated requests.
    seq2, grp2 = table[2]
    assert seq2["messages"] <= 14
    assert seq8["messages"] / seq2["messages"] > 8 / 2
    assert grp8["messages"] <= grp2["messages"] + 2

    benchmark(lambda: _settle_cost(8, grouped=True))
