"""The operation cost model: messages / disk I/O / ticks per basic verb.

Not a figure from the paper, but the table every file-server paper of the
era carried — and the foundation under claims C1/C5/C6: where exactly the
messages go for each operation of the public API.
"""

from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


def _measure(label, cluster, fn, rows):
    disk_a, disk_b = cluster.pair.disk_a, cluster.pair.disk_b
    msgs = cluster.network.stats.messages
    reads = disk_a.stats.reads + disk_b.stats.reads
    writes = disk_a.stats.writes + disk_b.stats.writes
    ticks = cluster.clock.now
    fn()
    rows.append(
        (
            label,
            cluster.network.stats.messages - msgs,
            disk_a.stats.reads + disk_b.stats.reads - reads,
            disk_a.stats.writes + disk_b.stats.writes - writes,
            cluster.clock.now - ticks,
        )
    )


def test_operation_cost_model(benchmark, report):
    cluster = build_cluster(servers=1, seed=130)
    client = FileClient(cluster.network, "host", cluster.service_port)
    fs = cluster.fs()
    rows: list[tuple] = []

    cap = None

    def create():
        nonlocal cap
        cap = client.create_file(b"cost model file")

    _measure("create_file (1 page)", cluster, create, rows)

    handle = None

    def begin():
        nonlocal handle
        handle = fs.create_version(cap)

    _measure("create_version", cluster, begin, rows)
    _measure(
        "read_page (uncommitted, shadows)",
        cluster,
        lambda: fs.read_page(handle.version, ROOT),
        rows,
    )
    _measure(
        "write_page (deferred)",
        cluster,
        lambda: fs.write_page(handle.version, ROOT, b"new"),
        rows,
    )
    _measure("commit (fast path)", cluster, lambda: fs.commit(handle.version), rows)

    current = fs.current_version(cap)
    _measure(
        "read_page (committed, cold cache)",
        cluster,
        lambda: (fs.store.cache.clear(), fs.read_page(current, ROOT)),
        rows,
    )
    _measure(
        "read_page (committed, warm cache)",
        cluster,
        lambda: fs.read_page(current, ROOT),
        rows,
    )
    _measure(
        "read_current (cached, unshared)",
        cluster,
        lambda: fs.read_current(
            cap, ROOT, cached_version_cap=current, have_page=True
        ),
        rows,
    )

    handle2 = fs.create_version(cap)

    def abort():
        fs.abort(handle2.version)

    _measure("abort (clean version)", cluster, abort, rows)

    report.row(f"{'operation':>34} {'msgs':>5} {'reads':>6} {'writes':>7} {'ticks':>7}")
    for label, msgs, reads, writes, ticks in rows:
        report.row(f"{label:>34} {msgs:>5} {reads:>6} {writes:>7} {ticks:>7}")

    by_label = {row[0]: row for row in rows}
    # Warm-cache committed reads cost no disk I/O at all.
    assert by_label["read_page (committed, warm cache)"][2] == 0
    # The deferred write costs no disk writes before commit.
    assert by_label["write_page (deferred)"][3] == 0
    # The commit fast path stays within a handful of messages.
    assert by_label["commit (fast path)"][1] <= 8

    cluster2 = build_cluster(seed=131)
    client2 = FileClient(cluster2.network, "host", cluster2.service_port)
    cap2 = client2.create_file(b"x")
    benchmark(lambda: client2.transact(cap2, lambda u: u.write(ROOT, b"y")))


def test_client_buffering_cost(benchmark, report):
    """Message cost of an n-rewrite update, write-through vs buffered."""
    rows = []
    for buffered in (False, True):
        cluster = build_cluster(seed=132)
        client = FileClient(
            cluster.network, "host", cluster.service_port, buffer_writes=buffered
        )
        cap = client.create_file(b"x")
        before = cluster.network.stats.messages
        update = client.begin(cap)
        for n in range(10):
            update.write(ROOT, b"draft%d" % n)
        update.commit()
        rows.append((buffered, cluster.network.stats.messages - before))
    report.row("messages for an update with 10 rewrites of one page:")
    for buffered, msgs in rows:
        mode = "buffered (write-behind)" if buffered else "write-through"
        report.row(f"  {mode:>24}: {msgs}")
    assert rows[1][1] < rows[0][1]

    cluster = build_cluster(seed=133)
    client = FileClient(
        cluster.network, "host", cluster.service_port, buffer_writes=True
    )
    cap = client.create_file(b"x")

    def buffered_update():
        update = client.begin(cap)
        for n in range(10):
            update.write(ROOT, b"d%d" % n)
        update.commit()

    benchmark(buffered_update)
