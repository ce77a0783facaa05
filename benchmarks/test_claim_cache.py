"""Claim C5: cache validation is cheap and needs no unsolicited messages.

"The cost of checking whether the cache is up-to-date is small, even for
files that are frequently modified.  [...] but our method of maintaining a
cache is even more efficient for files that are not shared: the cache
entry will always be far the most recent version of a file, so the
serialisability test is a null operation, and all pages in the cache will
always be valid."

Also reproduces the XDFS comparison: Amoeba's client never receives a
server-initiated message — the count of server→client pushes is zero by
construction, versus one callback per invalidation for an XDFS-style
write-through-callback scheme (simulated arithmetic below).
"""

from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


def test_c5_unshared_file_validation_null(benchmark, report):
    """A leaseless cached read of an unshared file: one ``read_current``
    that presents the cached version, answered with no discards and no
    page."""
    cluster = build_cluster(seed=60)
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"private data")
    client.read(cap)  # populate the cache
    replies = []
    call = client._call

    def recording_call(command, **params):
        reply = call(command, **params)
        replies.append((command, reply))
        return reply

    client._call = recording_call

    def cached_read():
        replies.clear()
        before = cluster.network.stats.messages
        data = client.read(cap)
        return data, cluster.network.stats.messages - before

    data, messages = benchmark(cached_read)
    assert data == b"private data"
    [(command, (page, _, _, discards))] = replies
    assert (command, page, discards) == ("read_current", None, [])
    # The RPC alone: with no version of the file open, the file table
    # names the cached version current, so no version page is read from
    # stable storage, no page-tree page either, and no page is sent.
    assert messages == 2
    report.row("unshared file: a cached read is one RPC; validation discards")
    report.row(f"nothing and transfers no page ({messages} messages per read)")
    report.row(f"cache hits so far: {client.cache.stats.hits}")


def test_c5_validation_cost_tracks_writes_not_file_size(benchmark, report):
    rows = []
    for n_pages, n_writes in ((64, 1), (64, 8), (512, 1), (512, 8)):
        cluster = build_cluster(seed=61)
        fs = cluster.fs()
        cap = fs.create_file(b"root")
        setup = fs.create_version(cap)
        for i in range(n_pages):
            fs.append_page(setup.version, ROOT, b"p%d" % i)
        fs.commit(setup.version)
        cached = fs.current_version(cap)
        writer = fs.create_version(cap)
        for i in range(n_writes):
            fs.write_page(writer.version, PagePath.of(i), b"w")
        fs.commit(writer.version)
        fs.store.cache.clear()
        disk = cluster.pair.disk_a
        before = disk.stats.reads + cluster.pair.disk_b.stats.reads
        *_, discards = fs.read_current(
            cap, ROOT, cached_version_cap=cached, have_page=True
        )
        cost = disk.stats.reads + cluster.pair.disk_b.stats.reads - before
        rows.append((n_pages, n_writes, len(discards), cost))
    report.row("validation cost (disk reads) vs file size and write-set size:")
    report.row(f"{'pages':>6} {'writes':>7} {'discards':>9} {'reads':>6}")
    for n_pages, n_writes, discards, cost in rows:
        report.row(f"{n_pages:>6} {n_writes:>7} {discards:>9} {cost:>6}")
    # Same write set, 8x file size: cost identical.
    assert rows[0][3] == rows[2][3]
    assert rows[1][3] == rows[3][3]
    # Bigger write set costs more than a smaller one (same file size).
    assert rows[1][3] >= rows[0][3]

    cluster = build_cluster(seed=62)
    fs = cluster.fs()
    cap = fs.create_file(b"x")
    cached = fs.current_version(cap)
    benchmark(
        lambda: fs.read_current(cap, ROOT, cached_version_cap=cached, have_page=True)
    )


def test_c5_no_unsolicited_messages(benchmark, report):
    """Count server→client pushes in a shared-file scenario: zero.  An
    XDFS-style callback scheme would have sent one per remote write."""
    cluster = build_cluster(seed=63)
    net = cluster.network
    reader = FileClient(net, "reader", cluster.service_port)
    writer = FileClient(net, "writer", cluster.service_port)
    cap = writer.create_file(b"v0")
    reader.read(cap)
    remote_writes = 10

    def churn():
        for n in range(remote_writes):
            writer.transact(cap, lambda u, n=n: u.write(ROOT, b"v%d" % n))
        return reader.read(cap)

    final = benchmark(churn)
    assert final.startswith(b"v")
    # The simulated network only ever delivers client→server requests and
    # their replies; there is no server-push path at all.  The XDFS-style
    # equivalent: one unsolicited invalidation per write to a cached file.
    report.row(f"remote writes per round: {remote_writes}")
    report.row("unsolicited server->client messages (Amoeba): 0 (by design)")
    report.row(f"unsolicited messages an XDFS-style scheme would send: {remote_writes}")
    report.row("the reader instead validates in the one exchange of its next read")
