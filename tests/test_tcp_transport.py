"""The whole file service over real localhost TCP sockets.

The acceptance bar for the wire transport: the existing client API —
FileClient, ClientUpdate, caching, buffering, group commit — commits and
reads over TCP with zero changes to core/service.py OCC logic, and
killing one stable-pair daemon mid-workload fails over to the companion
with a serializable recorded history.
"""

from __future__ import annotations

import pytest

from repro.core.pathname import PagePath
from repro.errors import CommitConflict
from repro.net import build_tcp_cluster, connect
from repro.obs import Recorder
from repro.verify.history import HistoryRecorder, check_history

ROOT = PagePath.ROOT


# One daemon; the id names its design, a thread per connection.
@pytest.fixture(autouse=True, params=["threaded"])
def daemon_design():
    pass


@pytest.fixture
def tcp_cluster():
    cluster = build_tcp_cluster(servers=2, seed=7)
    yield cluster
    cluster.stop()


def test_create_commit_read_over_tcp(tcp_cluster):
    client = tcp_cluster.client("host")
    cap = client.create_file(b"first bytes over the real wire")
    assert client.read(cap) == b"first bytes over the real wire"
    client.transact(cap, lambda u: u.write(ROOT, b"second version"))
    assert client.read(cap) == b"second version"
    assert len(client.history(cap)) == 2


def test_page_tree_operations_over_tcp(tcp_cluster):
    client = tcp_cluster.client("host")
    cap = client.create_file(b"root")
    update = client.begin(cap)
    child_a = update.append_page(ROOT, b"page a")
    child_b = update.append_page(ROOT, b"page b")
    update.commit()
    assert client.read(cap, child_a) == b"page a"
    assert client.read(cap, child_b) == b"page b"
    update = client.begin(cap)
    update.remove_page(child_b)
    update.commit()
    assert client.read(cap, PagePath.of(0)) == b"page a"


def test_optimistic_conflict_and_redo_over_tcp(tcp_cluster):
    client = tcp_cluster.client("host")
    counter = client.create_file(b"0")

    def increment(update):
        update.write(ROOT, b"%d" % (int(update.read(ROOT)) + 1))

    first = client.begin(counter)
    second = client.begin(counter)
    first.read(ROOT)
    second.read(ROOT)
    first.write(ROOT, b"1")
    second.write(ROOT, b"1")
    first.commit()
    with pytest.raises(CommitConflict):
        second.commit()
    # The redo loop settles it.
    client.transact(counter, increment)
    assert client.read(counter) == b"2"


def test_client_cache_and_buffered_writes_over_tcp(tcp_cluster):
    client = tcp_cluster.client("host", buffer_writes=True)
    cap = client.create_file(b"cached")
    assert client.read(cap) == b"cached"
    hits_before = client.stats.cache_hits
    assert client.read(cap) == b"cached"
    assert client.stats.cache_hits == hits_before + 1
    update = client.begin(cap)
    update.write(ROOT, b"buffered then shipped")
    update.commit()
    assert client.read(cap) == b"buffered then shipped"


def test_revalidating_read_delegated_across_file_servers_does_not_stall():
    """A reader on fs0 revalidates after a commit through fs1, so fs0
    forwards the read to fs1, whose flag cache is warm.  The two daemons
    share one dispatch lock; the forwarded read must not wait for it.
    (Regression: the validation held the lock on fs0 while the delegated
    call queued for it on fs1, waited out the lock timeout — 5 s — and got
    a busy answer.)"""
    import time

    recorder = Recorder()
    cluster = build_tcp_cluster(servers=2, seed=7, recorder=recorder)
    try:
        writer = cluster.client("writer", prefer_server="fs1")
        reader = cluster.client("reader", prefer_server="fs0")
        cap = writer.create_file(b"v1")
        assert reader.read(cap) == b"v1"
        writer.transact(cap, lambda u: u.write(ROOT, b"v2"))
        served = cluster.fs(1).metrics.snapshot_reads
        start = time.perf_counter()
        assert reader.read(cap) == b"v2"
        assert time.perf_counter() - start < 1.0
        assert cluster.fs(1).metrics.snapshot_reads == served + 1  # delegated
        busy = recorder.metrics.counters.get("net.tcp.busy")
        assert busy is None or busy.value == 0
    finally:
        cluster.stop()


def test_small_update_begin_and_abort_send_no_lock_traffic(tcp_cluster):
    """A small file's top lock is file-server soft state: beginning and
    aborting an update send the block tier no lock request — only the
    base read (one exchange), the version page's block number from the
    pool (one) and its replicated free (two)."""
    client = tcp_cluster.client("host")
    cap = client.create_file(b"v1")
    client.transact(cap, lambda u: u.write(ROOT, b"v2"))  # warms the caches
    stats = tcp_cluster.network.stats
    for _ in range(3):
        before = stats.messages
        client.begin(cap).abort()
        # create_version and abort: 2 client exchanges; 4 block-tier ones.
        assert stats.messages - before == 2 * (2 + 4)


def test_group_commit_over_tcp(tcp_cluster):
    client = tcp_cluster.client("host", use_cache=False)
    cap = client.create_file(b"base")
    setup = client.begin(cap)
    paths = [setup.append_page(ROOT, b"init") for _ in range(4)]
    setup.commit()
    client.prefer_server = client.ping()
    updates = []
    for i, path in enumerate(paths):
        update = client.begin(cap)
        update.write(path, b"grouped %d" % i)
        updates.append(update)
    outcomes = client.commit_group(updates)
    assert all(v == "committed" for v in outcomes.values())
    for i, path in enumerate(paths):
        assert client.read(cap, path) == b"grouped %d" % i


def test_file_server_replica_failover_over_tcp(tcp_cluster):
    client = tcp_cluster.client("host")
    cap = client.create_file(b"replicated")
    tcp_cluster.fs(0).crash()
    client.transact(cap, lambda u: u.write(ROOT, b"served by the replica"))
    assert client.read(cap) == b"served by the replica"
    tcp_cluster.fs(0).restart()


def test_kill_stable_pair_daemon_mid_workload_with_history_check():
    """The acceptance criterion: a real daemon dies mid-workload, the
    workload completes through the companion, and the recorded history
    passes the serializability checker."""
    recorder = Recorder()
    history = HistoryRecorder()
    cluster = build_tcp_cluster(servers=2, seed=13, recorder=recorder, history=history)
    try:
        client = cluster.client("host", history=history)
        caps = [client.create_file(b"file %d" % i) for i in range(3)]
        for round_ in range(2):
            for i, cap in enumerate(caps):
                client.transact(
                    cap,
                    lambda u, r=round_, i=i: u.write(ROOT, b"r%d f%d" % (r, i)),
                )
        cluster.pair.a.crash()  # a real socket teardown, not a sim flag
        for i, cap in enumerate(caps):
            client.transact(
                cap, lambda u, i=i: u.write(ROOT, b"post-crash f%d" % i)
            )
        for i, cap in enumerate(caps):
            assert client.read(cap) == b"post-crash f%d" % i
        cluster.pair.a.restart()
        cluster.pair.a.resync()
        assert cluster.pair.consistent()
        result = check_history(history)
        assert result.ok, result.violations()
        assert recorder.metrics.counters["rpc.failovers"].value > 0
    finally:
        cluster.stop()


def test_sharded_topology_over_tcp():
    cluster = build_tcp_cluster(servers=1, shards=3, seed=11)
    try:
        client = cluster.client("host")
        caps = [client.create_file(b"shard me %d" % i) for i in range(6)]
        for i, cap in enumerate(caps):
            client.transact(cap, lambda u, i=i: u.write(ROOT, b"data %d" % i))
        for i, cap in enumerate(caps):
            assert client.read(cap) == b"data %d" % i
        counts = cluster.shards.allocation_counts()
        assert sum(counts) >= 6
        assert all(count > 0 for count in counts)
    finally:
        cluster.stop()


def test_connect_spec_round_trip():
    """A second network object built purely from the spec string (the
    cross-process path) reaches the same deployment."""
    cluster = build_tcp_cluster(servers=2, seed=7)
    try:
        from repro.client.api import FileClient

        network, service_port = connect(cluster.spec())
        assert service_port == cluster.service_port
        remote = FileClient(network, "remote", service_port)
        cap = remote.create_file(b"via spec")
        remote.transact(cap, lambda u: u.write(ROOT, b"spec commit"))
        assert remote.read(cap) == b"spec commit"
        # The local cluster's own client sees the remote client's commit.
        local = cluster.client("local")
        assert local.read(cap) == b"spec commit"
        network._drop_pool()
    finally:
        cluster.stop()


def test_tcp_counters_flow_through_the_obs_layer():
    recorder = Recorder()
    cluster = build_tcp_cluster(servers=1, seed=7, recorder=recorder)
    try:
        client = cluster.client("host")
        cap = client.create_file(b"counted")
        client.transact(cap, lambda u: u.write(ROOT, b"counted commit"))
        counters = recorder.metrics.counters
        assert counters["net.tcp.connections"].value >= 1
        assert counters["net.tcp.requests"].value > 0
        assert counters["net.tcp.bytes_in"].value > 0
        assert counters["net.tcp.bytes_out"].value > 0
        # Client- and server-side request counts agree: every request the
        # transport sent was served (no drops, no silent retries).
        assert (
            counters["net.tcp.requests"].value
            == counters["net.tcp.requests_served"].value
        )
    finally:
        cluster.stop()


def test_service_state_is_shared_across_wire_flavours():
    """The OCC logic is byte-for-byte the sim's: the same FileService
    object hosted behind TCP can be driven directly (in process) and over
    the wire, and both views agree."""
    cluster = build_tcp_cluster(servers=1, seed=7)
    try:
        client = cluster.client("host")
        cap = client.create_file(b"dual view")
        fs = cluster.fs(0)
        # Direct in-process read of the same server object.
        assert fs.read_page(fs.current_version(cap), ROOT) == b"dual view"
        client.transact(cap, lambda u: u.write(ROOT, b"over the wire"))
        assert fs.read_page(fs.current_version(cap), ROOT) == b"over the wire"
    finally:
        cluster.stop()
