"""Protocol-sequence tests: the wire traces match docs/PROTOCOLS.md.

The network tracer records every (sender, destination, command) triple;
these tests assert the exact message sequences of the documented
protocols — companion-first replication, the commit test-and-set and
the one-RPC client read.
"""

import pytest

from repro.block.stable import EXTENT, StablePair
from repro.block.sharding import ShardedBlockClient
from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.errors import MessageDropped
from repro.net import build_tcp_cluster
from repro.obs import Recorder
from repro.sim.network import Network
from repro.sim.rpc import Request
from repro.testbed import build_cluster
from repro.verify.history import HistoryRecorder

ROOT = PagePath.ROOT


class Trace:
    def __init__(self, network):
        self.events: list[tuple[str, str, str]] = []
        network.tracer = self._record

    def _record(self, sender, dest, payload):
        command = payload.command if isinstance(payload, Request) else type(payload).__name__
        self.events.append((sender, dest, command))

    def commands(self):
        return [command for _, __, command in self.events]

    def clear(self):
        self.events.clear()


def test_companion_first_write_sequence():
    net = Network()
    pair = StablePair(net, 0xC00, capacity=64, block_size=128)
    client = ShardedBlockClient(net, "cli", [0xC00], account=1)
    trace = Trace(net)
    client.allocate_write(b"data")
    # Exactly: client request to A, then A's companion write to B.
    assert trace.events == [
        ("cli", "blockA", "allocate_write"),
        ("blockA", "blockB", "companion_write_many"),
    ]


def test_read_sequence_no_companion_traffic():
    net = Network()
    pair = StablePair(net, 0xC01, capacity=64, block_size=128)
    client = ShardedBlockClient(net, "cli", [0xC01], account=1)
    block = client.allocate_write(b"data")
    trace = Trace(net)
    client.read(block)
    assert trace.events == [("cli", "blockA", "read")]


def test_corrupt_read_adds_exactly_one_companion_fetch():
    net = Network()
    pair = StablePair(net, 0xC02, capacity=64, block_size=128)
    client = ShardedBlockClient(net, "cli", [0xC02], account=1)
    block = client.allocate_write(b"data")
    pair.disk_a.corrupt(block)
    trace = Trace(net)
    client.read(block)
    assert trace.commands() == ["read", "companion_read"]
    # (the repair is a purely local rewrite: the companion already holds
    # the good copy, so no further replication traffic is needed)


def test_allocate_from_a_warm_pool_is_one_request_and_no_companion_traffic():
    net = Network()
    pair = StablePair(net, 0xC03, capacity=64, block_size=128)
    client = ShardedBlockClient(net, "cli", [0xC03], account=1)
    trace = Trace(net)
    first = client.allocate()
    # A cold pool: the request, and ONE companion exchange for the extent.
    assert trace.events == [
        ("cli", "blockA", "allocate"),
        ("blockA", "blockB", "companion_reserve_many"),
    ]
    trace.clear()
    messages = net.stats.messages
    rest = [client.allocate() for _ in range(EXTENT - 1)]
    # A warm pool: one request and one reply each, nothing else.
    assert trace.events == [("cli", "blockA", "allocate")] * (EXTENT - 1)
    assert net.stats.messages - messages == 2 * (EXTENT - 1)
    assert len({first, *rest}) == EXTENT
    trace.clear()
    client.allocate()  # the pool ran dry: the next extent
    assert trace.commands() == ["allocate", "companion_reserve_many"]


def test_commit_fast_path_sequence():
    cluster = build_cluster(seed=150)
    fs = cluster.fs()
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"y")
    trace = Trace(cluster.network)
    fs.commit(handle.version)
    # One request to the block layer carries the dirty pages AND the
    # test-and-set of the commit reference; one exchange replicates it.
    assert trace.events == [
        ("fs0", "shard0A", "write_many"),
        ("shard0A", "shard0B", "companion_write_many"),
    ]


def test_commit_of_a_flushed_version_is_still_one_replicated_request():
    cluster = build_cluster(seed=150)
    fs = cluster.fs()
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"y")
    fs.store.flush()
    trace = Trace(cluster.network)
    fs.commit(handle.version)
    # Nothing left to flush: the request is the test-and-set alone.
    assert trace.commands() == ["write_many", "companion_write_many"]


# One commit path: ``commit(v)`` is ``commit_group([v])`` — a group of
# one through the same engine — so the two must cost the block tier the
# same requests in the same order, whatever state the base is in.
COMMIT_CALLS = {
    "commit": lambda fs, version: fs.commit(version),
    "commit_group": lambda fs, version: fs.commit_group([version]),
}
either_commit = pytest.mark.parametrize(
    "commit", COMMIT_CALLS.values(), ids=COMMIT_CALLS.keys()
)


def _two_page_file(fs):
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    pages = [fs.append_page(setup.version, ROOT, b"init") for _ in range(2)]
    fs.commit(setup.version)
    return cap, pages


@either_commit
@pytest.mark.parametrize("flushed", [False, True])
def test_commit_on_a_current_base_reads_nothing(commit, flushed):
    cluster = build_cluster(seed=153)
    fs = cluster.fs()
    cap, pages = _two_page_file(fs)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, pages[0], b"mine")
    if flushed:
        fs.store.flush()  # the version's own page is no longer buffered
    trace = Trace(cluster.network)
    commit(fs, handle.version)
    # The base is the file table's entry block: no resolution, no fresh load.
    assert trace.commands() == ["write_many", "companion_write_many"]
    assert fs.read_page(fs.current_version(cap), pages[0]) == b"mine"


@either_commit
def test_commit_one_version_behind_catches_up_before_its_only_request(commit):
    cluster = build_cluster(seed=154)
    fs = cluster.fs()
    cap, pages = _two_page_file(fs)
    stale = fs.create_version(cap)
    fs.write_page(stale.version, pages[0], b"stale-based")
    ahead = fs.create_version(cap)
    fs.write_page(ahead.version, pages[1], b"ahead")
    fs.commit(ahead.version)
    trace = Trace(cluster.network)
    commit(fs, stale.version)
    # This server committed the newer version, so it knows the tip: the
    # base's commit reference is read, the catch-up runs in memory, and
    # the one test-and-set is not lost.
    assert trace.commands() == ["read", "write_many", "companion_write_many"]
    current = fs.current_version(cap)
    assert fs.read_page(current, pages[0]) == b"stale-based"
    assert fs.read_page(current, pages[1]) == b"ahead"


@either_commit
def test_commit_behind_another_servers_commit_is_figure_6(commit):
    cluster = build_cluster(servers=2, seed=155)
    fs, other = cluster.fs(0), cluster.fs(1)
    cap, pages = _two_page_file(fs)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, pages[0], b"mine")
    file_entry = cluster.registry.file(cap.obj)
    base = file_entry.entry_block
    rival = other.create_version(cap)
    other.write_page(rival.version, pages[1], b"rival")
    other.commit(rival.version)
    # A file table that has not yet heard of the rival's commit.
    file_entry.entry_block = base
    trace = Trace(cluster.network)
    commit(fs, handle.version)
    # Nothing here knows of the rival: the first request flushes and
    # loses its test-and-set, the catch-up reads the successor the loser
    # was told about, and the second request wins.
    assert trace.commands() == [
        "write_many",
        "companion_write_many",
        "read",
        "write_many",
        "companion_write_many",
    ]
    current = fs.current_version(cap)
    assert fs.read_page(current, pages[0]) == b"mine"
    assert fs.read_page(current, pages[1]) == b"rival"


@either_commit
def test_commit_behind_another_servers_commit_in_the_table_wins_first_time(commit):
    cluster = build_cluster(servers=2, seed=155)
    fs, other = cluster.fs(0), cluster.fs(1)
    cap, pages = _two_page_file(fs)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, pages[0], b"mine")
    rival = other.create_version(cap)
    other.write_page(rival.version, pages[1], b"rival")
    other.commit(rival.version)
    trace = Trace(cluster.network)
    commit(fs, handle.version)
    # The shared file table's entry block already names the rival: the
    # catch-up reads the base's commit reference and the rival's root,
    # and the one test-and-set, on the rival, is not lost.
    assert trace.commands() == [
        "read",
        "read",
        "write_many",
        "companion_write_many",
    ]
    current = fs.current_version(cap)
    assert fs.read_page(current, pages[0]) == b"mine"
    assert fs.read_page(current, pages[1]) == b"rival"


def test_test_and_set_verb_replicates_in_one_exchange():
    net = Network()
    pair = StablePair(net, 0xC04, capacity=64, block_size=128)
    client = ShardedBlockClient(net, "cli", [0xC04], account=1)
    block = client.allocate_write(b"\x00" * 8)
    trace = Trace(net)
    assert client.test_and_set(block, 0, b"\x00" * 4, b"\x00\x00\x00\x07").success
    assert trace.commands() == ["test_and_set", "companion_write_many"]
    trace.clear()
    # A failed compare changes nothing, so nothing crosses to the companion.
    assert not client.test_and_set(block, 0, b"\x00" * 4, b"\x00\x00\x00\x09").success
    assert trace.commands() == ["test_and_set"]


def test_client_update_cycle_has_no_server_push():
    """Every message in a full client update cycle is client→server or
    server→block — there is no server→client push path (the anti-XDFS
    property, structurally)."""
    cluster = build_cluster(servers=2, seed=151)
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"v0")
    trace = Trace(cluster.network)
    client.transact(cap, lambda u: u.write(ROOT, b"v1"))
    client.read(cap)
    for sender, dest, command in trace.events:
        assert sender != "fs0" or dest != "host"
        assert sender != "fs1" or dest != "host"
        assert dest != "host", f"server push detected: {sender}->{dest} {command}"


def test_failover_trace_shows_retry_on_other_server():
    cluster = build_cluster(servers=2, seed=152)
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"v0")
    cluster.fs(0).crash()
    trace = Trace(cluster.network)
    client.current_version(cap)
    senders_to = [(s, d) for s, d, _ in trace.events if s == "host"]
    assert ("host", "fs0") in senders_to  # the failed attempt
    assert ("host", "fs1") in senders_to  # the failover


# The client read path: every read that reaches a server is one lock-free
# ``read_current``, whatever the client's cache and lease hold.  Version
# reads (inside an update, or of a historical version) keep ``read_page``.
# Per state: client options, the preparation after the reader's first
# read, and the messages the next read costs (before the cached-read
# verbs were folded into ``read_current``: 4, 4, 12, 12 and 2 messages —
# the middle two were ``renew_lease`` plus ``read_page``).
LEASE = 1_000_000
READERS = {
    "uncached": ({"use_cache": False}, "drop", 4),
    "leaseless-cold": ({"use_cache": True}, "drop", 4),
    "leaseless-cached": ({"use_cache": True}, None, 8),
    "lease-expired": ({"lease_ticks": 100}, "expire", 8),
    "lease-live-page-missing": ({"lease_ticks": LEASE}, "reread-then-pop", 2),
}


@pytest.mark.parametrize(
    "options, prepare, messages_sent", READERS.values(), ids=READERS.keys()
)
def test_client_read_is_one_rpc_of_the_true_current_version(
    options, prepare, messages_sent
):
    history = HistoryRecorder()
    cluster = build_cluster(servers=2, seed=156, history=history)
    network = cluster.network
    writer = FileClient(
        network, "writer", cluster.service_port, prefer_server="fs1", use_cache=False
    )
    reader = FileClient(
        network, "host", cluster.service_port, prefer_server="fs0", **options
    )
    cap = writer.create_file(b"v0")
    assert reader.read(cap) == b"v0"  # fs0 now caches the current version
    if prepare == "drop" and reader.cache is not None:
        reader.cache.drop(cap)  # the next read is cold again
    writer.transact(cap, lambda u: u.write(ROOT, b"v1"))  # through fs1
    if prepare == "expire":
        cluster.clock.advance(101)
    elif prepare == "reread-then-pop":
        reader.cache.drop(cap)
        assert reader.read(cap) == b"v1"  # a live lease on the new version
        reader.cache.entry(cap).pages.pop(ROOT)
    current = writer.current_version(cap)
    trace = Trace(network)
    messages = network.stats.messages
    seen = len(history)

    assert reader.read(cap) == b"v1"
    assert [e for e in trace.events if e[0] == "host"] == [
        ("host", "fs0", "read_current")
    ]
    # Cold: the RPC and the version-page load behind it.  Cached and
    # stale: fs0's flag cache is cold, so it forwards the whole read to
    # fs1, which walks from the cached version to the current one.  Live
    # lease: the epoch answers, and the page comes from fs0's page cache.
    assert network.stats.messages - messages == messages_sent
    # One snapshot read, of the version fs1 just committed: fs0's stale
    # hint is not what a client read is served from.
    reads = [e for e in history.events[seen:] if e.kind == "snapshot_read"]
    assert [(r.version, r.value) for r in reads] == [(current.obj, b"v1")]


def test_leaseless_reads_grant_no_leases():
    recorder = Recorder()
    cluster = build_cluster(seed=158, recorder=recorder)
    fs = cluster.fs()
    client = FileClient(cluster.network, "host", cluster.service_port, use_cache=False)
    cap = client.create_file(b"data")
    for _ in range(5):
        assert client.read(cap) == b"data"
    assert fs.metrics.snapshot_reads == 5
    assert fs.metrics.leases_granted == fs.metrics.lease_fast_renewals == 0
    leases = {
        name: counter.value
        for name, counter in recorder.metrics.counters.items()
        if name.startswith("cache.lease.")
    }
    assert not any(leases.values()), leases


def test_tcp_read_is_served_while_the_dispatch_lock_is_held():
    """An uncached read over TCP never takes the dispatch lock: it is
    answered while a mutating command (here, the test) holds it."""
    recorder = Recorder()
    cluster = build_tcp_cluster(seed=157, recorder=recorder, lock_timeout=0.05)
    try:
        client = cluster.client("host", use_cache=False)
        cap = client.create_file(b"v0")
        lock = cluster.network.daemon("fs0")._dispatch_lock
        assert lock.acquire(timeout=5)
        try:
            data = client.read(cap)
        except MessageDropped:
            pytest.fail("read answered busy while the dispatch lock was held")
        finally:
            lock.release()
        assert data == b"v0"
        busy = recorder.metrics.counters.get("net.tcp.busy")
        assert busy is None or busy.value == 0
    finally:
        cluster.stop()


def test_tcp_cached_read_is_served_while_the_dispatch_lock_is_held():
    """A cached read's §5.4 test runs lock-free too, on the server the
    client asked and on the one it delegates to: it is answered while the
    test holds the dispatch lock both file servers share."""
    recorder = Recorder()
    cluster = build_tcp_cluster(
        servers=2, seed=159, recorder=recorder, lock_timeout=0.05
    )
    try:
        writer = cluster.client("writer", use_cache=False, prefer_server="fs1")
        reader = cluster.client("host", prefer_server="fs0")
        cap = writer.create_file(b"root")
        setup = writer.begin(cap)
        kept_page = setup.append_page(ROOT, b"kept")
        changed_page = setup.append_page(ROOT, b"old")
        setup.commit()
        assert reader.read(cap, kept_page) == b"kept"
        assert reader.read(cap, changed_page) == b"old"
        writer.transact(cap, lambda u: u.write(changed_page, b"changed"))
        lock = cluster.network.daemon("fs0")._dispatch_lock
        assert lock.acquire(timeout=5)
        try:
            kept = reader.read(cap, kept_page)  # validated, not sent
            changed = reader.read(cap, changed_page)  # discarded, so sent
        except MessageDropped:
            pytest.fail("a cached read answered busy while the lock was held")
        finally:
            lock.release()
        assert (kept, changed) == (b"kept", b"changed")
        assert reader.stats.cache_hits == 1
        busy = recorder.metrics.counters.get("net.tcp.busy")
        assert busy is None or busy.value == 0
    finally:
        cluster.stop()
