"""Read leases (§5.4 caching, pushed to zero-message hot reads).

A server grants a ``Lease(epoch, ttl)`` with every ``read_current``;
while the lease is live the client serves cached pages with no network
traffic at all.  Every commit — sequential, grouped, or through the other
server of the pair — bumps the file's epoch, so a post-lease read that
presents a stale epoch does the full §5.4 walk and one on an unchanged
file is answered from the file table alone (the fast renewal).  The
history checker bounds how stale any lease-served read can be: it may lag
a superseding commit by at most the lease TTL.
"""

import pytest

from repro.client.api import FileClient
from repro.core.cache import Lease
from repro.core.pathname import PagePath
from repro.errors import ReproError

ROOT = PagePath.ROOT
LEASE = 10_000  # logical ticks: long enough to stay live across a test


# ---------------------------------------------------------------------------
# the server-side protocol: read_current's renewals / epoch bumps
# ---------------------------------------------------------------------------


def _renew(fs, cap, cached, epoch, lease_ticks=LEASE, path=ROOT):
    """A renewal: the client holds ``path`` of ``cached`` and presents
    its lease's epoch; returns (page or None, current, lease, discards)."""
    return fs.read_current(
        cap, path, lease_ticks, cached_version_cap=cached, epoch=epoch,
        have_page=True,
    )


def test_renew_lease_fast_path_on_unchanged_file(fs):
    cap = fs.create_file(b"quiet file")
    cached = fs.current_version(cap)
    epoch = fs.registry.files[cap.obj].epoch
    data, current, lease, discards = _renew(fs, cap, cached, epoch)
    assert data is None  # the client's page is still good: none sent
    assert discards == []
    assert current.obj == cached.obj
    assert lease == Lease(epoch, LEASE)
    assert fs.metrics.lease_fast_renewals == 1
    assert fs.metrics.leases_granted == 1
    # Missing the page, the client gets it in the same exchange.
    data, _, _, _ = fs.read_current(
        cap, ROOT, LEASE, cached_version_cap=cached, epoch=epoch
    )
    assert data == b"quiet file"
    assert fs.metrics.lease_fast_renewals == 2


def test_commit_bumps_epoch_and_defeats_fast_path(fs):
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(3):
        fs.append_page(setup.version, ROOT, b"c%d" % i)
    fs.commit(setup.version)
    cached = fs.current_version(cap)
    old_epoch = fs.registry.files[cap.obj].epoch
    writer = fs.create_version(cap)
    fs.write_page(writer.version, PagePath.of(1), b"changed")
    fs.commit(writer.version)
    assert fs.registry.files[cap.obj].epoch == old_epoch + 1
    data, current, lease, discards = _renew(
        fs, cap, cached, old_epoch, path=PagePath.of(0)
    )
    assert discards == [PagePath.of(1)]
    assert data is None  # page 0 survives the walk
    assert current.obj != cached.obj
    assert lease.epoch == old_epoch + 1
    assert fs.metrics.lease_fast_renewals == 0
    data, _, _, _ = _renew(fs, cap, cached, old_epoch, path=PagePath.of(1))
    assert data == b"changed"  # discarded, so sent


def test_commit_through_other_server_bumps_shared_epoch(cluster2):
    """The epoch lives in the shared registry: a commit through the
    *other* server of the pair invalidates a lease granted by this one."""
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"v1")
    cached = fs0.current_version(cap)
    epoch = fs0.registry.files[cap.obj].epoch
    writer = fs1.create_version(cap)
    fs1.write_page(writer.version, ROOT, b"v2")
    fs1.commit(writer.version)
    data, _, lease, discards = _renew(fs0, cap, cached, epoch)
    assert discards == [ROOT]
    assert data == b"v2"
    assert lease.epoch == epoch + 1
    assert fs0.metrics.lease_fast_renewals == 0


def test_group_commit_bumps_epoch_per_member(fs):
    caps = [fs.create_file(b"f%d" % i) for i in range(3)]
    epochs = {cap.obj: fs.registry.files[cap.obj].epoch for cap in caps}
    handles = []
    for cap in caps:
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"grouped")
        handles.append(handle)
    outcomes = fs.commit_group([handle.version for handle in handles])
    assert all(v == "committed" for v in outcomes.values())
    for cap in caps:
        assert fs.registry.files[cap.obj].epoch == epochs[cap.obj] + 1


def test_read_current_is_one_call_and_grants_a_lease(fs):
    cap = fs.create_file(b"cold data")
    data, current, lease, discards = fs.read_current(cap, ROOT, lease_ticks=LEASE)
    assert data == b"cold data"
    assert discards == []
    assert current.obj == fs.current_version(cap).obj
    assert lease.ttl == LEASE
    assert lease.epoch == fs.registry.files[cap.obj].epoch


def test_read_current_of_an_unknown_cached_version_is_a_cold_read(fs):
    """A cached version the server no longer knows (pruned, or lost with
    a registry restore) cannot be tested: the whole entry is discarded
    and the page sent, as on a cold read."""
    from dataclasses import replace

    cap = fs.create_file(b"data")
    gone = replace(fs.current_version(cap), obj=999_999)
    data, current, _, discards = _renew(fs, cap, gone, epoch=None)
    assert (data, discards) == (b"data", [ROOT])
    assert current.obj == fs.current_version(cap).obj


def test_lease_ttl_clamped_to_server_maximum(fs):
    cap = fs.create_file(b"x")
    cached = fs.current_version(cap)
    fs.max_lease_ticks = 50
    _, _, lease, _ = _renew(fs, cap, cached, epoch=None)
    assert lease.ttl == 50
    _, _, lease, _ = _renew(fs, cap, cached, epoch=None, lease_ticks=-5)
    assert lease.ttl == 0


def test_restored_registry_never_fast_renews(cluster):
    """After a registry restore the server cannot vouch for any epoch it
    hands out (-1 = cannot vouch): a lease carried across the restore
    must take the full validation walk, never the epoch fast path."""
    from repro.core.registry import FileRegistry

    fs = cluster.fs()
    cap = fs.create_file(b"durable")
    cached = fs.current_version(cap)
    checkpoint = FileRegistry()
    checkpoint.restore_from(fs.registry)
    fs.registry.restore_from(checkpoint)
    entry = fs.registry.files[cap.obj]
    assert entry.epoch == -1
    # The restore dropped the version table: re-mint the current version
    # (what a recovering client's first read does), then try to renew a
    # lease carried across the restore with the ambiguous epoch.
    cached = fs.current_version(cap)
    data, _, _, discards = _renew(fs, cap, cached, epoch=-1)
    assert (data, discards) == (None, [])
    assert fs.metrics.lease_fast_renewals == 0  # walked, not fast-pathed
    # The next commit heals the epoch back into vouched-for territory.
    writer = fs.create_version(cap)
    fs.write_page(writer.version, ROOT, b"healed")
    fs.commit(writer.version)
    assert fs.registry.files[cap.obj].epoch >= 1


# ---------------------------------------------------------------------------
# the client: zero-message hot reads, expiry, invalidation
# ---------------------------------------------------------------------------


def test_leased_hot_reads_cost_zero_messages(cluster):
    client = FileClient(
        cluster.network, "host", cluster.service_port, lease_ticks=LEASE
    )
    cap = client.create_file(b"hot")
    assert client.read(cap) == b"hot"  # cold: one read_current round trip
    before = cluster.network.stats.messages
    for _ in range(32):
        assert client.read(cap) == b"hot"
    assert cluster.network.stats.messages == before
    assert client.stats.lease_hits == 32


def test_lease_expiry_triggers_single_renewal(cluster):
    client = FileClient(
        cluster.network, "host", cluster.service_port, lease_ticks=100
    )
    cap = client.create_file(b"data")
    client.read(cap)
    cluster.clock.advance(101)  # the lease dies
    before = cluster.network.stats.messages
    assert client.read(cap) == b"data"
    # One read_current round trip, answered from the file table: no
    # page-tree or version-page read, no page sent.
    assert cluster.network.stats.messages - before == 2
    assert client.stats.lease_expired == 1
    # The renewal granted a fresh lease: reads are free again.
    before = cluster.network.stats.messages
    assert client.read(cap) == b"data"
    assert cluster.network.stats.messages == before


def test_remote_commit_invalidates_leased_cache(cluster2):
    net = cluster2.network
    writer = FileClient(net, "writer", cluster2.service_port)
    reader = FileClient(net, "reader", cluster2.service_port, lease_ticks=100)
    cap = writer.create_file(b"v1")
    assert reader.read(cap) == b"v1"
    writer.transact(cap, lambda u: u.write(ROOT, b"v2"))
    cluster2.clock.advance(101)  # let the reader's lease die
    assert reader.read(cap) == b"v2"  # renewal returns the discard
    assert reader.read(cap) == b"v2"  # and the new lease serves locally


def test_leaseless_client_unchanged(cluster):
    """``lease_ticks=None`` keeps the seed behaviour: every cached read
    still pays its validation round trip."""
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"plain")
    assert client.read(cap) == b"plain"
    before = cluster.network.stats.messages
    assert client.read(cap) == b"plain"
    assert cluster.network.stats.messages > before
    assert client.stats.lease_hits == 0


def test_no_cache_client_ignores_leases(cluster):
    """A client without a cache has nowhere to keep a lease, so it asks
    for none: no server grants it one."""
    client = FileClient(
        cluster.network, "host", cluster.service_port,
        use_cache=False, lease_ticks=LEASE,
    )
    cap = client.create_file(b"uncached")
    for _ in range(5):
        assert client.read(cap) == b"uncached"
    assert client.stats.lease_hits == 0
    assert sum(fs.metrics.leases_granted for fs in cluster.servers) == 0


# ---------------------------------------------------------------------------
# the TOCTOU regression: a commit racing the validation/page-read window
# ---------------------------------------------------------------------------


def _race_the_page_read(cluster2, open_a_version: bool) -> list[str]:
    """A commit landing between the serving server's resolution of the
    current version and its page read must not produce a mixed-version
    entry: the page comes from the version resolution found current,
    which is the version the reply names.  (Regression: the miss path
    fetched from a fresh ``current_version`` call, so the new version's
    page landed in an entry tagged with the validated older cap.)

    Resolution is by the file table while no version of the file is open,
    and by the commit-chain walk while one is (``open_a_version``).
    Returns the resolver the race was injected after."""
    net = cluster2.network
    writer = FileClient(net, "writer", cluster2.service_port)
    reader = FileClient(net, "reader", cluster2.service_port)
    cap = writer.create_file(b"root")
    writer.transact(cap, lambda u: [u.append_page(ROOT, b"old page %d" % i)
                                    for i in range(2)])
    assert reader.read(cap, PagePath.of(0)) == b"old page 0"
    if open_a_version:
        cluster2.fs(0).create_version(cap)  # left open: the table names none

    # Interleave: the writer commits after the serving server resolved
    # the current version and before it reads the page.
    resolvers = ("_trusted_current", "_discards_since")
    raced = []

    def resolve_then_lose_the_race(fs, name):
        original = getattr(fs, name)

        def racing(*args):
            answer = original(*args)
            if answer is not None and not raced:  # race once
                raced.append(name)
                writer.transact(cap, lambda u: u.write(PagePath.of(1), b"NEW page 1"))
            return answer

        return racing

    for fs in cluster2.servers:
        for name in resolvers:
            setattr(fs, name, resolve_then_lose_the_race(fs, name))
    data = reader.read(cap, PagePath.of(1))
    for fs in cluster2.servers:
        for name in resolvers:
            vars(fs).pop(name, None)
    assert reader.read_version(reader.current_version(cap), PagePath.of(1)) == (
        b"NEW page 1"
    )  # the race did happen

    # Whatever the read returned, the cache entry must be internally
    # consistent: every cached page equals that same version's page.
    entry = reader.cache.entry(cap)
    for path in (PagePath.of(0), PagePath.of(1)):
        cached = reader.cache.get(cap, path)
        if cached is not None:
            assert cached == reader.read_version(entry.version_cap, path)
    assert data == b"old page 1"  # the validated snapshot, not the racer's
    return raced


def test_read_fetches_via_validated_version_cap(cluster2):
    """The race after the file table named the current version."""
    assert _race_the_page_read(cluster2, open_a_version=False) == [
        "_trusted_current"
    ]


def test_read_fetches_via_the_walks_version_cap(cluster2):
    """The race after the commit-chain walk found the current version."""
    assert _race_the_page_read(cluster2, open_a_version=True) == [
        "_discards_since"
    ]


def test_fetch_of_pruned_version_falls_back_cold(cluster):
    """If the cached version vanishes (e.g. pruned), the read is answered
    cold: the entry is discarded from the root, not an error."""
    client = FileClient(
        cluster.network, "host", cluster.service_port, lease_ticks=LEASE
    )
    cap = client.create_file(b"v1")
    assert client.read(cap) == b"v1"
    # Corrupt the cached version cap to simulate a pruned version, keep
    # the lease live, and miss on a path that is not in the cache.
    entry = client.cache.entry(cap)
    from dataclasses import replace

    entry.version_cap = replace(entry.version_cap, obj=999_999)
    assert client.read(cap, ROOT) == b"v1"  # ROOT is cached: lease hit
    entry.pages.pop(ROOT)
    assert client.read(cap, ROOT) == b"v1"  # miss -> fallback cold read


def test_leased_cold_read_of_deleted_file_raises_after_one_rpc(cluster):
    """A failed ``read_current`` is the answer: no second, weaker-freshness
    RPC is tried behind the caller's back."""
    client = FileClient(
        cluster.network, "host", cluster.service_port, lease_ticks=LEASE
    )
    cap = client.create_file(b"doomed")
    client.delete_file(cap)
    sent = []
    cluster.network.tracer = lambda sender, dest, payload: (
        sent.append(payload.command) if sender == "host" else None
    )
    with pytest.raises(ReproError):
        client.read(cap)
    assert sent == ["read_current"]


# ---------------------------------------------------------------------------
# the wire: Lease crosses both transports
# ---------------------------------------------------------------------------


def test_lease_wire_roundtrip():
    from repro.net.wire import decode_value, encode_value

    for lease in (Lease(epoch=42, ttl=12345), Lease(epoch=-1, ttl=0)):
        assert decode_value(encode_value(lease)) == lease
    # Nested where the protocol actually carries it: a validated read's
    # reply, whose page stayed home.
    from repro.capability import Capability

    reply = (None, Capability(1, 2, 3, 4), Lease(epoch=7, ttl=300), [])
    assert decode_value(encode_value(reply)) == reply


def test_leased_reads_over_tcp():
    from repro.net import build_tcp_cluster

    cluster = build_tcp_cluster(servers=2, seed=7)
    try:
        writer = cluster.client("writer")
        # TCP clocks are wall-clock microseconds: a 60s lease stays live.
        reader = cluster.client("reader", lease_ticks=60_000_000)
        cap = writer.create_file(b"v1")
        assert reader.read(cap) == b"v1"
        for _ in range(8):
            assert reader.read(cap) == b"v1"
        assert reader.stats.lease_hits == 8
        writer.transact(cap, lambda u: u.write(ROOT, b"v2"))
        # The lease is still live, so the reader may serve b"v1" (bounded
        # staleness) — after forcing a renewal it must see the commit.
        reader.cache.entry(cap).lease_expires = -1
        assert reader.read(cap) == b"v2"
    finally:
        cluster.stop()


# ---------------------------------------------------------------------------
# the staleness bound: checker unit tests and leased soaks
# ---------------------------------------------------------------------------


def _staleness_history(read_tick, ttl):
    from repro.verify.history import HistoryRecorder

    history = HistoryRecorder()
    history.record("create", actor="fs0", file=1, version=10, value=b"v1",
                   tick=0)
    history.record("begin", actor="c1", file=1, version=11, base=10)
    history.record("write", actor="c1", version=11, path=str(ROOT),
                   value=b"v2")
    history.record("commit", actor="c1", file=1, version=11, base=10,
                   tick=50)
    # A lease-served cached read of the superseded version v10.
    history.record("snapshot_read", actor="c1", file=1, version=10,
                   path=str(ROOT), value=b"v1", tick=read_tick, ttl=ttl)
    return history


def test_checker_accepts_read_within_lease_bound():
    from repro.verify.history import check_history

    result = check_history(_staleness_history(read_tick=140, ttl=100))
    assert result.ok, result.violations
    assert result.lease_reads_checked == 1


def test_checker_flags_read_beyond_lease_bound():
    from repro.verify.history import check_history

    result = check_history(_staleness_history(read_tick=200, ttl=100))
    assert not result.ok
    assert any(v.kind == "lease-staleness" for v in result.violations)


def test_checker_skips_unstamped_reads():
    from repro.verify.history import check_history

    history = _staleness_history(read_tick=140, ttl=100)
    history.record("snapshot_read", actor="c2", file=1, version=10,
                   path=str(ROOT), value=b"v1")  # no tick/ttl: pre-lease
    result = check_history(history)
    assert result.ok, result.violations
    assert result.lease_reads_checked == 1


@pytest.mark.parametrize("shards", [1, 2])
def test_leased_soak_holds_staleness_bound(soak_seed, shards):
    from repro.sim.explore import SoakConfig, run_soak

    report = run_soak(SoakConfig(
        seed=soak_seed, ops=250, shards=shards, leases=True, lease_ticks=300,
    ))
    assert report.ok, report.violations()
    assert report.check.lease_reads_checked > 0
