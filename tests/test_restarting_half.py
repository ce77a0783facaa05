"""A restarted half that has not resynced yet refuses every request — it
"restores its disk before accepting any requests" (§4) — and its shard
keeps serving through the companion, on the simulator and over sockets."""

import pytest

from repro.core.pathname import PagePath
from repro.net import build_tcp_cluster
from repro.obs import Recorder
from repro.testbed import build_cluster
from repro.tools.check import CheckReport, check_pairs

ROOT = PagePath.ROOT


@pytest.fixture(params=["sim", "tcp"])
def cluster(request):
    build = build_cluster if request.param == "sim" else build_tcp_cluster
    cluster = build(seed=7, recorder=Recorder())
    yield cluster
    cluster.close()


def test_a_restarted_half_does_not_block_its_shard(cluster):
    client = cluster.client("host", use_cache=False)
    caps = [client.create_file(b"file %d" % i) for i in range(3)]
    half = cluster.pair.a  # first in the failover order
    half.crash()
    half.restart()
    assert not half.available
    for i, cap in enumerate(caps):
        client.transact(cap, lambda u, i=i: u.write(ROOT, b"restarted %d" % i))
    cluster.fs().store.cache.clear()  # every read below reaches the pair
    for i, cap in enumerate(caps):
        assert client.read(cap) == b"restarted %d" % i
    assert cluster.recorder.metrics.counters["rpc.failovers"].value > 0

    assert half.resync() > 0  # the companion kept intentions for it
    report = CheckReport()
    check_pairs(cluster, report)
    assert report.ok and not report.warnings, report.errors + report.warnings
    for i, cap in enumerate(caps):
        assert client.read(cap) == b"restarted %d" % i


@pytest.mark.parametrize("power_loss", [False, True], ids=["death", "power"])
def test_a_half_crash_reopens_its_disk_and_recovers_the_journal(power_loss):
    """A crashed half keeps nothing in memory: its restart reopens the disk,
    recovery replays the journal, and the owner map comes back from it."""
    cluster = build_cluster(seed=7)
    client = cluster.client("host", use_cache=False)
    for i in range(3):
        cap = client.create_file(b"file %d" % i)
        client.transact(cap, lambda u, i=i: u.write(ROOT, b"v2 of %d" % i))
    half, before = cluster.pair.a, cluster.pair.disk_a
    owners = {b: half.local.owner_of(b) for b in half.local.allocated_blocks()}
    half.crash(power_loss=power_loss)
    half.restart()
    assert cluster.pair.disk_a is not before
    assert cluster.pair.disk_a.recovered_records > len(owners)
    assert {b: half.local.owner_of(b) for b in half.local.allocated_blocks()} == owners
    assert half.resync() == 0
    report = CheckReport()
    check_pairs(cluster, report)
    assert report.ok and not report.warnings, report.errors + report.warnings


def test_intentions_outlive_the_crash_of_the_half_that_kept_them():
    """B is down, so A keeps intentions for it; A then loses power before
    B is back.  A's journal gives the list back, and B's resync replays
    every write it missed."""
    cluster = build_cluster(seed=7)
    client = cluster.client("host", use_cache=False)
    caps = [client.create_file(b"file %d" % i) for i in range(3)]
    a, b = cluster.pair.a, cluster.pair.b
    b.crash()
    for i, cap in enumerate(caps):
        client.transact(cap, lambda u, i=i: u.write(ROOT, b"while B was down %d" % i))
    a.crash(power_loss=True)
    a.restart()
    b.restart()
    assert b.resync() > 0
    assert a.resync() == 0
    report = CheckReport()
    check_pairs(cluster, report)
    assert report.ok and not report.warnings, report.errors + report.warnings
    cluster.fs().store.cache.clear()
    for i, cap in enumerate(caps):
        assert client.read(cap) == b"while B was down %d" % i
