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
