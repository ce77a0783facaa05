"""Sim wire versus real wire: the same workload over the simulated
network and over localhost TCP daemons.

Table: per-commit wall-clock latency (mean / p95) and message counts for
K transacted writes, each followed by R reads from an uncached client and
R from a cached one, on a 2-file-server deployment, sim versus TCP.  The
cached reader prefers the other file server, so its validations are
delegated across the two.  The message-count parity column is the point:
both networks count two messages per exchange and run the same client and
service code, so the TCP transport speaks exactly the RPC sequence the
simulation predicts — the wire changed, the protocol did not.
"""

from __future__ import annotations

import time

from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.net import build_tcp_cluster
from repro.obs import Recorder
from repro.testbed import build_cluster

ROOT = PagePath.ROOT

COMMITS = 20
READS = 5


def _workload(writer, reader, cap):
    """K committed writes, each read back R times by both clients;
    returns per-commit wall latencies (seconds)."""
    latencies = []
    for i in range(COMMITS):
        start = time.perf_counter()
        writer.transact(cap, lambda u, i=i: u.write(ROOT, b"commit %d" % i))
        latencies.append(time.perf_counter() - start)
        for _ in range(READS):
            assert writer.read(cap) == b"commit %d" % i
            assert reader.read(cap) == b"commit %d" % i
    return latencies


def _run_sim():
    recorder = Recorder()
    cluster = build_cluster(servers=2, seed=7, recorder=recorder)
    writer = FileClient(cluster.network, "bench", cluster.service_port,
                        use_cache=False)
    reader = FileClient(cluster.network, "reader", cluster.service_port,
                        prefer_server="fs1")
    cap = writer.create_file(b"base")
    before = cluster.network.stats.messages
    latencies = _workload(writer, reader, cap)
    return latencies, cluster.network.stats.messages - before


def _run_tcp():
    recorder = Recorder()
    cluster = build_tcp_cluster(servers=2, seed=7, recorder=recorder)
    try:
        writer = cluster.client("bench", use_cache=False)
        reader = cluster.client("reader", prefer_server="fs1")
        cap = writer.create_file(b"base")
        before = cluster.network.stats.messages
        latencies = _workload(writer, reader, cap)
        retries = recorder.metrics.counters.get("rpc.sweeps")
        return (
            latencies,
            cluster.network.stats.messages - before,
            0 if retries is None else retries.value,
        )
    finally:
        cluster.stop()


def _stats(latencies):
    ordered = sorted(latencies)
    mean = sum(ordered) / len(ordered)
    p95 = ordered[int(0.95 * (len(ordered) - 1))]
    return mean * 1e6, p95 * 1e6  # microseconds


def test_tcp_transport_matches_sim_message_counts(benchmark, report):
    sim_lat, sim_msgs = _run_sim()
    sim_mean, sim_p95 = _stats(sim_lat)

    report.row(
        f"{COMMITS} transacted writes, each read {READS}x uncached and "
        f"{READS}x cached, 2 file servers:"
    )
    report.row(
        f"{'wire':<6} {'msgs':>6} {'msgs/commit':>12} "
        f"{'mean us':>9} {'p95 us':>9}"
    )
    report.row(
        f"{'sim':<6} {sim_msgs:>6} {sim_msgs / COMMITS:>12.1f} "
        f"{sim_mean:>9.0f} {sim_p95:>9.0f}"
    )
    tcp_lat, tcp_msgs, tcp_retries = _run_tcp()
    tcp_mean, tcp_p95 = _stats(tcp_lat)
    report.row(
        f"{'tcp':<6} {tcp_msgs:>6} {tcp_msgs / COMMITS:>12.1f} "
        f"{tcp_mean:>9.0f} {tcp_p95:>9.0f}"
    )
    report.row(
        f"tcp wall overhead vs in-process sim: {tcp_mean / sim_mean:.1f}x mean"
    )

    # Parity: same protocol, same number of request/reply exchanges —
    # a busy retry would add its retransmissions, and none may happen.
    assert tcp_retries == 0
    assert tcp_msgs == sim_msgs, f"sim={sim_msgs} tcp={tcp_msgs}"
    # Real sockets are slower than in-process calls, but a localhost
    # commit must stay well under a millisecond-scale budget.
    assert tcp_p95 < 0.25 * 1e6  # 250 ms, generous against CI noise

    benchmark(lambda: _run_tcp())
