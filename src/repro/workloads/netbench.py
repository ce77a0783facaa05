"""The wire-transport parity gate behind ``BENCH_net.json``.

One fixed mixed workload (commits plus snapshot reads) run *sequentially*
on the simulated network and on the TCP transport.  Sequential execution
makes the message count exact and deterministic, and both must produce
the *same* number: same protocol, same operations, no retries.  A count
drift means the wire protocol grew chatter.

Wall-clock figures for the transport — throughput, latency, reads queued
behind commits — are ``bench/``'s, taken across OS processes.
"""

from __future__ import annotations

from repro.core.pathname import PagePath

ROOT = PagePath.ROOT

PARITY_CLIENTS = 8
PARITY_COMMITS = 2
PARITY_PAGES = 4
PARITY_READS = 50


def _parity_ops(client, index: int) -> None:
    """One client's share of the parity workload."""
    cap = client.create_file(b"parity file %d" % index)

    def fill(update, round_: int) -> None:
        update.write(ROOT, b"round %d root from client %d" % (round_, index))
        for page in range(PARITY_PAGES - 1):
            update.append_page(ROOT, b"round %d page %d" % (round_, page))

    for round_ in range(PARITY_COMMITS):
        client.transact(cap, lambda u, r=round_: fill(u, r))
        for _ in range(PARITY_READS):
            client.snapshot_read(cap)


def _run_parity(network, service_port, make_client) -> int:
    before = network.stats.messages
    for i in range(PARITY_CLIENTS):
        _parity_ops(make_client(i), i)
    return network.stats.messages - before


def parity_sim() -> int:
    from repro.client.api import FileClient
    from repro.testbed import build_cluster

    cluster = build_cluster(servers=2, seed=1985)

    def make_client(i: int) -> FileClient:
        return FileClient(
            cluster.network, f"sim-c{i}", cluster.service_port, use_cache=False
        )

    return _run_parity(cluster.network, cluster.service_port, make_client)


def parity_tcp() -> int:
    from repro.client.api import FileClient
    from repro.net import build_tcp_cluster

    cluster = build_tcp_cluster(servers=2, seed=1985)
    try:

        def make_client(i: int) -> FileClient:
            return FileClient(
                cluster.network, f"tcp-c{i}", cluster.service_port, use_cache=False
            )

        return _run_parity(cluster.network, cluster.service_port, make_client)
    finally:
        cluster.stop()


def run_netbench() -> dict:
    """The full measurement (the body of ``BENCH_net.json``)."""
    sim = parity_sim()
    tcp = parity_tcp()
    return {
        "workload": {
            "parity_clients": PARITY_CLIENTS,
            "parity_commits": PARITY_COMMITS,
            "parity_reads": PARITY_READS,
        },
        "parity": {
            "sim": sim,
            "tcp": tcp,
            # 0 when both transports move the same number of messages
            # for the same workload; gated at exactly zero.
            "mismatch": int(sim != tcp),
        },
    }


# Metrics the bench gate holds against the committed baseline.
GATE = [
    "parity.mismatch",
    "parity.sim",
    "parity.tcp",
]


def netbench_document(schema: int = 1) -> dict:
    """``run_netbench`` in the committed ``BENCH_net.json`` shape."""
    document = run_netbench()
    document["schema"] = schema
    document["gate"] = list(GATE)
    return document
