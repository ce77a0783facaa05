"""The durable-disk benchmark behind ``BENCH_disk.json``.

Two passes of the same commit workload on a file-backed (``FDisk``)
deployment, varying only how commits are settled:

* **untuned** — one commit at a time, the seed path: every commit pays
  its own journal syncs on both halves of the stable pair.
* **grouped8** — the same commits through ``commit_group`` in fixed
  batches of :data:`FIXED_BATCH`.  The batch size is a constant, so the
  sync/write/message counters are deterministic — this is the pass the
  CI gate holds.

Before both, the probe times every durable primitive the platform
offers (fsync / fdatasync / O_DSYNC) and the journal sync is retargeted
at the cheapest eligible one (:func:`tune_journal_sync`); those costs
and the commits/sec columns are wall-clock, reported and never gated.
The gated claim: the grouped pass keeps moving fewer fsyncs, stable
writes and messages than the untuned pass.
"""

from __future__ import annotations

import tempfile
import time

from repro.core.pathname import PagePath

ROOT = PagePath.ROOT

# The fixed-size pass gated by CI, and the shared workload length.
FIXED_BATCH = 8
N_COMMITS = 48


def _run_pass(batch: int, data_dir: str, seed: int = 29) -> dict:
    """Settle ``N_COMMITS`` non-conflicting updates in batches of
    ``batch`` (1 = individual commits) on a disk-backed single pair;
    returns wall seconds plus the deterministic cost counters."""
    from repro.client.api import FileClient
    from repro.testbed import build_cluster

    cluster = build_cluster(
        servers=1, seed=seed, data_dir=data_dir
    )
    client = FileClient(
        cluster.network, "diskbench", cluster.service_port, use_cache=False
    )
    cap = client.create_file(b"base")
    setup = client.begin(cap)
    paths = [setup.append_page(ROOT, b"init") for _ in range(max(batch, 1))]
    setup.commit()
    client.prefer_server = client.ping()

    disks = [cluster.pair.disk_a, cluster.pair.disk_b]
    fsyncs = sum(d.fsyncs for d in disks)
    writes = sum(d.stats.writes for d in disks)
    messages = cluster.network.stats.messages
    start = time.perf_counter()
    done = 0
    round_ = 0
    while done < N_COMMITS:
        updates = []
        for i in range(min(batch, N_COMMITS - done)):
            update = client.begin(cap)
            update.write(paths[i], b"r%d.%d" % (round_, i))
            updates.append(update)
        if len(updates) == 1:
            updates[0].commit()
        else:
            outcomes = client.commit_group(updates)
            assert all(
                v.startswith("committed") for v in outcomes.values()
            ), outcomes
        done += len(updates)
        round_ += 1
    seconds = time.perf_counter() - start
    result = {
        "batch": batch,
        "commits": N_COMMITS,
        "fsyncs": sum(d.fsyncs for d in disks) - fsyncs,
        "stable_writes": sum(d.stats.writes for d in disks) - writes,
        "messages": cluster.network.stats.messages - messages,
        "seconds": round(seconds, 4),
        "commits_per_sec": round(N_COMMITS / seconds, 1),
    }
    cluster.close()
    return result


def run_diskbench() -> dict:
    """The full measurement (the body of ``BENCH_disk.json``)."""
    from repro.block.fdisk import FDisk, tune_journal_sync

    previous_primitive = FDisk.sync_primitive
    try:
        with tempfile.TemporaryDirectory(prefix="repro-diskbench-") as base:
            # Probe every durable primitive the medium offers and point
            # the journal sync at the cheapest one.
            primitive, costs = tune_journal_sync(base)
            untuned = _run_pass(1, f"{base}/untuned")
            grouped = _run_pass(FIXED_BATCH, f"{base}/grouped")
    finally:
        FDisk.sync_primitive = previous_primitive

    return {
        "untuned": untuned,
        "grouped8": grouped,
        "tuning": {
            "sync_cost_us": round(costs[primitive] * 1e6, 1),
            "sync_primitive": primitive,
            "primitives_us": {
                name: round(cost * 1e6, 1) for name, cost in costs.items()
            },
        },
    }


# Deterministic counters the bench gate holds: batching must keep paying
# fewer syncs/writes/messages for the same committed work.
GATE = [
    "untuned.fsyncs",
    "untuned.messages",
    "grouped8.fsyncs",
    "grouped8.stable_writes",
    "grouped8.messages",
]

# Wall-clock leaves/subtrees: recorded as the claim's evidence, but not
# regenerable bit-for-bit (real fsync latency, real clocks).
WALLCLOCK = [
    "untuned.seconds",
    "untuned.commits_per_sec",
    "grouped8.seconds",
    "grouped8.commits_per_sec",
    "tuning",
]


def diskbench_document(schema: int = 1) -> dict:
    """``run_diskbench`` in the committed ``BENCH_disk.json`` shape."""
    document = run_diskbench()
    document["schema"] = schema
    document["gate"] = list(GATE)
    document["wallclock"] = list(WALLCLOCK)
    return document
