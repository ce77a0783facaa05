"""The traced run: per-layer metrics and the ledger.

``--trace 1`` reruns a workload in this process at one fifth of its op
counts on ``build_tcp_cluster(servers=1, async_mode=True, backend="disk")``
— the same sockets and code as the daemon, one interpreter — with one
client thread, first untraced (the base for ``trace.overhead_pct``) and
then with every layer's callables wrapped in timers.  Layer names are the
repo's modules.  Counters come from public attributes (``disk.fsyncs``,
``network.stats.messages``, ``PageCache.stats``, ``FileClient.stats``).

Three wraps reach past public names, because the issue's metric names need
the split: ``FDisk._append_records`` and ``FDisk._materialize`` (journal
append vs block-file write) and the ``os`` / ``open`` names ``block.fdisk``
looks up (sync time and file-system calls).
"""

from __future__ import annotations

import builtins
import os
import shutil
import tempfile
import types
from pathlib import Path

from repro.block import fdisk, server, stable
from repro.client import api
from repro.core import service, store
from repro.net import build_tcp_cluster, transport, wire

from bench import host, trace
from bench.calib import REFERENCE_S, Calibrator
from bench.check import Tally
from bench.harness import Result, named_extras
from bench.trace import LAYER, NAME, VALUE, Node, Tracer
from bench.workloads import GROUP_SIZE, VERIFIER_OPTIONS, Recorder, Workload, find_phase

TRACE_SCALE = 0.2
OS_CALLS = ("fsync", "fdatasync", "replace", "open", "close")
SYNC_CALLS = ("os.fsync", "os.fdatasync")
READ_COMMANDS = (
    "cmd_read_page", "cmd_current_version", "cmd_read_current",
    "cmd_renew_lease", "cmd_validate_cache", "cmd_snapshot_read",
)
WRITE_COMMANDS = ("cmd_write_page", "cmd_append_page", "cmd_insert_page")
COMMIT_COMMANDS = ("cmd_commit", "cmd_commit_group")
COMMIT_KINDS = {"commit": 1, "overwrite": 1, "group": GROUP_SIZE}


def install(tracer: Tracer) -> None:
    """Wrap each layer's callables where their names are looked up."""
    size = lambda result, args: len(result)
    for name in ("create_file", "current_version", "read", "read_version",
                 "revalidate", "begin", "commit_group", "transact", "ping"):
        tracer.wrap(api.FileClient, name, "client")
    for name in ("flush", "read", "write", "append_page", "commit", "abort"):
        tracer.wrap(api.ClientUpdate, name, "client", f"update.{name}")

    for name in ("encode_request", "encode_reply", "encode_error"):
        tracer.wrap(wire, name, "net.wire", value=size)
    for name in ("decode_request", "decode_value", "decode_error", "decode_header"):
        tracer.wrap(wire, name, "net.wire")
    tracer.wrap(wire.FrameAssembler, "feed", "net.wire", "decode_feed")

    tracer.wrap(transport.TcpTransaction, "call", "net.transport")
    tracer.wrap(transport.TcpNetwork, "send", "net.transport")
    # The daemon's handler is whatever attach() is given: time that, so a
    # send's self time is sockets, event loop, queueing and lock wait only.
    for network_cls in (transport.TcpNetwork, transport.AsyncTcpNetwork):
        attach = vars(network_cls).get("attach")
        if attach is None:
            tracer.missing.append(f"{network_cls.__name__}.attach")
            continue

        def traced_attach(self, name, handler, _attach=attach):
            return _attach(self, name, tracer.timed(handler, "net.transport", "dispatch"))

        tracer.replace(network_cls, "attach", traced_attach)

    for name in (n for n in dir(service.FileService) if n.startswith("cmd_")):
        tracer.wrap(service.FileService, name, "core.service")
    for name in ("serialise", "serialise_through", "collect_write_paths"):
        tracer.wrap(service, name, "core.occ")
    for name in ("load", "store_new", "store_in_place", "flush_one", "free",
                 "tas_commit_ref", "read_commit_ref", "rewrite_version_page"):
        tracer.wrap(store.PageStore, name, "core.store")
    tracer.wrap(store.PageStore, "flush", "core.store", value=lambda result, args: result)

    for name in (n for n in dir(stable.StableServer) if n.startswith("cmd_")):
        tracer.wrap(stable.StableServer, name, "block.stable")
    for name in ("allocate", "write", "allocate_write", "write_many", "read",
                 "free", "test_and_set", "lock", "unlock"):
        tracer.wrap(server.BlockServer, name, "block.server")

    for name in ("write", "write_many", "read", "erase", "set_owner", "clear_owner",
                 "add_intention", "ack_intentions", "sync_journal", "checkpoint",
                 "_materialize"):
        tracer.wrap(fdisk.FDisk, name, "block.fdisk")
    tracer.wrap(fdisk.FDisk, "__init__", "block.fdisk", "open_disk")
    tracer.wrap(
        fdisk.FDisk, "_append_records", "block.fdisk",
        value=lambda result, args: sum(len(body) + 8 for body in args[1]),
    )
    # block.fdisk looks `os` and `open` up in its module globals: give it a
    # namespace whose file-system calls are timed, and leave `os` itself be.
    traced_os = types.SimpleNamespace(**{k: getattr(os, k) for k in dir(os)})
    for name in OS_CALLS:
        setattr(traced_os, name, tracer.timed(getattr(os, name), "block.fdisk", f"os.{name}"))
    tracer.replace(fdisk, "os", traced_os)
    tracer.replace(fdisk, "open", tracer.timed(builtins.open, "block.fdisk", "open"))


class InProcess:
    """The deployment of a traced run: an in-process TCP cluster."""

    def __init__(self, data_dir: str, workload: Workload) -> None:
        self.data_dir = data_dir
        self.workload = workload
        self.cluster = None
        self.table_block = None

    def start(self) -> "InProcess":
        self.cluster = build_tcp_cluster(
            servers=1, async_mode=True, seed=self.workload.seed,
            backend="disk", data_dir=self.data_dir,
        )
        return self

    def client(self, node: str, **options):
        return self.cluster.client(node, **options)

    def restart(self) -> None:
        """What the daemon does across ``kill -9``: checkpoint the file
        table, drop everything in memory, rebuild from the data directory."""
        self.table_block = self.cluster.fs().checkpoint_registry(self.table_block)
        self.cluster.stop()
        self.start()
        self.cluster.fs().restore_registry(self.table_block)

    def counters(self) -> dict[str, float]:
        """Public counters the per-layer ratios are differences of."""
        disks = (self.cluster.pair.disk_a, self.cluster.pair.disk_b)
        cache = self.cluster.fs().store.cache.stats
        return {
            "messages": self.cluster.network.stats.messages,
            "fsyncs": sum(d.fsyncs for d in disks),
            "compactions": sum(d.journal_compactions for d in disks),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        }

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def _pass(workload_cls, seed, scale, run_dir, label, tally, calibrator, tracer=None):
    """One in-process pass: preload, run, return (deployment, recorder, deltas)."""
    workload = workload_cls(seed, scale)
    workload.threads = 1  # one operation's RPC chain must nest in time
    deployment = InProcess(os.path.join(run_dir, label), workload).start()
    try:
        clients = [deployment.client("bench-0", **workload.client_options)]
        workload.preload(clients[0])
        recorder = Recorder(tally, tracer, calibrator)
        before: dict[str, float] = {}
        after: dict[str, float] = {}

        def start() -> None:
            before.update(deployment.counters())
            if tracer is not None:
                tracer.active = True

        def end() -> None:
            if tracer is not None:
                tracer.active = False
            after.update(deployment.counters())

        recorder.on_measure_start, recorder.on_measure_end = start, end
        workload.run(clients, recorder)
        workload.client_stats = [client.stats for client in clients]
        delta = {key: after[key] - before[key] for key in after}
    except BaseException:
        deployment.close()
        raise
    return deployment, recorder, delta


def run_traced(workload_cls: type[Workload], seed: int, scale: float, out_dir: Path) -> Result:
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="trace-", dir=out_dir)
    scale *= TRACE_SCALE
    tally = Tally()
    result = Result(workload_cls.name, seed, scale, traced=True, tally=tally)
    tracer = Tracer()
    deployment = None
    try:
        result.spin_before = host.spin_kops()
        machine = {
            "host.fdatasync_us": host.fdatasync_us(run_dir),
            "host.loopback_rtt_us": host.loopback_rtt_us(),
        }
        install(tracer)
        calibrator = Calibrator()
        deployment, recorder, delta = _pass(
            workload_cls, seed, scale, run_dir, "traced", tally, calibrator, tracer
        )
        workload = deployment.workload
        # Same wrapped code, timers off: the base for the tracing overhead.
        # It runs second, so a cold start counts against tracing, not for it.
        plain, plain_recorder, _ = _pass(
            workload_cls, seed, scale, run_dir, "plain", tally, calibrator
        )
        plain.close()

        # Restart in-process and read everything back cold, still traced:
        # journal replay and block-file reads only happen here.
        tracer.active = True
        deployment.restart()
        verifier = deployment.client("bench-verify", **VERIFIER_OPTIONS)
        recorder.begin_phase("cold0")
        workload.verify(verifier, recorder, "cold")
        recorder.end_phase()
        tracer.active = False
        replayed = sum(
            d.recovered_records
            for d in (deployment.cluster.pair.disk_a, deployment.cluster.pair.disk_b)
        )

        result.phases = recorder.phases
        trees = trace.build_trees(tracer.spans)
        result.metrics = per_layer(
            tracer, trees, workload, recorder, plain_recorder, calibrator, delta, replayed
        )
        result.metrics.update(machine)
        result.extras.update(named_extras(recorder.phases, workload))
        result.extras["wraps_missing"] = tracer.missing
        book = _ledger(trees, workload)
        result.metrics["ledger.coverage_pct"] = book.coverage_pct
        result.extras["ledger"] = book.render()
        tracer.dump(
            out_dir / f"trace-{workload.name}.json",
            workload=workload.name, seed=seed, scale=scale,
        )
    finally:
        tracer.active = False
        tracer.unwrap_all()
        if deployment is not None:
            deployment.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    result.spin_after = host.spin_kops()
    result.metrics["host.spin_kops"] = (result.spin_before + result.spin_after) / 2
    return result


def _ledger(all_trees: list[Node], workload: Workload) -> trace.Ledger:
    """The ledger over the workload's primary operations."""
    primary = workload.primary_kinds
    trees = [t for t in all_trees if t.name in primary]
    return trace.ledger(f"{workload.name} ({'/'.join(sorted(primary))})", trees)


def per_layer(
    tracer: Tracer,
    all_trees: list[Node],
    workload: Workload,
    recorder: Recorder,
    plain_recorder: Recorder,
    calibrator: Calibrator,
    delta: dict[str, float],
    replayed: int,
) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload never enters the layer."""
    trees = [t for t in all_trees if t.name != "cold"]
    ops = len(trees)
    commits = sum(COMMIT_KINDS.get(t.name, 0) for t in trees)
    reads = [t for t in trees if t.name == "read"]
    payload = sum(p.payload for p in recorder.phases if not p.name.startswith("cold"))

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    nodes = [node for tree in trees for node in tree.walk()]

    def pick(layer: str, names=None, where=nodes) -> list[Node]:
        return [
            n for n in where
            if n.layer == layer and (names is None or n.name in names)
        ]

    def self_s(picked: list[Node]) -> float:
        return sum(n.self_s for n in picked)

    def total_s(picked: list[Node]) -> float:
        return sum(n.seconds for n in picked)

    client_thread = trees[0].span[trace.THREAD] if trees else None
    calls = pick("net.transport", ("call",))
    client_calls = [n for n in calls if n.span[trace.THREAD] == client_thread]
    retries = sum(
        max(0, sum(1 for c in n.children if c.name == "send") - 1) for n in calls
    )
    encodes = [n for n in pick("net.wire") if n.name.startswith("encode")]
    decodes = [n for n in pick("net.wire") if n.name.startswith("decode")]
    read_nodes = [n for t in reads for n in t.walk() if n.layer == "core.service"]
    serialises = pick("core.occ", ("serialise", "serialise_through"))
    flushes = pick("core.store", ("flush",))
    fs_calls = [n for n in pick("block.fdisk") if n.name.startswith("os.") or n.name == "open"]
    checkpoints = pick("block.fdisk", ("checkpoint",))
    every_node = [node for tree in all_trees for node in tree.walk()]
    disk_reads = pick("block.fdisk", ("read",), every_node)
    disk_opens = [s for s in tracer.spans if s[LAYER] == "block.fdisk" and s[NAME] == "open_disk"]
    client_stats = workload.client_stats
    stat = lambda name: sum(getattr(s, name) for s in client_stats)
    cache_lookups = delta["cache_hits"] + delta["cache_misses"]

    traced_phase = find_phase(recorder.phases, workload.primary)
    plain_phase = find_phase(plain_recorder.phases, workload.primary)
    # Rates at the reference host speed: the two passes run at different times.
    slow_traced = calibrator.slowness(traced_phase.start, traced_phase.end)
    plain_rate = plain_phase.ops / plain_phase.busy_seconds() * calibrator.slowness(
        plain_phase.start, plain_phase.end
    )
    traced_rate = traced_phase.ops / traced_phase.busy_seconds() * slow_traced

    return {
        "client.rpcs_per_op": per(len(client_calls), ops),
        "client.self_ms_per_op": per(1e3 * self_s(pick("client")), ops),
        "client.redo_per_commit": per(stat("redos"), stat("commits")),
        "client.cache_hit_ratio": per(stat("cache_hits"), len(reads)),
        "client.lease_hit_ratio": per(stat("lease_hits"), len(reads)),
        "net.wire.encode_us_per_op": per(1e6 * self_s(encodes), ops),
        "net.wire.decode_us_per_op": per(1e6 * self_s(decodes), ops),
        "net.wire.frames_per_op": per(len(encodes), ops),
        "net.wire.bytes_per_user_byte": per(sum(n.span[VALUE] for n in encodes), payload),
        "net.transport.messages_per_op": per(delta["messages"], ops),
        "net.transport.overhead_ms_per_op": per(1e3 * self_s(pick("net.transport")), ops),
        "net.transport.retries_per_op": per(retries, ops),
        "core.service.begin_self_ms": per(
            1e3 * self_s(pick("core.service", ("cmd_create_version",))), commits),
        "core.service.write_self_ms": per(
            1e3 * self_s(pick("core.service", WRITE_COMMANDS)), commits),
        "core.service.commit_self_ms": per(
            1e3 * self_s(pick("core.service", COMMIT_COMMANDS)), commits),
        "core.service.read_self_ms": per(
            1e3 * self_s([n for n in read_nodes if n.name in READ_COMMANDS]), len(reads)),
        "core.occ.serialise_calls_per_commit": per(len(serialises), commits),
        "core.occ.serialise_ms_per_commit": per(1e3 * total_s(serialises), commits),
        "core.occ.conflict_ratio": per(stat("conflicts"), stat("commits") + stat("conflicts")),
        "core.store.flush_ms_per_commit": per(1e3 * total_s(flushes), commits),
        "core.store.pages_flushed_per_commit": per(sum(n.span[VALUE] for n in flushes), commits),
        "core.store.load_ms_per_op": per(1e3 * total_s(pick("core.store", ("load",))), ops),
        "core.store.page_cache_hit_ratio": per(delta["cache_hits"], cache_lookups),
        "block.stable.messages_per_commit": per(2 * len(pick("block.stable")), commits),
        "block.stable.self_ms_per_commit": per(1e3 * self_s(pick("block.stable")), commits),
        "block.server.self_ms_per_op": per(1e3 * self_s(pick("block.server")), ops),
        "block.fdisk.fsyncs_per_commit": per(delta["fsyncs"], commits),
        "block.fdisk.sync_ms_per_commit": per(
            1e3 * total_s([n for n in fs_calls if n.name in SYNC_CALLS]), commits),
        "block.fdisk.append_ms_per_commit": per(
            1e3 * self_s(pick("block.fdisk", ("_append_records",))), commits),
        "block.fdisk.materialize_ms_per_commit": per(
            1e3 * total_s(pick("block.fdisk", ("_materialize",))), commits),
        "block.fdisk.syscalls_per_commit": per(len(fs_calls), commits),
        "block.fdisk.journal_bytes_per_user_byte": per(
            sum(n.span[VALUE] for n in pick("block.fdisk", ("_append_records",))), payload),
        "block.fdisk.compactions": delta["compactions"],
        "block.fdisk.compaction_stall_ms_max": 1e3 * max(
            (n.seconds for n in checkpoints), default=0.0),
        "block.fdisk.read_us_per_block": per(1e6 * total_s(disk_reads), len(disk_reads)),
        "block.fdisk.replay_records_per_s": per(
            replayed, sum(s[trace.END] - s[trace.START] for s in disk_opens)),
        "host.calib_us": 1e6 * slow_traced * REFERENCE_S,
        "trace.overhead_pct": 100.0 * (plain_rate - traced_rate) / plain_rate,
    }
