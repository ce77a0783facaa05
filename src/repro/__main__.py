"""``python -m repro`` — a guided tour of the reproduction.

Subcommands:

* ``demo``   (default) — build a deployment, run the paper's core loop,
  crash things, and show the family tree and fsck output.
* ``fsck``   — build a busy deployment and run the invariant checker.
* ``salvage`` — demonstrate total-loss recovery from the block layer.
* ``stats [K]`` — run an instrumented deployment and print the observability
  report: metrics, the commit-path table (fast versus serialise), per-commit
  span trees, and a ``K``-shard section (default 4).  See docs/OBSERVABILITY.md.
* ``soak``   — deterministic randomised soak under fault injection with
  serializability history checking.  ``--seed N`` (or ``--seed A..B`` for
  a range), ``--ops M``, ``--mutant``.  Each seed draws its topology,
  client count and features — group commit, read leases, hot-directory
  contention with or without semantic merges, the durable file-backed
  disk, a live shard rebalance — and its summary line names them.
  Exits nonzero and prints the replay command on any violation.  See
  docs/SIMULATION.md.
* ``cluster`` — operator verbs over a demo sharded deployment with a
  discovery service attached: ``status`` (placement map + daemon
  directory), ``split`` (split one shard's range at its capacity
  boundary), ``migrate`` (live-migrate one shard to a fresh pair while a
  workload runs).  ``--shards K``, ``--seed S``, ``--index I`` pick the
  topology and the shard operated on.  See docs/DISCOVERY.md.
* ``serve``  — host the whole deployment as real TCP daemons on
  localhost (``--servers N``, ``--shards K``, ``--seed S``, ``--host``).
  ``--data-dir PATH`` puts block storage on real files (the durable
  ``block/fdisk.py`` backend): every acknowledged write survives process
  death, the file table is checkpointed to disk, and serving again with
  the same ``--data-dir`` and ``--seed`` recovers files, capabilities and
  intentions lists by journal replay.  See docs/DURABILITY.md.
  Prints a ``REPRO_SPEC=...`` line other processes hand to ``repro
  connect``, then serves until interrupted.  ``--smoke`` instead runs a
  history-checked workload over the sockets — killing one stable-pair
  daemon mid-workload — and exits 0 iff failover worked and the recorded
  history is serializable.  See docs/NETWORKING.md.
* ``connect`` — join a served deployment by spec string and run a small
  round-trip workload (create, commit, read back) as a separate-process
  client.  With ``--bootstrap`` (serve side: ``--discovery``) only the
  spec's ``discovery`` entry is used: the client bootstraps the service
  port and every daemon address from the discovery registry.
"""

from __future__ import annotations

import inspect
import sys
from typing import Callable

from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.testbed import build_cluster
from repro.tools.check import CheckReport, check_cluster, check_pairs
from repro.tools.inspect import dump_family, dump_page_tree

ROOT = PagePath.ROOT


def _demo() -> None:
    print("Amoeba File Service reproduction — demo\n")
    cluster = build_cluster(servers=2, seed=1985)
    client = FileClient(cluster.network, "demo-host", cluster.service_port)

    print("1. create a file and update it through versions")
    cap = client.create_file(b"In an open system, several different services")
    client.transact(cap, lambda u: u.write(ROOT, b"may offer the same facilities."))
    update = client.begin(cap)
    update.append_page(ROOT, b"a page of its own")
    update.commit()
    print("   root:", client.read(cap))
    print("   child:", client.read(cap, PagePath.of(0)))

    print("\n2. the version family (Figure 4)")
    fs = cluster.fs()
    print("   " + dump_family(fs, cap).replace("\n", "\n   "))

    print("\n3. the current page tree")
    current_block = fs.family_tree(cap)["current"]
    print("   " + dump_page_tree(fs, current_block).replace("\n", "\n   "))

    print("\n4. crash a server mid-update; nothing needs recovery")
    doomed = fs.create_version(cap)
    fs.write_page(doomed.version, ROOT, b"never to be seen")
    fs.crash()
    print("   fs0 crashed; reading via the replica:", client.read(cap))
    client.transact(cap, lambda u: u.write(ROOT, b"redone through fs1"))
    print("   update redone:", client.read(cap))
    fs.restart()

    print("\n5. fsck")
    report = check_cluster(cluster)
    print("   " + report.summary())
    print("\ndone — see examples/ for more, and EXPERIMENTS.md for the numbers")


def _fsck() -> None:
    cluster = build_cluster(servers=2, seed=7)
    client = FileClient(cluster.network, "host", cluster.service_port)
    caps = [client.create_file(b"f%d" % i) for i in range(5)]
    for round_ in range(3):
        for cap in caps:
            client.transact(
                cap, lambda u, r=round_: u.write(ROOT, b"round %d" % r)
            )
    cluster.gc().collect()
    report = check_cluster(cluster, gc_expected_clean=True)
    print(report.summary())
    for line in report.errors:
        print("ERROR:", line)
    for line in report.warnings:
        print("warning:", line)
    sys.exit(0 if report.ok else 1)


def _salvage() -> None:
    from repro.capability import CapabilityIssuer
    from repro.core.registry import FileRegistry
    from repro.core.service import FileService
    from repro.tools.salvage import salvage

    cluster = build_cluster(seed=4)
    fs = cluster.fs()
    for i in range(3):
        cap = fs.create_file(b"precious data %d" % i)
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"precious data %d, revised" % i)
        fs.commit(handle.version)
    fs.store.flush()
    print("3 files written; now every server loses all memory...")
    fs.crash()
    reborn = FileService(
        "reborn",
        cluster.network,
        FileRegistry(),
        CapabilityIssuer(cluster.service_port),
        cluster.block_port,
        account=1,
    )
    report = salvage(reborn)
    print(
        f"salvage scanned {report.blocks_scanned} blocks, found "
        f"{report.version_pages} version pages, recovered "
        f"{report.files_recovered} files:"
    )
    for obj, cap in sorted(report.files.items()):
        data = reborn.read_page(reborn.current_version(cap), ROOT)
        print(f"  file {obj}: {data!r}")


def _stats(shards: int = 4) -> None:
    from repro.obs import Recorder
    from repro.obs.report import (
        render_commit_table,
        render_metrics,
        render_shard_table,
        render_span,
    )
    recorder = Recorder()
    cluster = build_cluster(servers=2, seed=11, recorder=recorder)
    fs = cluster.fs()

    # A non-concurrent update: the one-block fast path.
    cap = fs.create_file(b"instrumented file")
    handle = fs.create_version(cap)
    fs.write_page(handle.version, ROOT, b"fast-path update")
    fs.commit(handle.version)

    # Two concurrent disjoint updates: the second takes the serialise path.
    handle = fs.create_version(cap)
    fs.append_page(handle.version, ROOT, b"page 0")
    fs.append_page(handle.version, ROOT, b"page 1")
    fs.commit(handle.version)
    first = fs.create_version(cap)
    second = fs.create_version(cap)
    fs.write_page(first.version, PagePath.of(0), b"page 0, via first")
    fs.write_page(second.version, PagePath.of(1), b"page 1, via second")
    fs.commit(first.version)
    fs.commit(second.version)  # base moved: serialise, then merge-commit

    # A genuine conflict: reader of a page the winner wrote.
    first = fs.create_version(cap)
    second = fs.create_version(cap)
    fs.write_page(first.version, PagePath.of(0), b"winner writes 0")
    fs.read_page(second.version, PagePath.of(0))
    fs.commit(first.version)
    try:
        fs.commit(second.version)
    except Exception as exc:
        print(f"(conflicting commit aborted as expected: {exc})\n")

    # Two concurrent updates of one merge-typed directory: distinct
    # names, so the semantic-merge layer commits both instead of
    # aborting the loser (``merge.applied`` in the metrics below).
    from repro.apps.directory import _pack_table, _unpack_table

    dcap = fs.create_file(_pack_table({}), mergeable=True)
    first = fs.create_version(dcap)
    second = fs.create_version(dcap)
    table = _unpack_table(fs.read_page(first.version, ROOT))
    table["alpha"] = dcap
    fs.write_page(first.version, ROOT, _pack_table(table))
    table = _unpack_table(fs.read_page(second.version, ROOT))
    table["beta"] = dcap
    fs.write_page(second.version, ROOT, _pack_table(table))
    fs.commit(first.version)
    fs.commit(second.version)  # concurrent bind: reconciled, not aborted
    merged = _unpack_table(fs.read_page(fs.current_version(dcap), ROOT))
    print(
        f"(merge-typed directory reconciled concurrent binds "
        f"{sorted(merged)}: {fs.metrics.semantic_merges} semantic "
        f"merge(s), {fs.metrics.merge_conflicts} merge conflict(s))\n"
    )

    print("metrics")
    print("=======")
    print(render_metrics(recorder.metrics))
    print()
    print("commit paths")
    print("============")
    print(render_commit_table(recorder.tracer))
    print()
    print("per-commit span trees")
    print("=====================")
    for span in recorder.tracer.spans_named("commit"):
        print(render_span(span))
        print()

    # A sharded deployment: the same workload shape, block storage spread
    # over K companion pairs (``repro stats [K]``).
    sharded_recorder = Recorder()
    sharded = build_cluster(shards=shards, seed=11, recorder=sharded_recorder)
    fs = sharded.fs()
    for i in range(8):
        cap = fs.create_file(b"sharded file %d" % i)
        handle = fs.create_version(cap)
        fs.append_page(handle.version, ROOT, b"a page on some shard")
        fs.commit(handle.version)

    print(f"sharded deployment ({shards} shards)")
    print("=" * (22 + len(str(shards))))
    print(render_shard_table(sharded_recorder.metrics))
    print()
    counts = sharded.shards.allocation_counts()
    print("blocks allocated per shard:", counts)

    # Live-migrate shard 0 to a fresh pair and show the reshape in the
    # placement table: one epoch bump (1 -> 2), the streamed page count,
    # and zero aborts.  The files written above must still read back.
    from repro.capability import new_port
    from repro.obs.report import render_placement_table

    epoch_before = sharded.shards.placement.epoch
    report = sharded.shards.migrate(0, new_port(sharded.rng))
    print()
    print("placement / rebalance (after live-migrating shard 0)")
    print("====================================================")
    print(render_placement_table(sharded_recorder.metrics))
    print(
        f"placement epoch {epoch_before} -> {report.epoch}; "
        f"{report.blocks_streamed} blocks streamed, "
        f"{report.cutover_blocks} inside the cutover fence"
    )

    # A leased hot-read workload: one client warms a small set of files,
    # then re-reads them while its leases are live — every repeat is a
    # zero-message cache hit, and the table shows the lease traffic.
    from repro.client import FileClient
    from repro.obs.report import render_cache_table

    lease_recorder = Recorder()
    lease_cluster = build_cluster(servers=2, seed=11, recorder=lease_recorder)
    client = FileClient(
        lease_cluster.network,
        "stats-leases",
        lease_cluster.service_port,
        lease_ticks=10_000,
    )
    caps = [client.create_file(b"hot file %d" % i) for i in range(4)]
    for cap in caps:
        client.transact(cap, lambda u: u.write(PagePath.ROOT, b"hot data"))
    for _ in range(16):
        for cap in caps:
            assert client.read(cap) == b"hot data"
    print()
    print("client cache (leased hot reads)")
    print("===============================")
    print(render_cache_table(lease_recorder.metrics))

    # The same commit workload on the durable file-backed disk: the disk
    # table shows the journal appends, the per-medium fsync counts, and
    # the measured cost of each sync primitive.
    import tempfile

    from repro.block.fdisk import probe_sync_primitives, cheapest_journal_primitive
    from repro.obs.report import render_disk_table

    with tempfile.TemporaryDirectory(prefix="repro-stats-") as data_dir:
        disk_recorder = Recorder()
        disk_cluster = build_cluster(
            servers=1, seed=11, recorder=disk_recorder,
            backend="disk", data_dir=data_dir,
        )
        fs = disk_cluster.fs()
        for i in range(4):
            cap = fs.create_file(b"durable file %d" % i)
            handle = fs.create_version(cap)
            fs.write_page(handle.version, ROOT, b"on real files")
            fs.commit(handle.version)
        disk_cluster.close()
        costs = probe_sync_primitives(data_dir)
        primitive = cheapest_journal_primitive(costs)
        print()
        print("durable disk (file-backed backend)")
        print("==================================")
        print(render_disk_table(disk_recorder.metrics))
        print(
            "sync primitives: "
            + ", ".join(f"{k} {v * 1e6:.0f}us" for k, v in costs.items())
        )
        print(
            f"journal sync via {primitive} "
            f"({costs[primitive] * 1e6:.0f} us median)"
        )

    # The same commit loop once more over real localhost TCP sockets,
    # counted into the same recorder: the net table shows the simulated
    # message row next to the net.tcp.* counters.
    from repro.net import build_tcp_cluster
    from repro.obs.report import render_net_table

    tcp_cluster = build_tcp_cluster(servers=2, seed=11, recorder=recorder)
    try:
        client = tcp_cluster.client("stats-host")
        cap = client.create_file(b"over real sockets")
        client.transact(cap, lambda u: u.write(PagePath.ROOT, b"tcp commit"))
        assert client.read(cap) == b"tcp commit"
    finally:
        tcp_cluster.stop()
    print()
    print("net (simulated vs tcp)")
    print("======================")
    print(render_net_table(recorder.metrics))


def _soak(seed: range = range(1, 2), ops: int = 200, mutant: bool = False) -> None:
    from repro.sim.explore import SoakConfig, run_soak

    failed = False
    for one_seed in seed:
        report = run_soak(SoakConfig.for_seed(one_seed, ops, mutant))
        print(report.summary())
        if not report.ok:
            failed = True
            for line in report.violations():
                print("  VIOLATION:", line)
            print("  replay:", report.repro_line())
    sys.exit(1 if failed else 0)


def _cluster(verb: str = "status", shards: int = 3, seed: int = 1985,
             index: int = 0) -> None:
    """Operator verbs: status / split / migrate over a demo deployment."""
    from repro.capability import new_port
    from repro.net.discovery import DiscoveryClient
    cluster = build_cluster(
        shards=shards, seed=seed, disk_capacity=64, discovery=True
    )
    fs = cluster.fs()
    caps = []
    for i in range(6):
        cap = fs.create_file(b"cluster file %d" % i)
        handle = fs.create_version(cap)
        fs.append_page(handle.version, ROOT, b"a page of file %d" % i)
        fs.commit(handle.version)
        caps.append(cap)
    service = cluster.shards
    disc = DiscoveryClient(cluster.network, "operator", cluster.discovery_port)

    def show_status() -> None:
        # Stand in for every daemon's heartbeat thread: renew before the
        # snapshot, so liveness reflects "still registered", not "the
        # demo workload took longer than one TTL".
        for entry in disc.directory():
            disc.heartbeat(entry["name"])
        placement = disc.bootstrap()["placement"]
        print(placement.describe())
        print()
        print("daemon directory")
        for entry in disc.directory():
            liveness = "alive" if entry["alive"] else "DEAD"
            print(
                f"  {entry['name']:<12} {entry['kind']:<9} "
                f"port {entry['port']:#x}  {liveness}"
            )

    if verb == "status":
        show_status()
        return

    print("before:")
    show_status()
    print()
    if verb == "split":
        new_map = service.split(index, new_port(cluster.rng))
        print(f"split shard {index}: placement epoch -> {new_map.epoch}")
    else:
        report = service.migrate(index, new_port(cluster.rng))
        print(
            f"migrated shard {index}: {report.blocks_streamed} blocks "
            f"streamed live, {report.cutover_blocks} inside the fence, "
            f"{report.delta_rounds} delta round(s); placement epoch -> "
            f"{report.epoch}"
        )
    print()
    print("after:")
    show_status()
    # Every file must read back through the new map.
    for i, cap in enumerate(caps):
        data = fs.read_page(fs.current_version(cap), PagePath.of(0))
        assert data == b"a page of file %d" % i, data
    print()
    print(f"all {len(caps)} files read back through the new placement: ok")


def _serve(servers: int = 2, shards: int = 1, seed: int = 42, host: str = "127.0.0.1",
           data_dir: str | None = None, smoke: bool = False,
           discovery: bool = False) -> None:
    import time

    from repro.net import build_tcp_cluster
    from repro.obs import Recorder

    if smoke:
        sys.exit(_serve_smoke(servers=servers, shards=shards, seed=seed, host=host))

    import os
    import threading

    recorder = Recorder()
    if data_dir is not None:
        os.makedirs(data_dir, exist_ok=True)
        from repro.block.fdisk import tune_journal_sync

        primitive, costs = tune_journal_sync(data_dir)
        print(
            f"disk backend: data dir {data_dir}, journal sync via "
            f"{primitive} ({costs[primitive] * 1e6:.0f} us median; probed "
            + ", ".join(f"{k} {v * 1e6:.0f}us" for k, v in costs.items())
            + ")"
        )
    cluster = build_tcp_cluster(
        servers=servers,
        shards=shards,
        seed=seed,
        host=host,
        recorder=recorder,
        discovery=discovery,
        backend="disk" if data_dir is not None else "sim",
        data_dir=data_dir,
    )
    table_path = None
    table_block = None
    last_table = None
    # Checkpoints run in the main thread while daemon threads serve; the
    # file servers' shared dispatch lock serialises the two.
    fs_lock = cluster.network._dispatch_groups.get("fs0", threading.Lock())
    if data_dir is not None:
        table_path = os.path.join(data_dir, "TABLE")
        if os.path.exists(table_path):
            with open(table_path) as fh:
                table_block = int(fh.read().strip())
            restored = cluster.fs().restore_registry(table_block)
            print(
                f"recovered {restored} file(s) from the on-disk file "
                f"table (block {table_block})"
            )
        pending = sum(
            len(half._intentions)
            for pair in cluster.pairs
            for half in pair.halves()
        )
        if pending:
            print(f"recovered {pending} pending intention(s) from disk")

    def _checkpoint_table() -> None:
        """Persist the file table iff it changed, then repoint TABLE."""
        nonlocal table_block, last_table
        with fs_lock:
            raw = cluster.registry.serialize()
            if raw == last_table:
                return
            table_block = cluster.fs().checkpoint_registry(table_block)
        tmp = table_path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(str(table_block))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, table_path)
        last_table = raw

    print(f"serving {shards}-shard deployment: {servers} file server(s) on {host}")
    print("REPRO_SPEC=" + cluster.spec(), flush=True)
    print("connect with:  python -m repro connect '<spec>'   (^C stops)")
    try:
        while True:
            if table_path is not None:
                _checkpoint_table()
            time.sleep(0.2 if table_path is not None else 1)
    except KeyboardInterrupt:
        pass
    finally:
        cluster.stop()
        print("stopped.")


def _serve_smoke(servers: int, shards: int, seed: int, host: str) -> int:
    """End-to-end smoke over real sockets: a history-checked workload that
    loses one stable-pair daemon mid-run and must fail over cleanly."""
    from repro.net import build_tcp_cluster
    from repro.obs import Recorder
    from repro.obs.report import render_net_table
    from repro.verify.history import HistoryRecorder, check_history

    recorder = Recorder()
    history = HistoryRecorder()
    cluster = build_tcp_cluster(
        servers=servers,
        shards=shards,
        seed=seed,
        host=host,
        recorder=recorder,
        history=history,
    )
    try:
        client = cluster.client("smoke-host", history=history)
        caps = [client.create_file(b"smoke %d" % i) for i in range(3)]
        for round_ in range(3):
            for i, cap in enumerate(caps):
                client.transact(
                    cap,
                    lambda u, r=round_, i=i: u.write(
                        ROOT, b"round %d of file %d" % (r, i)
                    ),
                )
        # Kill one stable-pair daemon (a real socket teardown: clients see
        # resets and refusals) and keep committing through its companion.
        cluster.pair.a.crash()
        print("killed stable-pair daemon", cluster.pair.a.name)
        for i, cap in enumerate(caps):
            client.transact(
                cap, lambda u, i=i: u.write(ROOT, b"post-crash file %d" % i)
            )
        for i, cap in enumerate(caps):
            assert client.read(cap) == b"post-crash file %d" % i
        cluster.pair.a.restart()
        cluster.pair.a.resync()
        result = check_history(history)
        print(result.summary())
        print()
        print(render_net_table(recorder.metrics))
        failovers = recorder.metrics.counters.get("net.tcp.failovers")
        if failovers is None or failovers.value == 0:
            print("SMOKE FAIL: no TCP failover observed")
            return 1
        audit = CheckReport()
        check_pairs(cluster, audit)
        if not audit.ok:
            print("SMOKE FAIL: after resync,", "; ".join(audit.errors))
            return 1
        if not result.ok:
            for line in result.violations():
                print("  VIOLATION:", line)
            return 1
        print("smoke: ok (commits over TCP, companion failover, "
              "serializable history)")
        return 0
    finally:
        cluster.stop()


def _connect(spec: str, node: str = "remote-client", bootstrap: bool = False) -> None:
    from repro.client.api import FileClient
    from repro.net import connect

    if bootstrap:
        # Only the spec's discovery entry is used; everything else comes
        # from the registry's bootstrap payload.
        client = FileClient.from_discovery(spec, node=node)
    else:
        network, service_port = connect(spec)
        client = FileClient(network, node, service_port)
    cap = client.create_file(b"hello from %s" % node.encode())
    client.transact(cap, lambda u: u.write(ROOT, b"committed over TCP"))
    data = client.read(cap)
    versions = client.history(cap)
    print(f"served by: {client.ping()}")
    print(f"read back: {data!r} ({len(versions)} committed versions)")
    assert data == b"committed over TCP"
    print("connect: ok")


def _seeds(text: str) -> range:
    """``N``, or the inclusive range ``A..B``; never empty."""
    low, _, high = text.partition("..")
    seeds = range(int(low), int(high or low) + 1)
    if not seeds:
        raise ValueError("empty seed range")
    return seeds


def _cluster_verb(text: str) -> str:
    if text not in ("status", "split", "migrate"):
        raise ValueError("want status|split|migrate")
    return text


# Every subcommand's command line, declared once: its handler, then its
# arguments in order.  A key without dashes is a positional argument, one
# with them a flag; each maps to the type that converts its text (bool: a
# switch that takes no text; None: accepted and ignored).  Defaults are
# the handler's own; a parameter without one is required.  The soak row
# is also what explore.soak_flags spells a replay line from.
COMMANDS: dict[str, tuple[Callable[..., None], dict]] = {
    "demo": (_demo, {}),
    "fsck": (_fsck, {}),
    "salvage": (_salvage, {}),
    "stats": (_stats, {"shards": int}),
    "soak": (_soak, {"--seed": _seeds, "--ops": int, "--mutant": bool}),
    "cluster": (_cluster, {"verb": _cluster_verb, "--shards": int, "--seed": int,
                           "--index": int}),
    "serve": (_serve, {"--servers": int, "--shards": int, "--seed": int, "--host": str,
                       "--data-dir": str, "--smoke": bool, "--discovery": bool,
                       "--async": None}),  # bench/daemon.py still passes --async
    "connect": (_connect, {"spec": str, "--node": str, "--bootstrap": bool}),
}


class UsageError(Exception):
    """A malformed command line: what is wrong, then the usage line."""


def _usage(command: str, problem: str) -> UsageError:
    handler, spec = COMMANDS[command]
    params = inspect.signature(handler).parameters
    words = [f"usage: python -m repro {command}"]
    for key, kind in spec.items():
        if not key.startswith("--"):
            optional = params[key].default is not params[key].empty
            words.append(f"[{key}]" if optional else f"<{key}>")
        elif kind is not None:
            words.append(f"[{key}]" if kind is bool else f"[{key} {key[2:].upper()}]")
    return UsageError(f"{problem}\n{' '.join(words)}")


def parse_command_line(args: list[str]) -> tuple[Callable[..., None], dict]:
    """The handler ``python -m repro ARGS`` names and the keyword
    arguments to call it with; :class:`UsageError` if anything is off."""
    command, *words = args or ["demo"]
    if command not in COMMANDS:
        raise UsageError(__doc__)
    handler, spec = COMMANDS[command]
    positionals = iter([key for key in spec if not key.startswith("--")])
    values: dict = {}
    words = iter(words)
    for word in words:
        key, text = word, None
        if not word.startswith("--"):
            key, text = next(positionals, None), word
            if key is None:
                raise _usage(command, f"unexpected {command} argument {word!r}")
        elif word not in spec:
            raise _usage(command, f"unknown {command} flag {word!r}")
        elif spec[word] not in (bool, None):
            text = next(words, None)
            if text is None or text.startswith("--"):
                raise _usage(command, f"{command} flag {word} needs a value")
        kind = spec[key]
        if kind is None:
            continue
        try:
            value = True if kind is bool else kind(text)
        except ValueError as exc:
            raise _usage(command, f"bad {command} {key} {text!r}: {exc}") from None
        values[key.lstrip("-").replace("-", "_")] = value
    for name, param in inspect.signature(handler).parameters.items():
        if param.default is param.empty and name not in values:
            raise _usage(command, f"{command} needs <{name}>")
    return handler, values


def main(argv: list[str]) -> None:
    try:
        handler, values = parse_command_line(argv[1:])
    except UsageError as exc:
        print(exc)
        sys.exit(2)
    handler(**values)


if __name__ == "__main__":
    main(sys.argv)
