"""Randomised interleaving exploration and the deterministic soak harness.

Round-robin scheduling (:mod:`repro.sim.sched`) exercises exactly one
interleaving per run.  This module adds the other half of the paper's
robustness story:

* :class:`ExploreScheduler` — steps a *random* live task each turn, driven
  by a caller-supplied :class:`random.Random`.  Same seed, same
  interleaving, every process: randomness comes only from the RNG (string-
  seeded, so ``PYTHONHASHSEED`` cannot perturb it) and the simulation
  itself is deterministic.
* :func:`random_fault_script` — draws a :class:`~repro.sim.faults.FaultScript`
  matched to the deployment's topology: file-server crashes, stable-pair
  half outages (companion failover), whole-pair shard outages, client–server
  partitions, and lossy-network windows.
* :func:`run_soak` — builds a deployment with an attached
  :class:`~repro.verify.history.HistoryRecorder`, runs randomised client
  updates + reads + a concurrent garbage collector under the fault script,
  recovers everything (restart, resync, heal), audits the durable pages,
  and feeds the whole recorded run through
  :func:`repro.verify.history.check_history` plus the fsck invariant
  checker.  The result is a :class:`SoakReport` whose
  :meth:`~SoakReport.repro_line` replays a failure exactly.

``python -m repro soak --seed N --ops M [--mutant]`` is the CLI wrapper:
:meth:`SoakConfig.for_seed` draws the run's whole feature set from the
seed.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterator

from repro.capability import new_port
from repro.errors import ReproError, VersionCommitted
from repro.apps.directory import _pack_table, _unpack_table
from repro.client.api import FileClient
from repro.core.gc import GarbageCollector
from repro.core.pathname import PagePath
from repro.obs import NULL_RECORDER
from repro.sim.faults import FaultEvent, FaultScript
from repro.sim.sched import Scheduler, Task
from repro.testbed import Cluster, build_cluster
from repro.tools.check import CheckReport, check_cluster
from repro.verify.history import CheckResult, HistoryRecorder, check_history
from repro.workloads.generators import DirOpSpec, directory_churn_workload

ROOT = PagePath.ROOT


class ExploreScheduler(Scheduler):
    """A scheduler that explores random interleavings.

    :meth:`run_random` picks a uniformly random live task each turn.  The
    pick sequence depends only on the RNG and on which tasks are live, so a
    run is a pure function of (seed, task set) and replays exactly.
    """

    def run_random(
        self,
        rng: random.Random,
        max_steps: int = 1_000_000,
        raise_errors: bool = True,
        on_step: Callable[[int], None] | None = None,
    ) -> list[Task]:
        """Run all tasks to completion under a random schedule.

        ``on_step`` is called with the global step count after every step —
        the soak harness hangs fault injection off it.
        """
        steps = 0
        while True:
            live = [t for t in self.tasks if not t.done]
            if not live:
                break
            if steps >= max_steps:
                raise RuntimeError(f"scheduler exceeded {max_steps} steps")
            live[rng.randrange(len(live))].step()
            steps += 1
            self.steps += 1
            if on_step is not None:
                on_step(steps)
        if raise_errors:
            for task in self.tasks:
                if task.error is not None:
                    raise task.error
        return self.tasks


# ---------------------------------------------------------------------------
# soak configuration and report
# ---------------------------------------------------------------------------


@dataclass
class SoakConfig:
    """One soak run, fully determined by its fields.

    ``shards`` is the number of companion pairs behind the placement map
    (1: a single pair).  ``ops`` is the *total* operation budget,
    split across ``clients``.  ``mutant`` replaces the serialisability
    test with one that blindly accepts every commit — the checker must
    flag the resulting lost updates (this is how the harness proves it
    can see bugs at all).

    ``repro soak`` runs :meth:`for_seed` configs only; the feature fields
    record what such a run drew, and tests may set them directly.
    """

    seed: int = 1
    ops: int = 200
    shards: int = 1
    clients: int = 3
    files: int = 2
    pages: int = 4
    servers: int = 2
    mutant: bool = False
    # Mix group commits into the workload: clients periodically pin a
    # server, build two updates, and settle both through one
    # ``commit_group`` call.  The history checker holds the grouped path
    # to the same serialisability bar as the sequential one.
    group_commit: bool = False
    # Give every soak client a read lease of ``lease_ticks`` logical
    # ticks: cached reads are served with zero messages while the lease
    # is live, and the history checker holds every lease-stamped read to
    # the staleness bound (read lags superseding commit by ≤ TTL).
    leases: bool = False
    lease_ticks: int = 300
    # Run a live shard migration in the middle of the workload (sharded
    # topologies only): a rebalancer task streams one shard's committed
    # pages to a fresh pair while clients keep committing, then cuts
    # over with a single epoch bump.  The history checker proves no
    # read or commit was served by the old pair after its cutover.
    rebalance: bool = False
    # Every half crash is a power loss: the crashed half's disk keeps
    # only what its journal synced, and the restart recovers from that.
    # Otherwise a crash is a process death, which keeps every byte written.
    power_loss: bool = False
    # Contention battery: replace the page-update mix with hot-directory
    # churn — every client toggles entries in a small set of merge-typed
    # directory files, Zipf-skewed so directory 0 takes most of the heat.
    # The history checker replays those files under the merge semantics
    # (:mod:`repro.merge`), so a bad merge shows up as a violation.
    contention: bool = False
    # Semantic merging on the servers.  ``merge=False`` strips the merge
    # policy (paper-exact strict OCC) — the merge-off arm of the
    # abort-rate/goodput comparison.
    merge: bool = True

    @classmethod
    def for_seed(cls, seed: int, ops: int, mutant: bool) -> SoakConfig:
        """The run a seed names: topology, client count and feature set
        are drawn from the seed, so ``--seed A..B`` soaks the features in
        composition.  Single pair and 4 shards come up twice as often as
        2 shards, which is drawn for the smallest rebalance; merges are
        switched off on a third of the contention runs.  A grouped commit
        needs the page workload, a rebalance a sharded topology."""
        rng = random.Random(f"soak-{seed}-features")
        shards = rng.choice((1, 1, 2, 4, 4))
        clients = rng.randint(2, 4)
        contention = rng.random() < 1 / 3
        merge = not (contention and rng.random() < 1 / 3)
        return cls(seed=seed, ops=ops, mutant=mutant, shards=shards, clients=clients,
                   contention=contention, merge=merge,
                   group_commit=not contention and rng.random() < 1 / 2,
                   leases=rng.random() < 1 / 2,
                   power_loss=rng.random() < 1 / 3,
                   rebalance=shards >= 2 and rng.random() < 1 / 2)

    def features(self) -> list[str]:
        """The features this run switches on, by name."""
        switched = {"group commit": self.group_commit, "leases": self.leases,
                    "contention": self.contention,
                    "merge off": self.contention and not self.merge,
                    "power loss": self.power_loss, "rebalance": self.rebalance}
        return [name for name, on in switched.items() if on]


def soak_flags(config: SoakConfig) -> list[str]:
    """The ``repro soak`` flags that name ``config``, read off the soak
    row of the command-line table: every valued flag, and every switch
    the config sets."""
    from repro.__main__ import COMMANDS

    _, flags = COMMANDS["soak"]
    line: list[str] = []
    for flag, kind in flags.items():
        value = getattr(config, flag[2:])
        if kind is not bool:
            line += [flag, str(value)]
        elif value:
            line.append(flag)
    return line


@dataclass
class SoakReport:
    """What one soak run found."""

    config: SoakConfig
    check: CheckResult
    fsck: CheckReport
    steps: int = 0
    events_recorded: int = 0
    faults_fired: list[FaultEvent] = field(default_factory=list)
    commits: int = 0
    conflicts: int = 0
    op_errors: int = 0  # operations that failed under injected faults
    rebalances: int = 0  # live migrations that cut over
    rebalance_aborts: int = 0  # migrations aborted by injected faults
    merges: int = 0  # commits the servers semantically merged
    merge_conflicts: int = 0  # merges the or-set semantics rejected

    @property
    def ok(self) -> bool:
        return self.check.ok and self.fsck.ok

    def violations(self) -> list[str]:
        return [str(v) for v in self.check.violations] + [
            f"fsck: {line}" for line in self.fsck.errors
        ]

    def repro_line(self) -> str:
        """What replays this run exactly: the ``repro soak`` command for a
        seed's own draw, else the ``SoakConfig(...)`` to hand
        :func:`run_soak` — never a command that runs something else."""
        cfg = self.config
        if cfg == SoakConfig.for_seed(cfg.seed, cfg.ops, cfg.mutant):
            return "PYTHONPATH=src python -m repro soak " + " ".join(
                soak_flags(cfg)
            )
        default = SoakConfig()
        fields = [
            f"{name}={value!r}"
            for name, value in vars(cfg).items()
            if name in ("seed", "ops") or value != getattr(default, name)
        ]
        return f"SoakConfig({', '.join(fields)})"

    def summary(self) -> str:
        cfg = self.config
        topo = f"{cfg.shards} shard" + "s" * (cfg.shards > 1)
        topo += f", {cfg.clients} clients: "
        topo += ", ".join(cfg.features()) or "plain"
        status = "ok" if self.ok else f"{len(self.violations())} violation(s)"
        rebalance = ""
        if cfg.rebalance:
            rebalance = (
                f", {self.rebalances} rebalance(s)"
                f" ({self.rebalance_aborts} aborted)"
            )
        merges = ""
        if self.merges or self.merge_conflicts:
            merges = (
                f", {self.merges} merge(s)"
                f" ({self.merge_conflicts} merge conflicts)"
            )
        return (
            f"soak seed={cfg.seed} ops={cfg.ops} ({topo}): {status}; "
            f"{self.steps} steps, {len(self.faults_fired)} faults, "
            f"{self.commits} commits, {self.conflicts} conflicts, "
            f"{self.op_errors} faulted ops{rebalance}{merges}; "
            f"{self.check.summary()}"
        )


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


def random_fault_script(
    rng: random.Random, config: SoakConfig, horizon: int
) -> FaultScript:
    """Draw a fault script matched to the deployment's topology.

    Every "down" event is paired with an "up" event inside the horizon, so
    the script itself never strands the run (the harness additionally runs
    a full recovery pass before the audit).  Episodes may overlap — the
    point of the soak is precisely the interleavings nobody wrote a
    scenario test for.
    """
    sharded = config.shards >= 2
    kinds = ["partition", "drops", "server"]
    # Storage outages: half of the one pair (companion failover) on one
    # shard, a whole shard pair when there are several.
    kinds.append("pair" if sharded else "half")
    events: list[FaultEvent] = []
    episodes = rng.randint(2, 4)
    server_episode_used = False
    for _ in range(episodes):
        kind = rng.choice(kinds)
        start = rng.randint(max(1, horizon // 10), max(2, (horizon * 7) // 10))
        length = rng.randint(max(1, horizon // 20), max(2, horizon // 4))
        stop = start + length
        if kind == "server":
            if server_episode_used or config.servers < 2:
                continue  # never two file-server outages in one script
            server_episode_used = True
            index = rng.randrange(config.servers)
            events.append(FaultEvent(start, "crash_server", (index,)))
            events.append(FaultEvent(stop, "restart_server", (index,)))
        elif kind == "half":
            half = rng.choice(["a", "b"])
            events.append(FaultEvent(start, "half_down", (half,)))
            events.append(FaultEvent(stop, "half_up", (half,)))
        elif kind == "pair":
            shard = rng.randrange(config.shards)
            events.append(FaultEvent(start, "pair_down", (shard,)))
            events.append(FaultEvent(stop, "pair_up", (shard,)))
        elif kind == "partition":
            client = f"soak-c{rng.randrange(config.clients)}"
            server = f"fs{rng.randrange(config.servers)}"
            events.append(FaultEvent(start, "partition", (client, server)))
            events.append(FaultEvent(stop, "heal", (client, server)))
        else:  # drops
            # High period: the RPC layer retries a few times, so most
            # operations survive the window; some die and must abort clean.
            period = rng.randint(7, 13)
            events.append(FaultEvent(start, "drops_on", (period,)))
            events.append(FaultEvent(stop, "drops_off", ()))
    return FaultScript(events)


def apply_fault(cluster: Cluster, event: FaultEvent, power_loss: bool = False) -> None:
    """Map one :class:`FaultEvent` onto a live cluster; with
    ``power_loss`` a storage half's crash is a power loss.

    Idempotent and forgiving: crashing a crashed server or healing a
    healed link is a no-op, so scripts compose without bookkeeping.
    """
    action, target = event.action, event.target
    network = cluster.network
    if action == "crash_server":
        server = cluster.servers[target[0]]
        if not server._crashed:
            server.crash()
    elif action == "restart_server":
        server = cluster.servers[target[0]]
        if server._crashed:
            server.restart()
    elif action in ("half_down", "half_up"):
        pair = cluster.pair
        half = pair.a if target[0] == "a" else pair.b
        if action == "half_down":
            if not half._crashed:
                half.crash(power_loss)
        else:
            # Restart first, then resync each recovering half whose
            # companion is up: two half episodes may overlap, and a
            # resync against a crashed companion cannot reach it.
            if half._crashed:
                half.restart()
            for recovering, companion in ((pair.a, pair.b), (pair.b, pair.a)):
                if recovering._recovering and not companion._crashed:
                    recovering.resync()
    elif action in ("pair_down", "pair_up"):
        # Index modulo the live pair list: a rebalance may have swapped a
        # pair out since the script was drawn, but the event still lands
        # on a real (possibly new) shard.
        pairs = cluster.shards.pairs
        pair = pairs[target[0] % len(pairs)]
        if action == "pair_down":
            for half in pair.halves():
                if not half._crashed:
                    half.crash(power_loss)
        else:
            # Restart both halves first, then resync: fetch_intentions
            # answers companion traffic even while recovering.
            for half in pair.halves():
                if half._crashed:
                    half.restart()
            for half in pair.halves():
                if half._recovering:
                    half.resync()
    elif action == "partition":
        network.partition(target[0], target[1])
    elif action == "heal":
        network.heal(target[0], target[1])
    elif action == "drops_on":
        network.drop_policy.drop_every = target[0]
    elif action == "drops_off":
        network.drop_policy.drop_every = None
    else:
        raise ValueError(f"unknown fault action {action!r}")


def recover_all(cluster: Cluster) -> None:
    """Bring the whole deployment back: heal, stop drops, restart and
    resync every storage half, restart every file server."""
    cluster.network.heal_all()
    cluster.network.drop_policy.drop_every = None
    # Retired pairs no longer serve, but their disks are still part of the
    # deployment's durable state: resync them too so the final
    # pair-agreement audit covers the pre-cutover history.
    for pair in cluster.pairs:
        for half in pair.halves():
            if half._crashed:
                half.restart()
        for half in pair.halves():
            if half._recovering:
                half.resync()
    for server in cluster.servers:
        if server._crashed:
            server.restart()


# ---------------------------------------------------------------------------
# the soak run
# ---------------------------------------------------------------------------


@contextmanager
def blind_serialise_mutant() -> Iterator[None]:
    """Replace the serialisability test with one that accepts everything.

    This deliberately reintroduces the bug class the paper's test
    prevents — concurrent conflicting updates both commit, the loser's
    writes silently vanish — so tests can prove the history checker
    notices.  Patches every name the commit engine
    (``FileService._settle``) reaches the test through: its own, for
    chain-mates, and :mod:`repro.core.occ`'s, for each hop of
    ``serialise_through``.
    """
    from repro.core import occ, service
    from repro.core.occ import SerialiseResult

    real = occ.serialise

    def blind(store, b_root, c_root, merge=True, recorder=None, **kwargs):
        return SerialiseResult(ok=True)

    occ.serialise = service.serialise = blind
    try:
        yield
    finally:
        occ.serialise = service.serialise = real


def _client_script(
    client: FileClient,
    caps: list,
    rng: random.Random,
    ops: int,
    pages: int,
    tally: dict,
    group_commit: bool = False,
) -> Generator[None, None, None]:
    """One soak client: a random mix of cached reads, page, append and
    blind updates.

    Every operation tolerates :class:`ReproError` — under injected faults
    an RPC may find every server down, a commit may conflict, a dropped
    reply may surface as a duplicate commit (``VersionCommitted``: the
    first try won, which is success).  Correctness is judged afterwards by
    the history checker and fsck, not by per-operation outcomes.

    With ``group_commit`` on, some update slots become group slots: the
    client pins whichever server answers its ping, builds two updates
    there, and settles both through one ``commit_group`` call — the same
    workload the sequential path would run as two commits.
    """
    for opno in range(ops):
        cap = caps[rng.randrange(len(caps))]
        path = PagePath.of(rng.randrange(pages))
        yield
        if group_commit and rng.random() < 0.3:
            yield from _grouped_op(client, caps, rng, opno, pages, tally)
            continue
        if rng.random() < 0.4:
            try:
                client.read(cap, path)
            except ReproError:
                tally["op_errors"] += 1
            continue
        payload = f"{client.node}-op{opno}".encode()
        update = None
        try:
            if rng.random() < 0.3:  # blind: one ``update`` request
                client.transact(cap, lambda u: u.write(path, payload))
                tally["commits"] += 1
                continue
            update = client.begin(cap)
            if opno % 8 == 7:  # new pages: numbered by the commit's flush
                for _ in range(2):
                    update.append_page(path, payload)
                    yield
            else:
                update.read(path)
                yield
                update.write(path, payload)
                yield
            update.commit()
            tally["commits"] += 1
        except VersionCommitted:
            tally["commits"] += 1  # dropped reply: the commit landed
        except ReproError:
            tally["op_errors"] += 1
            if update is not None and not update.done:
                try:
                    update.abort()
                except ReproError:
                    pass
    return None


def _contention_script(
    client: FileClient,
    caps: list,
    ops: list[DirOpSpec],
    tally: dict,
) -> Generator[None, None, None]:
    """One contention client: hot-directory churn against merge-typed files.

    Each operation toggles one entry (bind if absent, unlink if present)
    in a Zipf-picked directory.  Distinct-name races are exactly what the
    merge layer reconciles; shared-name races with different targets must
    still abort one side.  Like the page workload, every operation
    tolerates :class:`ReproError` — conflicts and faulted ops count as
    ``op_errors`` and the checker judges correctness afterwards.
    """
    for opno, op in enumerate(ops):
        cap = caps[op.directory]
        yield
        update = None
        try:
            update = client.begin(cap)
            table = _unpack_table(update.read(ROOT))
            yield
            if op.name in table:
                del table[op.name]
            else:
                # Bind a capability that varies per client and op, so
                # shared-name races really are bound-to-different-targets.
                table[op.name] = caps[(op.directory + opno) % len(caps)]
            update.write(ROOT, _pack_table(table))
            yield
            update.commit()
            tally["commits"] += 1
        except VersionCommitted:
            tally["commits"] += 1  # dropped reply: the commit landed
        except ReproError:
            tally["op_errors"] += 1
            if update is not None and not update.done:
                try:
                    update.abort()
                except ReproError:
                    pass
    return None


def _grouped_op(
    client: FileClient,
    caps: list,
    rng: random.Random,
    opno: int,
    pages: int,
    tally: dict,
) -> Generator[None, None, None]:
    """One group-commit slot: pin a server, build two updates, settle
    both in one call.  A failed call (server crash mid-episode, storage
    outage, ``NotManagingServer`` after a failover) leaves all members
    uncommitted; they are aborted best-effort and counted as faulted
    ops."""
    updates = []
    old_prefer = client.prefer_server
    try:
        client.prefer_server = client.ping()
        for k in range(2):
            gcap = caps[rng.randrange(len(caps))]
            gpath = PagePath.of(rng.randrange(pages))
            yield
            update = client.begin(gcap)
            update.read(gpath)
            yield
            update.write(gpath, f"{client.node}-op{opno}.{k}".encode())
            updates.append(update)
        yield
        outcomes = client.commit_group(updates)
        for update in updates:
            # "committed" or "committed-merged": both landed durably.
            if (outcomes.get(update.version.obj) or "").startswith("committed"):
                tally["commits"] += 1
            else:
                tally["op_errors"] += 1
    except VersionCommitted:
        # Dropped reply, retransmitted call: the first try landed.
        tally["commits"] += len(updates)
    except ReproError:
        tally["op_errors"] += 1
        for update in updates:
            if not update.done:
                try:
                    update.abort()
                except ReproError:
                    pass
    finally:
        client.prefer_server = old_prefer
    return None


def _rebalance_script(
    cluster: Cluster,
    rng: random.Random,
    delay: int,
    history,
    tally: dict,
    attempts: int = 2,
) -> Generator[None, None, None]:
    """The mid-soak rebalancer: wait out ``delay`` steps, then live-migrate
    one random shard to a fresh pair while the clients keep running.

    An injected fault can abort the migration (both source halves down at
    the wrong moment); the abort path discards the half-built target and
    leaves the placement map untouched, so the script just tries again
    with a fresh target — up to ``attempts`` times, like a real operator
    retrying a reshape."""
    from repro.block.rebalance import migrate_steps

    service = cluster.shards
    for attempt in range(attempts):
        for _ in range(delay):
            yield
        index = rng.randrange(len(service.pairs))
        target_port = new_port(rng)
        try:
            yield from migrate_steps(
                service, index, target_port, node="rebalancer", history=history
            )
        except ReproError:
            tally["rebalance_aborts"] += 1
            continue
        tally["rebalances"] += 1
        return None
    return None


def _gc_script(cluster: Cluster, cycles: int) -> Generator[None, None, None]:
    """The concurrent garbage collector, riding out faults.

    A cycle that hits a crashed block server aborts with a
    :class:`ReproError`; the script shrugs and tries again next cycle —
    exactly what a real background collector daemon would do.
    """
    for _ in range(cycles):
        gc = GarbageCollector(cluster.fs(0))
        try:
            yield from gc.run_incremental()
        except ReproError:
            pass
        yield


def _audit_final_state(
    cluster: Cluster, caps: list, pages: int
) -> dict[int, dict[str, bytes]]:
    """Read every file's current pages through a recovered server.

    These reads go through ``read_page`` on committed versions, so they
    are themselves recorded as snapshot reads — the audit both feeds
    ``final_state`` and exercises the checker's snapshot invariant."""
    fs = next(s for s in cluster.servers if not s._crashed)
    final: dict[int, dict[str, bytes]] = {}
    for cap in caps:
        current = fs.current_version(cap)
        audited: dict[str, bytes] = {}
        for path in [ROOT] + [PagePath.of(i) for i in range(pages)]:
            try:
                audited[str(path)] = fs.read_page(current, path)
            except ReproError:
                continue  # page never created on this file
        final[cap.obj] = audited
    return final


def run_soak(config: SoakConfig, recorder=None) -> SoakReport:
    """Run one deterministic soak and check everything it recorded."""
    recorder = recorder if recorder is not None else NULL_RECORDER
    history = HistoryRecorder()
    cluster = build_cluster(
        servers=config.servers,
        shards=config.shards,
        seed=config.seed,
        recorder=recorder,
        history=history,
        # A rebalance soak also exercises the discovery republish path on
        # every epoch bump.
        discovery=config.rebalance,
    )
    rng = random.Random(f"soak-{config.seed}")
    if not config.merge:
        for server in cluster.servers:
            server.merge_policy = None

    # -- setup: files exist and are committed before any fault fires -------
    fs = cluster.fs(0)
    caps = []
    if config.contention:
        # Hot merge-typed directory files (empty entry tables); the churn
        # scripts toggle entries in them for the whole run.
        for i in range(max(2, config.files)):
            caps.append(fs.create_file(_pack_table({}), mergeable=True))
    else:
        for i in range(config.files):
            cap = fs.create_file(b"soak file %d" % i)
            handle = fs.create_version(cap)
            for page in range(config.pages):
                fs.append_page(handle.version, ROOT, b"page %d.%d" % (i, page))
            fs.commit(handle.version)
            caps.append(cap)

    # -- tasks --------------------------------------------------------------
    scheduler = ExploreScheduler()
    tally = {"commits": 0, "op_errors": 0, "rebalances": 0, "rebalance_aborts": 0}
    per_client = max(1, config.ops // config.clients)
    # Rough step horizon: each op takes a handful of yields.  Computed up
    # front so the rebalancer's trigger point can be drawn from it.
    horizon = max(20, per_client * config.clients * 3)
    churn = None
    if config.contention:
        churn = directory_churn_workload(
            random.Random(f"soak-{config.seed}-churn"),
            config.clients,
            per_client,
            len(caps),
        )
    for ci in range(config.clients):
        client = FileClient(
            cluster.network,
            f"soak-c{ci}",
            cluster.service_port,
            history=history,
            lease_ticks=config.lease_ticks if config.leases else None,
        )
        crng = random.Random(f"soak-{config.seed}-client-{ci}")
        if churn is not None:
            script = _contention_script(client, caps, churn[ci], tally)
        else:
            script = _client_script(
                client,
                caps,
                crng,
                per_client,
                config.pages,
                tally,
                group_commit=config.group_commit,
            )
        scheduler.spawn(f"soak-c{ci}", script)
    scheduler.spawn("soak-gc", _gc_script(cluster, cycles=3))
    if config.rebalance:
        rrng = random.Random(f"soak-{config.seed}-rebalance")
        scheduler.spawn(
            "soak-rebalance",
            _rebalance_script(
                cluster, rrng, max(3, horizon // 10), history, tally
            ),
        )

    script = random_fault_script(rng, config, horizon)

    def on_step(step: int) -> None:
        for event in script.due(step):
            recorder.count("soak.faults")
            recorder.event("soak.fault", action=event.action)
            apply_fault(cluster, event, config.power_loss)

    run_error: BaseException | None = None
    with recorder.span("soak", seed=config.seed, shards=config.shards):
        with blind_serialise_mutant() if config.mutant else _nullcontext():
            try:
                scheduler.run_random(rng, on_step=on_step)
            except ReproError as exc:  # pragma: no cover - harness bug guard
                run_error = exc
        # -- recovery, then the audit --------------------------------------
        recover_all(cluster)
        for event in script.due(1 << 60):  # anything the run never reached
            apply_fault(cluster, event, config.power_loss)
        final_state = _audit_final_state(cluster, caps, config.pages)

    check = check_history(history, final_state)
    if run_error is not None:
        check.violate("harness-error", f"soak run raised {run_error!r}")
    fsck = check_cluster(cluster)
    commits = tally["commits"]
    conflicts = sum(s.metrics.conflicts for s in cluster.servers)
    merges = sum(s.metrics.semantic_merges for s in cluster.servers)
    merge_conflicts = sum(s.metrics.merge_conflicts for s in cluster.servers)
    recorder.count("soak.ops", config.ops)
    recorder.count("soak.commits", commits)
    recorder.count("soak.conflicts", conflicts)
    recorder.count("soak.events", len(history))
    if not check.ok or not fsck.ok:
        recorder.count("soak.violations", len(check.violations) + len(fsck.errors))
    cluster.close()
    return SoakReport(
        config=config,
        check=check,
        fsck=fsck,
        steps=scheduler.steps,
        events_recorded=len(history),
        faults_fired=list(script.fired),
        commits=commits,
        conflicts=conflicts,
        op_errors=tally["op_errors"],
        rebalances=tally["rebalances"],
        rebalance_aborts=tally["rebalance_aborts"],
        merges=merges,
        merge_conflicts=merge_conflicts,
    )


@contextmanager
def _nullcontext() -> Iterator[None]:
    yield
