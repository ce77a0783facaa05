"""The soak harness: determinism, fault scripts, end-to-end checking."""

import pathlib
import random
import re
from collections import Counter

import pytest

from repro.sim.explore import (
    ExploreScheduler,
    SoakConfig,
    SoakReport,
    apply_fault,
    random_fault_script,
    run_soak,
)
from repro.core.pathname import PagePath
from repro.sim.faults import FaultEvent
from repro.testbed import build_cluster


def test_run_random_is_deterministic():
    def worker(log, name, steps):
        for i in range(steps):
            log.append((name, i))
            yield

    traces = []
    for _ in range(2):
        log = []
        sched = ExploreScheduler()
        for name in ("a", "b", "c"):
            sched.spawn(name, worker(log, name, 5))
        sched.run_random(random.Random("fixed"))
        traces.append(log)
    assert traces[0] == traces[1]
    # And a different seed explores a different interleaving.
    log = []
    sched = ExploreScheduler()
    for name in ("a", "b", "c"):
        sched.spawn(name, worker(log, name, 5))
    sched.run_random(random.Random("other"))
    assert log != traces[0]


def test_fault_script_pairs_every_outage(soak_seed):
    for shards in (1, 4):
        config = SoakConfig(seed=soak_seed, shards=shards)
        script = random_fault_script(random.Random("faults"), config, horizon=300)
        downs = {"crash_server": 0, "half_down": 0, "pair_down": 0,
                 "partition": 0, "drops_on": 0}
        ups = {"restart_server": 0, "half_up": 0, "pair_up": 0,
               "heal": 0, "drops_off": 0}
        for event in script._pending:
            if event.action in downs:
                downs[event.action] += 1
            else:
                ups[event.action] += 1
        assert downs["crash_server"] <= 1  # never two file-server outages
        assert sum(downs.values()) == sum(ups.values())


def test_apply_fault_is_idempotent():
    cluster = build_cluster(servers=2, seed=3)
    for _ in range(2):  # crashing a crashed server is a no-op
        apply_fault(cluster, FaultEvent(0, "crash_server", (1,)))
    assert cluster.servers[1]._crashed
    for _ in range(2):
        apply_fault(cluster, FaultEvent(0, "restart_server", (1,)))
    assert not cluster.servers[1]._crashed
    for _ in range(2):
        apply_fault(cluster, FaultEvent(0, "half_down", ("a",)))
    for _ in range(2):
        apply_fault(cluster, FaultEvent(0, "half_up", ("a",)))
    assert not cluster.pair.a._crashed


def test_overlapping_half_outages_resync_only_against_a_live_companion():
    """Half B goes down while half A is still down: A's restart must not
    resync against the crashed B.  Each half resyncs once its companion
    is up, and the pair then serves again."""
    cluster = build_cluster(seed=3)
    fs = cluster.fs()
    cap = fs.create_file(b"v1")
    for event in ("half_down a", "half_down b", "half_up a"):
        action, half = event.split()
        apply_fault(cluster, FaultEvent(0, action, (half,)))
    assert cluster.pair.a._recovering
    apply_fault(cluster, FaultEvent(0, "half_up", ("b",)))
    assert cluster.pair.a.available and cluster.pair.b.available
    assert fs.read_page(fs.current_version(cap), PagePath.ROOT) == b"v1"


@pytest.mark.parametrize("seed", [84, 146, 199])
def test_soak_seeds_with_overlapping_half_outages_are_clean(seed):
    report = run_soak(SoakConfig.for_seed(seed, 500, False))
    assert report.ok, "\n".join(report.violations()) + "\n" + report.repro_line()


def test_soak_passes_on_single_pair(soak_seed):
    report = run_soak(SoakConfig(seed=soak_seed, ops=60))
    assert report.ok, "\n".join(report.violations()) + "\n" + report.repro_line()
    assert report.commits > 0
    assert report.events_recorded > 0
    assert report.check.reads_checked > 0


def test_soak_passes_on_sharded_topology(soak_seed):
    report = run_soak(SoakConfig(seed=soak_seed, ops=60, shards=4))
    assert report.ok, "\n".join(report.violations()) + "\n" + report.repro_line()
    assert report.commits > 0


def test_soak_report_is_deterministic(soak_seed):
    config = SoakConfig(seed=soak_seed, ops=40)
    first = run_soak(config)
    second = run_soak(config)
    assert first.summary() == second.summary()
    assert first.steps == second.steps
    assert first.events_recorded == second.events_recorded
    assert [e.action for e in first.faults_fired] == [
        e.action for e in second.faults_fired
    ]


def test_soak_catches_blind_serialise_mutant(soak_seed, group_commit=False):
    """The harness's reason to exist: with the serialisability test
    disabled, concurrent commits produce lost updates and the history
    checker must say so; and blinded means blinded: no commit may still
    be refused by a serialise conflict."""
    report = run_soak(
        SoakConfig(
            seed=soak_seed, ops=120, mutant=True, group_commit=group_commit
        )
    )
    assert not report.ok
    assert report.conflicts == 0
    kinds = {v.kind for v in report.check.violations}
    assert kinds & {"non-serializable-read", "stale-snapshot-read",
                    "durable-divergence"}
    assert_replay_spells_config(report)
    assert "mutant=True" in report.repro_line()


def test_soak_catches_blind_serialise_mutant_at_any_chain_length(soak_seed):
    """Single and grouped commits are one engine: the mutant must blind
    the catch-up walk and the chain-mate test alike."""
    test_soak_catches_blind_serialise_mutant(soak_seed, group_commit=True)


def assert_replay_spells_config(report):
    """A hand-built config is no seed's draw, so its replay line is the
    config itself, never a ``repro soak`` command."""
    line = report.repro_line()
    assert line.startswith("SoakConfig("), line
    assert eval(line, {"SoakConfig": SoakConfig}) == report.config


def test_repro_line_replays_config():
    config = SoakConfig.for_seed(9, 30, False)
    line = run_soak(config).repro_line()
    assert line == "PYTHONPATH=src python -m repro soak --seed 9 --ops 30"
    mutant = SoakConfig.for_seed(9, 30, True)
    assert SoakReport(mutant, check=None, fsck=None).repro_line() == (
        "PYTHONPATH=src python -m repro soak --seed 9 --ops 30 --mutant"
    )


# The (topology, feature) cells the per-feature CI soak steps covered —
# each feature alone on the single pair and on 4 shards, and a rebalance
# on 2 and on 4 shards — which CI's one seed range must draw 3 times each.
COVERED_CELLS = [
    (shards, feature)
    for shards in (1, 4)
    for feature in (
        "plain", "group commit", "leases", "merges on", "merge off", "disk"
    )
] + [(2, "rebalance"), (4, "rebalance")]


def _thin_cells(seeds) -> dict:
    seen = Counter()
    for seed in seeds:
        config = SoakConfig.for_seed(seed, 500, False)
        features = config.features()
        if not features:
            features = ["plain"]
        elif config.contention and config.merge:
            features.append("merges on")
        seen.update((config.shards, feature) for feature in features)
    return {cell: seen[cell] for cell in COVERED_CELLS if seen[cell] < 3}


def test_ci_seed_range_draws_every_covered_cell_three_times():
    """A pure function of the draw: CI's ``repro soak --seed 1..N`` hits
    every cell on at least 3 seeds, and N is the smallest range that
    does."""
    ci = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"
    last = int(re.search(r"repro soak --seed 1\.\.(\d+) ", ci.read_text())[1])
    assert _thin_cells(range(1, last + 1)) == {}
    assert _thin_cells(range(1, last)) != {}


def test_soak_emits_observability_counters(soak_seed):
    from repro.obs import Recorder

    recorder = Recorder()
    run_soak(SoakConfig(seed=soak_seed, ops=40), recorder=recorder)
    counters = recorder.metrics.counters
    assert counters["soak.ops"].value == 40
    assert counters["soak.commits"].value > 0
    assert "soak.violations" not in counters
    assert recorder.tracer.spans_named("soak")


def _grouped_updates(client, cap, paths, tag=b"grp"):
    updates = []
    for i, path in enumerate(paths):
        update = client.begin(cap)
        update.write(path, tag + b"%d" % i)
        updates.append(update)
    return updates


def test_group_commit_aborts_atomically_under_whole_pair_outage():
    """A whole-pair outage mid-flush must leave the group all-or-nothing:
    no member commits, every member stays open, and a retry after the
    pair heals settles the whole batch."""
    from repro.client.api import FileClient
    from repro.core.pathname import PagePath
    from repro.errors import ReproError
    from repro.verify.history import HistoryRecorder, check_history

    history = HistoryRecorder()
    cluster = build_cluster(seed=31, history=history)
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"base")
    setup = client.begin(cap)
    paths = [setup.append_page(PagePath.ROOT, b"init") for _ in range(4)]
    setup.commit()
    client.prefer_server = client.ping()
    updates = _grouped_updates(client, cap, paths)
    before = [client.read(cap, path) for path in paths]

    apply_fault(cluster, FaultEvent(0, "pair_down", (0,)))
    with pytest.raises(ReproError):
        client.commit_group(updates)
    apply_fault(cluster, FaultEvent(0, "pair_up", (0,)))

    # Nothing committed: the current version still shows the old pages,
    # and every member is still open (uncommitted, not aborted).
    assert [client.read(cap, path) for path in paths] == before
    for update in updates:
        assert not update.done
        assert (
            cluster.registry.version(update.version.obj).status
            == "uncommitted"
        )
    # The same handles retry cleanly once storage is back.
    outcomes = client.commit_group(updates)
    assert all(v == "committed" for v in outcomes.values())
    assert [client.read(cap, path) for path in paths] == [
        b"grp%d" % i for i in range(4)
    ]
    result = check_history(history)
    assert result.ok, "\n".join(str(v) for v in result.violations)


def test_group_commit_aborts_atomically_when_one_shard_dies_mid_flush():
    """Sharded variant: the batch's pages straddle shards, and only the
    shard holding one member's pages goes down — the flush lands some
    shards before failing, yet no member may commit."""
    from repro.client.api import FileClient
    from repro.core.pathname import PagePath
    from repro.errors import ReproError
    from repro.testbed import build_cluster

    cluster = build_cluster(shards=4, seed=32, disk_capacity=16)
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"base")
    setup = client.begin(cap)
    paths = [setup.append_page(PagePath.ROOT, b"init") for _ in range(6)]
    setup.commit()
    client.prefer_server = client.ping()
    updates = _grouped_updates(client, cap, paths)
    # Down the shard that owns one member's version page: the batched
    # flush writes the other shards, then hits the dead one.
    placement = cluster.shards.placement
    root = cluster.registry.version(updates[-1].version.obj).root_block
    victim = placement.index_of(root)
    shards_touched = {
        placement.index_of(
            cluster.registry.version(u.version.obj).root_block
        )
        for u in updates
    }
    assert len(shards_touched) > 1, "batch must straddle shards"

    apply_fault(cluster, FaultEvent(0, "pair_down", (victim,)))
    with pytest.raises(ReproError):
        client.commit_group(updates)
    apply_fault(cluster, FaultEvent(0, "pair_up", (victim,)))

    assert [client.read(cap, path) for path in paths] == [b"init"] * 6
    for update in updates:
        assert not update.done
    outcomes = client.commit_group(updates)
    assert all(v == "committed" for v in outcomes.values())
    assert [client.read(cap, path) for path in paths] == [
        b"grp%d" % i for i in range(6)
    ]
    from repro.tools.check import check_cluster

    fsck = check_cluster(cluster)
    assert fsck.ok, "\n".join(fsck.errors)


def test_soak_passes_with_group_commit(soak_seed):
    report = run_soak(SoakConfig(seed=soak_seed, ops=60, group_commit=True))
    assert report.ok, "\n".join(report.violations()) + "\n" + report.repro_line()
    assert report.commits > 0
    assert_replay_spells_config(report)
    assert "group_commit=True" in report.repro_line()


def test_soak_passes_with_group_commit_on_sharded_topology(soak_seed):
    report = run_soak(
        SoakConfig(seed=soak_seed, ops=60, shards=4, group_commit=True)
    )
    assert report.ok, "\n".join(report.violations()) + "\n" + report.repro_line()
    assert report.commits > 0


def test_driver_threads_history_into_service(rng):
    from repro.verify.history import HistoryRecorder, check_history
    from repro.workloads.driver import AmoebaAdapter, run_workload
    from repro.workloads.generators import uniform_workload

    cluster = build_cluster(seed=17)
    adapter = AmoebaAdapter(cluster.fs())
    workload = uniform_workload(rng, clients=2, txns_per_client=3, n_pages=8)
    history = HistoryRecorder()
    result = run_workload(adapter, workload, 8, cluster.network, history=history)
    assert result.committed > 0
    assert len(history.events) > 0
    assert any(e.kind == "commit" for e in history.events)
    assert check_history(history).ok
