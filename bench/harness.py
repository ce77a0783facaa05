"""One untraced run: a daemon in its own OS process, driven end to end.

Life of a run::

    set-up x3   spawn daemon -> REPRO_SPEC= line -> connect -> preload
                (the median is setup_s; the last deployment is kept)
    measure     warm-up, then the workload's phases, /proc read around them
    crash x2-5  SIGKILL -> restart on the same --seed / --data-dir
                (recovery_s), then read pages cold with the pre-crash
                capabilities and check every byte against the oracle
    teardown    reap the daemon, remove the data directory

All end-to-end metrics come from here, with tracing off.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.client.api import FileClient
from repro.net import connect

from bench import host, stats
from bench.calib import Calibrator
from bench.check import Tally
from bench.daemon import Daemon, wait_table_covers
from bench.workloads import (
    GROUP_SIZE, VERIFIER_OPTIONS, Phase, Recorder, Workload, find_phase,
)

# Set-up and crash-restart are repeated and their medians reported: at
# least (3, 2) times, and while they are short (an empty bulk_recover
# deployment starts in 0.2 s) up to (7, 5) times or (2.0, 2.5) s in all.
SETUP_REPEATS = (3, 7, 2.0)
RESTARTS = (2, 5, 2.5)
# Restarts after the first re-read only this many pages: the first has
# already checked every one.
COLD_SAMPLE = 256


@dataclass
class Result:
    """Everything one run measured."""

    workload: str
    seed: int
    scale: float
    traced: bool
    tally: Tally
    metrics: dict[str, float] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)
    phases: list[Phase] = field(default_factory=list)
    calibration: list = field(default_factory=list)  # [sample end times, durations]
    spin_before: float = 0.0
    spin_after: float = 0.0

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0

    @property
    def noisy(self) -> bool:
        return host.noisy(self.spin_before, self.spin_after)


class Deployment:
    """A running daemon, its data directory and the clients bound to it."""

    def __init__(self, src_dir: Path, data_dir: str, workload: Workload) -> None:
        self.src_dir = src_dir
        self.data_dir = data_dir
        self.workload = workload
        self.daemon: Daemon | None = None
        self.networks: list = []
        self.clients: list = []
        self.setup_s = 0.0

    def start(self, calibrator: Calibrator) -> "Deployment":
        """spawn -> spec line -> connect -> preload, timed as set-up (less
        the calibrator's turns between preloaded files)."""
        started = time.perf_counter()
        self.daemon = Daemon.launch(self.src_dir, self.workload.seed, self.data_dir)
        self.clients = [
            self.client(f"bench-{i}", **self.workload.client_options)
            for i in range(self.workload.threads)
        ]
        turns: list[float] = []
        self.workload.preload(self.clients[0], lambda: turns.append(calibrator.tick()))
        self.setup_s = time.perf_counter() - started - sum(turns)
        return self

    def client(self, node: str, **options):
        """A FileClient on a connection of its own."""
        network, service_port = connect(self.daemon.spec)
        self.networks.append(network)
        return FileClient(network, node, service_port, **options)

    def crash_and_restart(self) -> float:
        """``kill -9`` the daemon and start it again on the same seed and
        data directory; returns SIGKILL -> REPRO_SPEC= seconds."""
        self._disconnect()
        started = time.perf_counter()
        self.daemon.kill()
        self.daemon = Daemon.launch(self.src_dir, self.workload.seed, self.data_dir)
        return time.perf_counter() - started

    def dir_bytes(self) -> int:
        total = 0
        for folder, _, names in os.walk(self.data_dir):
            for name in names:
                try:
                    total += os.path.getsize(os.path.join(folder, name))
                except FileNotFoundError:
                    pass  # a temp file renamed away under the walk
        return total

    def _disconnect(self) -> None:
        for network in self.networks:
            network.close()
        self.networks = []
        self.clients = []

    def close(self) -> None:
        """Reap the daemon and remove its data, also after a failure."""
        self._disconnect()
        if self.daemon is not None:
            self.daemon.stop()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def run_untraced(
    workload_cls: type[Workload],
    seed: int,
    scale: float,
    src_dir: Path,
    out_dir: Path,
    setup_repeats: tuple = SETUP_REPEATS,
    restarts: tuple = RESTARTS,
) -> Result:
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    tally = Tally()
    result = Result(workload_cls.name, seed, scale, traced=False, tally=tally)
    result.spin_before = host.spin_kops()
    calibrator = Calibrator()
    deployment = None
    try:
        setups: list[Timed] = []
        while _again(setups, setup_repeats):
            if deployment is not None:
                deployment.close()
            deployment = Deployment(
                src_dir, os.path.join(run_dir, f"data{len(setups)}"),
                workload_cls(seed, scale),
            )
            setups.append(_bracketed(calibrator, lambda: deployment.start(calibrator).setup_s))
        workload = deployment.workload
        daemon = deployment.daemon

        recorder = Recorder(tally, calibrator=calibrator)
        cost: dict[str, float] = {}

        def measure_start() -> None:
            cost.update(cpu0=daemon.cpu_seconds(), t0=time.perf_counter())
            calibrator.probe = daemon.cpu_seconds

        def measure_end() -> None:
            calibrator.probe = None
            cost.update(
                cpu1=daemon.cpu_seconds(),
                t1=time.perf_counter(),
                wchar=daemon.write_chars(),
                rss=daemon.rss_hwm_mib(),
                dir_bytes=deployment.dir_bytes(),
            )

        recorder.on_measure_start = measure_start
        recorder.on_measure_end = measure_end
        workload.run(deployment.clients, recorder)
        workload.client_stats = [client.stats for client in deployment.clients]
        if workload.verify_live:
            workload.verify(
                deployment.client("bench-verify", **VERIFIER_OPTIONS),
                recorder, "verify",
            )

        # Files exist after a restart only once the daemon's TABLE checkpoint
        # has covered their create_file (commits need no such wait).
        wait_table_covers(deployment.data_dir, workload.last_create_ns)
        recoveries: list[Timed] = []
        while _again(recoveries, restarts):
            recoveries.append(_bracketed(calibrator, deployment.crash_and_restart))
            verifier = deployment.client("bench-verify", **VERIFIER_OPTIONS)
            recorder.begin_phase(f"cold{len(recoveries)}")
            # The first restart checks every page; later ones a sample.
            workload.verify(
                verifier, recorder, "cold",
                limit=None if len(recoveries) == 1 else COLD_SAMPLE,
            )
            recorder.end_phase()

        result.phases = recorder.phases
        result.calibration = [calibrator.times, calibrator.durations]
        result.extras.update(
            journal_sync=daemon.startup.sync_primitive,
            journal_sync_us=daemon.startup.sync_us,
            recovered_files=deployment.daemon.startup.recovered_files,
        )
        result.metrics = end_to_end(result, workload, calibrator, setups, recoveries, cost)
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    result.spin_after = host.spin_kops()
    return result


@dataclass
class Timed:
    """One long step: its raw seconds and the host's slowness around it."""

    seconds: float
    slowness: float

    @property
    def normalised(self) -> float:
        return self.seconds / self.slowness


def _bracketed(calibrator: Calibrator, step) -> Timed:
    """Run ``step()`` (which returns its own duration) between two bursts
    of calibration samples."""
    mark = time.perf_counter()
    calibrator.burst()
    seconds = step()
    calibrator.burst()
    return Timed(seconds, calibrator.slowness(mark, time.perf_counter()))


def _again(samples: list[Timed], rule: tuple) -> bool:
    """Repeat at least ``least`` times, then while the samples are short,
    up to ``most`` times or ``budget`` seconds in all."""
    least, most, budget = rule
    spent = sum(sample.seconds for sample in samples)
    return len(samples) < least or (len(samples) < most and spent < budget)


def end_to_end(
    result: Result,
    workload: Workload,
    calibrator: Calibrator,
    setups: list[Timed],
    recoveries: list[Timed],
    cost: dict[str, float],
) -> dict[str, float]:
    """The gated metrics, each defined the same way on every workload.

    Every time is divided by the host's slowness when it was measured
    (see ``calib.py``): an operation's latency by the slowness around it,
    elapsed and CPU time step by step.  The raw values go to the report.
    """
    primary = find_phase(result.phases, workload.primary)
    measured = [p for p in result.phases if not p.name.startswith("cold")]
    cold_phases = [p for p in result.phases if p.name.startswith("cold")]
    latencies = primary.pooled()
    normalised = [x / calibrator.slowness_at(when) for when, x in primary.completions()]
    busy_share = primary.busy_seconds(workload.threads) / primary.seconds
    busy_normalised = calibrator.normalised_seconds(primary.start, primary.end) * busy_share
    cpu_readings = [(cost["t0"], cost["cpu0"]), *calibrator.probed, (cost["t1"], cost["cpu1"])]
    slow_primary = calibrator.slowness(primary.start, primary.end)
    cold = [
        x / calibrator.slowness(p.start, p.end) for p in cold_phases for x in p.pooled()
    ]
    ops_measured = sum(p.ops for p in measured)
    user_bytes = workload.user_bytes
    raw = {
        "setup_s": statistics.median([t.seconds for t in setups]),
        "op_per_s": primary.ops / primary.busy_seconds(workload.threads),
        "op_p50_ms": stats.percentile(latencies, 50) * 1e3,
        "op_p95_ms": stats.percentile(latencies, 95) * 1e3,
        "recovery_s": statistics.median([t.seconds for t in recoveries]),
        "server_cpu_ms_per_op": (cost["cpu1"] - cost["cpu0"]) * 1e3 / ops_measured,
    }
    metrics = {
        "setup_s": statistics.median([t.normalised for t in setups]),
        "op_per_s": primary.ops / busy_normalised,
        "op_p50_ms": stats.percentile(normalised, 50) * 1e3,
        "op_p95_ms": stats.percentile(normalised, 95) * 1e3,
        "server_cpu_ms_per_op": calibrator.normalised(cpu_readings) * 1e3 / ops_measured,
        "server_rss_mib": cost["rss"],
        "space_amplification": cost["dir_bytes"] / user_bytes,
        "write_bytes_per_user_byte": cost["wchar"] / user_bytes,
    }
    result.extras.update({f"raw.{name}": value for name, value in raw.items()})
    result.extras.update(
        # Reported only.  Restarting a small store is process start-up and
        # a thousand small file reads, which repeated within +-30 % whatever
        # it was normalised by; mixed_contended has 16 pages to read cold
        # after a restart, and a median of 32 samples repeated no better.
        recovery_s=statistics.median([t.normalised for t in recoveries]),
        cold_read_p50_ms=stats.percentile(cold, 50) * 1e3 if cold else None,
        host_slowness=slow_primary,
        calibration_samples=len(calibrator.durations),
        setup_s_samples=[t.seconds for t in setups],
        recovery_s_samples=[t.seconds for t in recoveries],
        op_samples=len(latencies),
        op_p95_samples_beyond=stats.samples_beyond(len(latencies), 95),
        cold_read_samples=len(cold),
        user_bytes=user_bytes,
        ops_measured=ops_measured,
        cut_short=[p.name for p in result.phases if p.cut_short],
    )
    result.extras.update(named_extras(result.phases, workload))
    return metrics


def named_extras(phases: list[Phase], workload: Workload) -> dict[str, object]:
    """Per-kind figures under the names the issue gave them: reported in
    the text output, not gated (a gated metric must exist on every
    workload)."""
    extras: dict[str, object] = {}
    for phase in phases:
        if phase.name.startswith("cold"):
            continue
        for kind, values in phase.latencies.items():
            weight = GROUP_SIZE if kind == "group" else 1
            prefix = f"{phase.name}.{kind}"
            extras[f"{prefix}_per_s"] = len(values) * weight / phase.seconds
            extras[f"{prefix}_p50_ms"] = stats.percentile(values, 50) * 1e3
            pct = stats.supported_percentile(len(values))
            extras[f"{prefix}_p{pct:g}_ms"] = stats.percentile(values, pct) * 1e3
            extras[f"{prefix}_samples"] = len(values)
    extras.update(workload.extras(phases))
    return extras
