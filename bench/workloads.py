"""The four workloads: what each one loads, runs and verifies.

Closed loop everywhere: a client thread issues its next operation when
the previous one has returned, as the paper's synchronous library caller
does.  A workload only ever touches the public client facade
(``FileClient.create_file / begin / transact / read / commit_group`` and
``ClientUpdate.*``), so it runs unchanged against a daemon in another
process (``run.py``) and against an in-process cluster (``--trace 1``).

An *operation* is one call on that facade: a ``read()``, a ``transact()``
with its redo loop, or — in ``bulk_recover``, where one update carries
32 pages — each ``create_file`` / ``begin`` / ``append_page`` /
``commit`` call.  Operation counts are constants below, identical on both
sides of a comparison and sized so that on the seed commit the measured
part of a run takes about 75 % of :data:`NOMINAL_SECONDS`; ``--seconds``
scales them all by one factor and is also the hard limit of the measured
part, so a slow spell of the machine shortens a run instead of stretching
it past the driver's time limit.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field

from repro.core.pathname import PagePath

from bench.check import (
    COUNTER_BYTES,
    CounterOracle,
    PageOracle,
    Tally,
    decode_counter,
    encode_counter,
    page_bytes,
)

# The run length the op counts below were sized for (seed commit, 2-core VM).
NOMINAL_SECONDS = 20
WARMUP_SHARE = 0.05
GROUP_SIZE = 8


# What Recorder.timed returns for an operation that raised.
FAILED = object()
# The client that verifies (before and after a restart) is never cached.
VERIFIER_OPTIONS = {"use_cache": False}


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


@dataclass
class Phase:
    """One timed stretch of a run and the latencies recorded in it."""

    name: str
    start: float = 0.0
    end: float = 0.0
    ops: int = 0  # operations completed (a group of 8 counts 8)
    payload: int = 0  # user bytes those operations wrote or read
    calibration_s: float = 0.0  # spent in the host-speed reference loop
    latencies: dict[str, list[float]] = field(default_factory=dict)
    ends: dict[str, list[float]] = field(default_factory=dict)  # when each returned
    cut_short: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def busy_seconds(self, threads: int = 1) -> float:
        """The phase's length without the calibration samples its
        ``threads`` client threads took turns to run."""
        return self.seconds - self.calibration_s / threads

    def pooled(self) -> list[float]:
        return [x for values in self.latencies.values() for x in values]

    def completions(self) -> list[tuple[float, float]]:
        """``(when it returned, latency)`` of every operation."""
        return [
            pair for kind, values in self.latencies.items()
            for pair in zip(self.ends[kind], values)
        ]


def find_phase(phases: list[Phase], name: str) -> Phase:
    for phase in phases:
        if phase.name == name:
            return phase
    raise KeyError(f"no phase {name!r} was recorded")


class Recorder:
    """Times operations, tallies failures and groups them into phases.

    The runner sets ``on_measure_start`` / ``on_measure_end`` to read cost
    counters around the measured part; a tracer, when given, is told each
    operation's interval so spans can be attributed to it; a calibrator,
    when given, gets a turn between operations (see ``calib.py``).
    """

    def __init__(self, tally: Tally, tracer=None, calibrator=None) -> None:
        self.tally = tally
        self.tracer = tracer
        self.calibrator = calibrator
        self.phases: list[Phase] = []
        self.on_measure_start = lambda: None
        self.on_measure_end = lambda: None
        self._phase: Phase | None = None
        self._lock = threading.Lock()

    def begin_phase(self, name: str) -> Phase:
        self._phase = Phase(name, start=time.perf_counter())
        self.phases.append(self._phase)
        return self._phase

    def end_phase(self) -> None:
        self._phase.end = time.perf_counter()
        self._phase = None

    def moved(self, count: int) -> None:
        """Note user bytes the operation just timed wrote or read."""
        if self._phase is not None:
            with self._lock:
                self._phase.payload += count

    def timed(self, kind: str, fn, *args, weight: int = 1):
        """Run one operation (``weight`` of them, for a group); returns its
        result, or :data:`FAILED` after recording the failure.  Outside a
        phase (warm-up) the latency is not kept."""
        phase = self._phase
        tracer = self.tracer
        self.tally.attempt(weight)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any error is a failed operation
            self.tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return FAILED
        end = time.perf_counter()
        if phase is not None:
            with self._lock:
                phase.latencies.setdefault(kind, []).append(end - start)
                phase.ends.setdefault(kind, []).append(end)
                phase.ops += weight
            if tracer is not None:
                tracer.mark_op(kind, start, end, weight)
        if self.calibrator is not None:
            spent = self.calibrator.tick()
            if spent and phase is not None:
                with self._lock:
                    phase.calibration_s += spent
        return result


class Workload:
    """Base: seeded inputs, a preload, a measured run and a verification."""

    name = ""
    threads = 1  # client threads (the traced run overrides this to 1)
    primary = "main"  # the phase op_per_s / op_p50_ms / op_p95_ms describe
    primary_kinds: frozenset = frozenset()  # the operation kinds of that phase
    verify_live = False  # also verify before the crash, not only after it

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(f"{self.name}/{seed}")
        self.last_create_ns = 0
        self.client_stats: list = []  # FileClient.stats of the driving clients

    # Keyword arguments of every FileClient the workload drives.
    client_options: dict = {"use_cache": False}

    def preload(self, client, pause=lambda: None) -> None:
        """Create what the run needs; ``pause()`` after each file gives
        the host-speed calibrator a turn."""
        raise NotImplementedError

    def run(self, clients: list, recorder: Recorder) -> None:
        raise NotImplementedError

    def verify(self, client, recorder: Recorder, kind: str, limit: int | None = None) -> None:
        raise NotImplementedError

    @property
    def user_bytes(self) -> int:
        """Payload bytes acknowledged as committed, preload included."""
        raise NotImplementedError

    def extras(self, phases: list[Phase]) -> dict[str, float]:
        """Workload-specific figures for the text report (not gated)."""
        return {}

    def _created(self) -> None:
        self.last_create_ns = time.time_ns()

    def _start_measuring(self, recorder: Recorder) -> None:
        recorder.on_measure_start()
        self._measure_from = time.perf_counter()

    def _phase(self, recorder: Recorder, name: str, items, step, share: float = 1.0) -> None:
        """Run ``step(item)`` over ``items`` as one phase, cut short once
        ``share`` of the measured part's time limit has passed."""
        until = self._measure_from + share * NOMINAL_SECONDS * self.scale
        phase = recorder.begin_phase(name)
        for item in items:
            step(item)
            if time.perf_counter() > until:
                phase.cut_short = True
                break
        recorder.end_phase()


class _PagedWorkload(Workload):
    """Files of equally sized pages below the root, checked by a PageOracle."""

    files = 0
    pages = 0
    page_size = 1024

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.oracle = PageOracle()
        self.caps: list = []
        self.versions: dict[tuple[int, int], int] = {}

    @property
    def user_bytes(self) -> int:
        return self.oracle.user_bytes

    def _next_bytes(self, key: tuple[int, int]) -> bytes:
        version = self.versions.get(key, 0) + 1
        self.versions[key] = version
        return page_bytes(self.seed, key[0], key[1], version, self.page_size)

    def _create_filled(self, client, file_no: int) -> None:
        root = PagePath.ROOT
        writes = {(file_no, p): self._next_bytes((file_no, p)) for p in range(self.pages)}
        cap = client.create_file(b"")

        def fill(update):
            for page_no in range(self.pages):
                update.append_page(root, writes[(file_no, page_no)])

        client.transact(cap, fill)
        self.caps.append(cap)
        self.oracle.acknowledge(writes)
        self._created()

    def preload(self, client, pause=lambda: None) -> None:
        for file_no in range(self.files):
            self._create_filled(client, file_no)
            pause()

    def _overwrite(self, client, recorder: Recorder, key: tuple[int, int], kind: str) -> None:
        path = PagePath.ROOT.child(key[1])
        data = self._next_bytes(key)
        done = recorder.timed(
            kind, client.transact, self.caps[key[0]], lambda u: u.write(path, data)
        )
        if done is not FAILED:
            self.oracle.acknowledge({key: data})
            recorder.moved(len(data))

    def _read(self, client, recorder: Recorder, key: tuple[int, int], kind: str) -> None:
        path = PagePath.ROOT.child(key[1])
        data = recorder.timed(kind, client.read, self.caps[key[0]], path)
        if data is not FAILED:
            self.oracle.verify(key, data, recorder.tally, kind)
            recorder.moved(len(data))

    def verify(self, client, recorder: Recorder, kind: str, limit: int | None = None) -> None:
        keys = sorted(self.oracle.pages)
        random.Random(f"verify/{self.seed}/{kind}").shuffle(keys)
        for key in keys[:limit]:
            self._read(client, recorder, key, kind)


class CommitDurable(_PagedWorkload):
    """Single-page 1 KiB overwrites, then grouped batches.  Why: the
    smallest durable update is where per-commit fixed cost (RPC count,
    companion protocol, journal syncs, block files) is everything and
    payload nothing."""

    name = "commit_durable"
    files = 8
    pages = 8
    primary = "singles"
    primary_kinds = frozenset({"commit"})
    SINGLES = 875  # issue: 1500
    GROUPS = 18  # issue: 60 batches of 8

    def run(self, clients: list, recorder: Recorder) -> None:
        client = clients[0]
        singles = scaled(self.SINGLES, self.scale)
        warm = math.ceil(WARMUP_SHARE * singles)
        keys = [
            (self.rng.randrange(self.files), self.rng.randrange(self.pages))
            for _ in range(warm + singles)
        ]
        overwrite = lambda key: self._overwrite(client, recorder, key, "commit")
        for key in keys[:warm]:
            overwrite(key)
        self._start_measuring(recorder)
        self._phase(recorder, "singles", keys[warm:], overwrite, share=0.88)
        # Grouped commits exercise the same disk and service code through
        # write_many and one critical section; reported, not gated.
        client.prefer_server = client.ping()
        self._phase(
            recorder, "grouped", range(scaled(self.GROUPS, self.scale)),
            lambda _: self._group(client, recorder),
        )
        recorder.on_measure_end()

    def extras(self, phases: list[Phase]) -> dict[str, float]:
        grouped = find_phase(phases, "grouped")
        return {"group_commit_per_s": grouped.ops / grouped.seconds}

    def _group(self, client, recorder: Recorder) -> None:
        root = PagePath.ROOT
        writes = {}
        for file_no in self.rng.sample(range(self.files), GROUP_SIZE):
            key = (file_no, self.rng.randrange(self.pages))
            writes[key] = self._next_bytes(key)

        def batch():
            updates = []
            for (file_no, page_no), data in writes.items():
                update = client.begin(self.caps[file_no])
                update.write(root.child(page_no), data)
                updates.append(update)
            outcomes = client.commit_group(updates)
            bad = {k: v for k, v in outcomes.items() if v != "committed"}
            if bad or len(outcomes) != len(updates):
                raise RuntimeError(f"group outcomes {outcomes}")
            return outcomes

        if recorder.timed("group", batch, weight=GROUP_SIZE) is not FAILED:
            self.oracle.acknowledge(writes)
            recorder.moved(sum(len(data) for data in writes.values()))


class ReadHot(_PagedWorkload):
    """Uncached reads of a set that fits the server cache.  Why: no OCC,
    no disk — only client, wire codec, transport and the service read
    path, at the message size where per-message cost dominates."""

    name = "read_hot"
    files = 64
    pages = 8
    READS = 12000  # issue: 30000
    primary_kinds = frozenset({"read"})

    def run(self, clients: list, recorder: Recorder) -> None:
        client = clients[0]
        reads = scaled(self.READS, self.scale)
        warm = math.ceil(WARMUP_SHARE * reads)
        keys = [
            (self.rng.randrange(self.files), self.rng.randrange(self.pages))
            for _ in range(warm + reads)
        ]
        read = lambda key: self._read(client, recorder, key, "read")
        for key in keys[:warm]:
            read(key)
        self._start_measuring(recorder)
        self._phase(recorder, "main", keys[warm:], read)
        recorder.on_measure_end()


class MixedContended(Workload):
    """Two clients on 16 Zipf-chosen counter files, 80 % reads.  Why: the
    only write/write conflicts, redo loops, lease traffic and reads
    queued behind commits on the dispatch lock."""

    name = "mixed_contended"
    threads = 2
    primary_kinds = frozenset({"read", "commit"})
    verify_live = True
    files = 16
    ZIPF = 1.1
    READ_SHARE = 0.8
    OPS_PER_CLIENT = 1900  # issue: 4500
    MAX_REDOS = 64
    client_options = {"lease_ticks": 20_000}  # default client: cache on

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.oracle = CounterOracle(self.files)
        self.caps: list = []

    @property
    def user_bytes(self) -> int:
        return self.oracle.user_bytes

    def preload(self, client, pause=lambda: None) -> None:
        for _ in range(self.files):
            self.caps.append(client.create_file(encode_counter(0)))
            self._created()
            pause()

    def run(self, clients: list, recorder: Recorder) -> None:
        ops = scaled(self.OPS_PER_CLIENT, self.scale)
        warm = math.ceil(WARMUP_SHARE * ops)
        weights = [1.0 / (rank + 1) ** self.ZIPF for rank in range(self.files)]
        barrier = threading.Barrier(len(clients) + 1)
        until = [0.0]
        cut_short = []

        def worker(index: int, client) -> None:
            rng = random.Random(f"{self.name}/{self.seed}/{index}")
            plan = [
                (rng.choices(range(self.files), weights)[0], rng.random() < self.READ_SHARE)
                for _ in range(warm + ops)
            ]
            seen = [0] * self.files
            for file_no, is_read in plan[:warm]:
                self._one(client, recorder, file_no, is_read, seen)
            barrier.wait()  # everyone warm: the main thread opens the phase
            barrier.wait()
            for file_no, is_read in plan[warm:]:
                self._one(client, recorder, file_no, is_read, seen)
                if time.perf_counter() > until[0]:
                    cut_short.append(index)
                    break

        threads = [
            threading.Thread(target=worker, args=(i, c), name=f"bench-client-{i}")
            for i, c in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        self._start_measuring(recorder)
        until[0] = self._measure_from + NOMINAL_SECONDS * self.scale
        phase = recorder.begin_phase("main")
        barrier.wait()
        for thread in threads:
            thread.join()
        recorder.end_phase()
        phase.cut_short = bool(cut_short)
        recorder.on_measure_end()

    def extras(self, phases: list[Phase]) -> dict[str, float]:
        total = lambda name: sum(getattr(s, name) for s in self.client_stats)
        reads = total("cache_hits") + total("cache_misses")
        return {
            "redo_per_commit": total("redos") / max(1, total("commits")),
            "cache_hit_ratio": total("cache_hits") / max(1, reads),
            "lease_hit_ratio": total("lease_hits") / max(1, reads),
        }

    def _one(self, client, recorder: Recorder, file_no: int, is_read: bool, seen: list[int]) -> None:
        root = PagePath.ROOT
        cap = self.caps[file_no]
        if is_read:
            raw = recorder.timed("read", client.read, cap)
            if raw is FAILED:
                return
            value = decode_counter(raw)
            # A client's view of one counter never moves backwards.
            if len(raw) != COUNTER_BYTES or value < seen[file_no]:
                recorder.tally.fail(
                    f"read: counter {file_no} went from {seen[file_no]} to {value}"
                )
                return
            seen[file_no] = value
            recorder.moved(len(raw))
            return

        def increment(update):
            value = decode_counter(update.read(root)) + 1
            update.write(root, encode_counter(value))
            return value

        value = recorder.timed("commit", client.transact, cap, increment, self.MAX_REDOS)
        if value is not FAILED:
            self.oracle.acknowledge()
            seen[file_no] = max(seen[file_no], value)
            recorder.moved(COUNTER_BYTES)

    def verify(self, client, recorder: Recorder, kind: str, limit: int | None = None) -> None:
        values = [recorder.timed(kind, client.read, cap) for cap in self.caps]
        if FAILED not in values:
            self.oracle.verify_sum(values, recorder.tally, kind)


class BulkRecover(_PagedWorkload):
    """New files of 32 x 4 KiB pages, then some overwrites; the runner
    then kills and restarts the daemon.  Why: bytes (codec copies,
    journal, block files, compaction) dominate instead of per-message
    cost, and recovery and cold reads show."""

    name = "bulk_recover"
    files = 0  # nothing preloaded: the run creates the files
    pages = 32
    page_size = 4096
    primary_kinds = frozenset({"create", "begin", "append", "commit"})
    FILES = 100  # issue: 160; one journal compaction per disk falls inside the run
    OVERWRITE_SHARE = 50 / 160

    def run(self, clients: list, recorder: Recorder) -> None:
        client = clients[0]
        files = scaled(self.FILES, self.scale)
        warm = math.ceil(WARMUP_SHARE * files)
        write_file = lambda file_no: self._bulk_file(client, recorder, file_no)
        for file_no in range(warm):
            write_file(file_no)
        self._start_measuring(recorder)
        self._phase(recorder, "main", range(warm, warm + files), write_file, share=0.92)
        written = len(self.caps)
        self._phase(
            recorder, "overwrite",
            self.rng.sample(range(written), round(self.OVERWRITE_SHARE * written)),
            lambda file_no: self._overwrite(client, recorder, (file_no, 0), "overwrite"),
        )
        recorder.on_measure_end()

    def extras(self, phases: list[Phase]) -> dict[str, float]:
        main = find_phase(phases, "main")
        files = len(main.latencies.get("commit", []))
        written = files * self.pages * self.page_size
        return {"bulk_write_mib_per_s": written / main.seconds / 2**20}

    def _bulk_file(self, client, recorder: Recorder, file_no: int) -> None:
        """One 32-page file through explicit facade calls, each an operation."""
        root = PagePath.ROOT
        writes = {(file_no, p): self._next_bytes((file_no, p)) for p in range(self.pages)}
        cap = recorder.timed("create", client.create_file, b"")
        if cap is FAILED:
            return
        self._created()
        update = recorder.timed("begin", client.begin, cap)
        if update is FAILED:
            return
        steps = [
            recorder.timed("append", update.append_page, root, writes[(file_no, p)])
            for p in range(self.pages)
        ]
        if FAILED in steps or recorder.timed("commit", update.commit) is FAILED:
            return
        self.caps.append(cap)
        self.oracle.acknowledge(writes)
        recorder.moved(self.pages * self.page_size)


WORKLOADS = {
    cls.name: cls for cls in (CommitDurable, ReadHot, MixedContended, BulkRecover)
}
