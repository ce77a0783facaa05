"""The cross-system comparison driver.

Runs identical workloads against the Amoeba file service, the XDFS-style
locking baseline and the SWALLOW-style timestamp baseline, interleaving
concurrent clients cooperatively, and reports the outcome in comparable
units.

An adapter maps the driver's page-transaction interface onto one system:

    ctx = adapter.begin()
    adapter.read(ctx, page_index)
    adapter.write(ctx, page_index, data)
    adapter.commit(ctx)   # may raise a redo-signalling error
    adapter.abort(ctx)

``adapter.redo_errors`` names the exception types that mean "redo the whole
transaction", and ``adapter.block_errors`` those that mean "yield and retry
this operation" (2PL lock waits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.capability import Capability
from repro.errors import (
    CommitConflict,
    FileLocked,
    TimestampConflict,
    TransactionAborted,
)
from repro.baselines.locking import LockingFileService, WouldBlock
from repro.baselines.timestamp import TimestampFileService
from repro.core.pathname import PagePath
from repro.core.service import FileService
from repro.sim.sched import Scheduler
from repro.workloads.generators import TxnSpec


@dataclass
class RunResult:
    """What one workload run produced, in comparable units.

    Two time measures matter, and they tell different stories:

    * ``work_ticks`` — total logical work performed by all clients (the
      global clock's advance).  Redone transactions inflate it.
    * ``makespan`` — the *parallel* completion time: every operation's
    	cost is attributed to the client that issued it (the simulation
    	executes operations atomically, so the global clock's delta across
    	an operation is exactly that operation's cost), lock waits charge
    	waiting time, and the makespan is the maximum per-client total.
    	This is where "optimistic concurrency control allows a maximum of
    	concurrency" becomes measurable: blocked clients stretch the
    	makespan without doing work.
    """

    system: str
    committed: int = 0
    redone: int = 0  # transactions that had to be redone at least once
    redo_attempts: int = 0  # total extra attempts
    gave_up: int = 0
    work_ticks: int = 0
    makespan: int = 0
    lock_waits: int = 0
    messages: int = 0
    client_ticks: list[int] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Committed transactions per thousand ticks of parallel time."""
        return 1000.0 * self.committed / self.makespan if self.makespan else 0.0

    @property
    def redo_rate(self) -> float:
        total = self.committed + self.gave_up
        return self.redo_attempts / total if total else 0.0

    @property
    def wasted_fraction(self) -> float:
        """Fraction of attempts that did not commit."""
        attempts = self.committed + self.redo_attempts
        return self.redo_attempts / attempts if attempts else 0.0


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------


class AmoebaAdapter:
    """The system under study: pages are children 0..n-1 of one file."""

    name = "amoeba-occ"
    redo_errors = (CommitConflict, FileLocked)
    block_errors = ()

    def __init__(self, service: FileService, page_size: int = 256) -> None:
        self.service = service
        self.page_size = page_size
        self.file_cap: Capability | None = None

    def setup(self, n_pages: int, initial: bytes | None = None) -> None:
        payload = initial if initial is not None else b"\x00" * self.page_size
        self.file_cap = self.service.create_file(b"workload")
        handle = self.service.create_version(self.file_cap)
        for _ in range(n_pages):
            self.service.append_page(handle.version, PagePath.ROOT, payload)
        self.service.commit(handle.version)

    def begin(self) -> Any:
        return self.service.create_version(self.file_cap)

    def read(self, ctx: Any, index: int) -> bytes:
        return self.service.read_page(ctx.version, PagePath.of(index))

    def write(self, ctx: Any, index: int, data: bytes) -> None:
        self.service.write_page(ctx.version, PagePath.of(index), data)

    def commit(self, ctx: Any) -> None:
        self.service.commit(ctx.version)

    def abort(self, ctx: Any) -> None:
        try:
            self.service.abort(ctx.version)
        except Exception:
            pass

    def read_committed(self, index: int) -> bytes:
        current = self.service.current_version(self.file_cap)
        return self.service.read_page(current, PagePath.of(index))


class FelixAdapter:
    """The FELIX-style baseline: versions guarded by a file-level lock.

    Reuses the Amoeba substrate for storage, so the comparison isolates
    the concurrency-control policy: exclusive per-file updates versus
    optimistic page-level validation."""

    name = "felix-filelock"
    redo_errors = (CommitConflict, FileLocked)
    block_errors = ()  # FileBusy is mapped to block_errors below

    def __init__(self, service: FileService, page_size: int = 256) -> None:
        from repro.baselines.felix import FelixFileService, FileBusy

        self.service = service
        self.felix = FelixFileService(service)
        self.page_size = page_size
        self.file_cap: Capability | None = None
        self.block_errors = (FileBusy,)

    def setup(self, n_pages: int, initial: bytes | None = None) -> None:
        payload = initial if initial is not None else b"\x00" * self.page_size
        self.file_cap = self.service.create_file(b"workload")
        handle = self.service.create_version(self.file_cap)
        for _ in range(n_pages):
            self.service.append_page(handle.version, PagePath.ROOT, payload)
        self.service.commit(handle.version)

    def begin(self) -> Any:
        return self.felix.begin(self.file_cap)

    def read(self, ctx: Any, index: int) -> bytes:
        return self.service.read_page(ctx.version, PagePath.of(index))

    def write(self, ctx: Any, index: int, data: bytes) -> None:
        self.service.write_page(ctx.version, PagePath.of(index), data)

    def commit(self, ctx: Any) -> None:
        self.felix.commit(ctx)

    def abort(self, ctx: Any) -> None:
        try:
            self.felix.abort(ctx)
        except Exception:
            pass

    def read_committed(self, index: int) -> bytes:
        return self.felix.read_committed(self.file_cap, PagePath.of(index))


class LockingAdapter:
    """The XDFS-style 2PL baseline."""

    name = "xdfs-2pl"
    redo_errors = (TransactionAborted,)
    block_errors = (WouldBlock,)

    def __init__(self, service: LockingFileService, page_size: int = 256) -> None:
        self.service = service
        self.page_size = page_size
        self.file_id: int | None = None

    def setup(self, n_pages: int, initial: bytes | None = None) -> None:
        payload = initial if initial is not None else b"\x00" * self.page_size
        self.file_id = self.service.create_file([payload] * n_pages)

    def begin(self) -> Any:
        return self.service.open_transaction()

    def read(self, ctx: Any, index: int) -> bytes:
        return self.service.read(ctx, self.file_id, index)

    def write(self, ctx: Any, index: int, data: bytes) -> None:
        self.service.write(ctx, self.file_id, index, data)

    def commit(self, ctx: Any) -> None:
        self.service.close_transaction(ctx)

    def abort(self, ctx: Any) -> None:
        self.service.abort_transaction(ctx)

    def read_committed(self, index: int) -> bytes:
        return self.service.read_committed(self.file_id, index)


class TimestampAdapter:
    """The SWALLOW-style timestamp baseline."""

    name = "swallow-ts"
    redo_errors = (TimestampConflict, TransactionAborted)
    block_errors = ()

    def __init__(self, service: TimestampFileService, page_size: int = 256) -> None:
        self.service = service
        self.page_size = page_size
        self.file_id: int | None = None

    def setup(self, n_pages: int, initial: bytes | None = None) -> None:
        payload = initial if initial is not None else b"\x00" * self.page_size
        self.file_id = self.service.create_file([payload] * n_pages)

    def begin(self) -> Any:
        return self.service.open_transaction()

    def read(self, ctx: Any, index: int) -> bytes:
        return self.service.read(ctx, self.file_id, index)

    def write(self, ctx: Any, index: int, data: bytes) -> None:
        self.service.write(ctx, self.file_id, index, data)

    def commit(self, ctx: Any) -> None:
        self.service.close_transaction(ctx)

    def abort(self, ctx: Any) -> None:
        self.service.abort_transaction(ctx)

    def read_committed(self, index: int) -> bytes:
        return self.service.read_committed(self.file_id, index)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


class _Meter:
    """Attributes global-clock deltas to one client."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.total = 0

    def charge(self, fn, *args):
        before = self.clock.now
        try:
            return fn(*args)
        finally:
            self.total += self.clock.now - before


def _client_script(
    adapter, specs: list[TxnSpec], result: RunResult, meter: "_Meter", max_redos: int
):
    """One client's life as a schedulable generator."""
    for spec in specs:
        attempts = 0
        while True:
            attempts += 1
            try:
                ctx = yield from _retrying(adapter, meter, result, adapter.begin)
                for index in spec.reads:
                    yield from _retrying(adapter, meter, result, adapter.read, ctx, index)
                for index in spec.writes:
                    payload = _payload(adapter.page_size, index, attempts)
                    yield from _retrying(
                        adapter, meter, result, adapter.write, ctx, index, payload
                    )
                yield
                yield from _retrying(adapter, meter, result, adapter.commit, ctx)
            except adapter.redo_errors:
                meter.charge(adapter.abort, ctx)
                result.redo_attempts += 1
                if attempts == 1:
                    result.redone += 1
                if attempts > max_redos:
                    result.gave_up += 1
                    break
                yield
                continue
            result.committed += 1
            break
        yield


# Minimum logical ticks charged per lock-wait poll, so that vulnerable-lock
# timers advance even when every client is blocked.
_WAIT_TICKS = 50


def _retrying(adapter, meter: "_Meter", result: RunResult, op, *args):
    """Run one operation, yielding and retrying through lock waits;
    returns the operation's result.

    A blocked client is charged the *real* time that passes while it
    waits: the global clock's advance between polls (the lock holder's
    work happening meanwhile), with a small floor so deadlock timers move
    even when nothing else runs.  Without this, blocking would look almost
    free and no locking-versus-optimism comparison could be honest.
    """
    waits = 0
    while True:
        try:
            return meter.charge(op, *args)
        except adapter.block_errors:
            waits += 1
            result.lock_waits += 1
            if waits > 10_000:
                raise TransactionAborted("starved waiting for locks")
            blocked_since = meter.clock.now
            meter.clock.advance(_WAIT_TICKS)
            yield
            meter.total += meter.clock.now - blocked_since


def _payload(size: int, index: int, attempt: int) -> bytes:
    stamp = f"p{index}a{attempt}".encode()
    return (stamp * (size // len(stamp) + 1))[:size]


def run_workload(
    adapter,
    workload: list[list[TxnSpec]],
    n_pages: int,
    network,
    max_redos: int = 32,
    order=None,
    recorder=None,
    history=None,
) -> RunResult:
    """Run ``workload`` (one transaction list per client) to completion.

    Counts only the work done by the run itself: counters are measured as
    deltas around it.  ``order`` optionally drives the interleaving (for
    property tests); the default is round-robin.

    ``history`` (a :class:`repro.verify.history.HistoryRecorder`) attaches
    operation-history recording to the adapter's file service for the
    duration of the run, so any driver workload can be fed through
    :func:`repro.verify.history.check_history` afterwards.  Only adapters
    backed by the Amoeba :class:`~repro.core.service.FileService` record;
    the baselines silently ignore it.

    With a live ``recorder`` (normally the same one the cluster under the
    adapter was built with), the run is wrapped in a ``workload`` span.
    """
    if recorder is None:
        from repro.obs import NULL_RECORDER

        recorder = NULL_RECORDER
    if history is not None:
        service = getattr(adapter, "service", None)
        if isinstance(service, FileService):
            service.history = history
    adapter.setup(n_pages)
    result = RunResult(system=adapter.name)
    net_before = network.stats.snapshot()
    ticks_before = network.clock.now
    scheduler = Scheduler()
    meters = []
    with recorder.span("workload", system=adapter.name, clients=len(workload)):
        for client_id, specs in enumerate(workload):
            meter = _Meter(network.clock)
            meters.append(meter)
            scheduler.spawn(
                f"{adapter.name}-client{client_id}",
                _client_script(adapter, specs, result, meter, max_redos),
            )
        scheduler.run(order=order)
    result.work_ticks = network.clock.now - ticks_before
    result.client_ticks = [meter.total for meter in meters]
    result.makespan = max(result.client_ticks, default=0)
    delta = network.stats.delta(net_before)
    result.messages = delta.messages
    return result
