"""Concurrency barrage for the socket daemon.

What the daemon promises, each under deliberate stress:

* ~200 simultaneous connections with mixed reads and commits in flight —
  every request gets exactly one reply, none dropped, busy-retries
  bounded (zero, with the default lock timeout);
* pipelined calls on one connection come back in FIFO order even when
  lock-free reads are interleaved with slower mutating commands;
* a daemon killed mid-pipeline ends the in-flight calls with a
  connection error (never a wrong or silently missing reply) and the
  workload completes through the companion with a serializable history;
* a long-running commit holding the dispatch lock must not cause a
  read (``read_current``) on the same port to answer busy/MessageDropped
  — the regression the lock-free read path exists to prevent;
* lock-free reads racing commits, aborts and group commits on two file
  servers never return a stale current version, whether the file table
  named it or a chase found it.  The explore scheduler interleaves only
  at RPC boundaries, so only real threads can reach this race.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.core.pathname import PagePath
from repro.errors import MessageDropped, ServerUnreachable
from repro.net import NetServer, build_tcp_cluster, wire
from repro.obs import Recorder
from repro.sim.rpc import _registry, command, dispatcher, failover_order
from repro.verify.history import HistoryRecorder, check_history

ROOT = PagePath.ROOT


def _service_address(cluster):
    """TCP address of the first file-server daemon."""
    network = cluster.network
    node = failover_order(_registry(network)[cluster.service_port], None)[0]
    return network.address_of(node)


class _Pipeline:
    """A socket driven frame by frame.  The client library sends one
    request per connection at a time; the daemon's promise about a
    pipeline — every request answered once, in request order — is
    checked here from outside it."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.assembler = wire.FrameAssembler()
        self.frames = []
        self.next_id = 1

    def submit(self, sender, command, params):
        """Write one request frame; returns its request id."""
        request_id = self.next_id
        self.next_id += 1
        self.sock.sendall(
            wire.encode_request(sender, command, params, request_id=request_id)
        )
        return request_id

    def result(self, request_id):
        """(frame type, body) of the next frame, which must answer
        ``request_id``."""
        while not self.frames:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionResetError("daemon hung up mid-pipeline")
            self.frames.extend(self.assembler.feed(chunk))
        frame_type, reply_id, body = self.frames.pop(0)
        assert reply_id == request_id, "answered out of request order"
        return frame_type, body

    def close(self):
        self.sock.close()


# -- ~200 simultaneous connections, mixed reads and commits -----------------


def test_connection_barrage_no_response_dropped():
    """200 pipelined read connections and 4 committer clients at once:
    every submitted request is answered exactly once, the client- and
    server-side request counts agree (nothing dropped), and no busy
    signal fires."""
    CONNECTIONS = 200
    READS_PER_CONNECTION = 5
    COMMITTERS = 4
    COMMITS_EACH = 3

    recorder = Recorder()
    cluster = build_tcp_cluster(servers=2, seed=77, recorder=recorder)
    try:
        network = cluster.network
        seed_client = cluster.client("seed", use_cache=False)
        cap = seed_client.create_file(b"barrage")
        seed_client.transact(cap, lambda u: u.write(ROOT, b"barrage data"))
        address = _service_address(cluster)

        errors: list[BaseException] = []
        replies = [0] * CONNECTIONS

        def read_worker(index: int) -> None:
            try:
                conn = _Pipeline(address)
                try:
                    ids = [
                        conn.submit(
                            f"conn{index}",
                            "read_current",
                            {"file_cap": cap, "path": str(ROOT)},
                        )
                        for _ in range(READS_PER_CONNECTION)
                    ]
                    for rid in ids:
                        frame_type, body = conn.result(rid)
                        assert frame_type == wire.FRAME_REPLY, wire.decode_error(
                            body
                        )
                        assert wire.decode_value(body)[0] == b"barrage data"
                        replies[index] += 1
                finally:
                    conn.close()
            except BaseException as exc:  # surface, don't swallow
                errors.append(exc)

        def commit_worker(index: int) -> None:
            try:
                client = cluster.client(f"committer{index}", use_cache=False)
                mine = client.create_file(b"committer %d" % index)
                for round_ in range(COMMITS_EACH):
                    client.transact(
                        mine,
                        lambda u, r=round_: u.write(
                            ROOT, b"commit %d by %d" % (r, index)
                        ),
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=read_worker, args=(i,))
            for i in range(CONNECTIONS)
        ] + [
            threading.Thread(target=commit_worker, args=(i,))
            for i in range(COMMITTERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]
        assert replies == [READS_PER_CONNECTION] * CONNECTIONS

        counters = recorder.metrics.counters
        busy = counters.get("net.tcp.busy")
        assert busy is None or busy.value == 0
        drops = counters.get("rpc.retries")
        assert drops is None or drops.value == 0
    finally:
        cluster.stop()


# -- per-connection FIFO across lock-free and locked commands ---------------


class SplitServer:
    """One lock-free command, one behind the dispatch lock, with skewed
    runtimes — FIFO replies are only observable if the daemon actually
    answers in request order."""

    def __init__(self):
        self.name = "split"

    @command(read_only=True)
    def cmd_read(self, value):
        return ("read", value)

    def cmd_mutate(self, value):  # dispatch lock
        time.sleep(0.01)
        return ("mutate", value)


def test_pipelined_replies_are_fifo_per_connection():
    assert SplitServer.cmd_read.read_only
    daemon = NetServer("split", dispatcher(SplitServer(), 0x42)).start()
    try:
        with socket.create_connection(daemon.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Interleave slow mutating calls with fast reads: replies
            # must come back in submission order.
            expected = []
            for i in range(20):
                command = "mutate" if i % 3 == 0 else "read"
                sock.sendall(
                    wire.encode_request(
                        "c", command, {"value": i}, request_id=i + 1
                    )
                )
                expected.append((i + 1, command))
            assembler = wire.FrameAssembler()
            got = []
            while len(got) < 20:
                chunk = sock.recv(1 << 16)
                assert chunk, "daemon hung up mid-pipeline"
                for frame_type, rid, body in assembler.feed(chunk):
                    assert frame_type == wire.FRAME_REPLY
                    kind, value = wire.decode_value(body)
                    got.append((rid, kind, value))
            assert [(rid, kind) for rid, kind, _ in got] == expected
            assert [value for _, _, value in got] == list(range(20))
    finally:
        daemon.stop()


# -- kill the daemon mid-pipeline -------------------------------------------


def test_kill_daemon_mid_pipeline_fails_over_cleanly():
    """Crash the preferred file-server daemon while pipelined calls are
    in flight: the pending calls surface as connection errors (never a
    fabricated reply), and a normal client completes the workload through
    the replica with a serializable recorded history."""
    recorder = Recorder()
    history = HistoryRecorder()
    cluster = build_tcp_cluster(servers=2, seed=29, recorder=recorder, history=history)
    try:
        client = cluster.client("host", history=history)
        caps = [client.create_file(b"file %d" % i) for i in range(3)]
        for i, cap in enumerate(caps):
            client.transact(cap, lambda u, i=i: u.write(ROOT, b"pre %d" % i))

        address = _service_address(cluster)
        conn = _Pipeline(address)
        try:
            ids = [
                conn.submit(
                    "pipeliner",
                    "read_current",
                    {"file_cap": caps[0], "path": str(ROOT)},
                )
                for _ in range(32)
            ]
            cluster.fs(0).crash()  # abortive close under the pipeline
            outcomes = {"replied": 0, "errored": 0, "poisoned": 0}
            # The daemon may have served all 32 before the crash landed;
            # a call sent after it observes the crash whatever the timing.
            try:
                ids.append(
                    conn.submit(
                        "pipeliner",
                        "read_current",
                        {"file_cap": caps[0], "path": str(ROOT)},
                    )
                )
            except OSError:
                outcomes["poisoned"] += 1  # the close reached us first
            for rid in ids:
                try:
                    frame_type, body = conn.result(rid)
                    if frame_type == wire.FRAME_REPLY:
                        # Served before the crash landed: the payload
                        # must be the real data, never garbage.
                        assert wire.decode_value(body)[0] == b"pre 0"
                        outcomes["replied"] += 1
                    else:
                        # Caught mid-crash: a typed error frame, still
                        # correlated to our request id.
                        assert frame_type == wire.FRAME_ERROR
                        assert isinstance(wire.decode_error(body), Exception)
                        outcomes["errored"] += 1
                except (ConnectionError, OSError, ServerUnreachable):
                    outcomes["poisoned"] += 1
            # Every in-flight call resolved one way or the other — a
            # real reply, a typed error, or a poisoned connection; none
            # vanished, and the crash was actually observed.
            assert sum(outcomes.values()) == 33
            assert outcomes["errored"] + outcomes["poisoned"] > 0
        finally:
            conn.close()

        # The ordinary client path fails over to the replica and the
        # history stays serializable.
        for i, cap in enumerate(caps):
            client.transact(cap, lambda u, i=i: u.write(ROOT, b"post %d" % i))
            assert client.read(cap) == b"post %d" % i
        assert recorder.metrics.counters["rpc.failovers"].value > 0
        result = check_history(history)
        assert result.ok, result.violations()
        cluster.fs(0).restart()
        client.transact(caps[0], lambda u: u.write(ROOT, b"after restart"))
        assert client.read(caps[0]) == b"after restart"
    finally:
        cluster.stop()


# -- long commit must not busy a read ---------------------------------------


class SlowCommitServer:
    """Daemon-level regression harness: a mutating command that holds the
    dispatch lock far longer than the lock timeout."""

    def __init__(self):
        self.name = "slowfs"
        self.commit_started = threading.Event()

    def cmd_commit_like(self):
        self.commit_started.set()
        time.sleep(0.6)
        return "committed"

    @command(read_only=True)
    def cmd_read(self):
        return "snapshot"


def test_snapshot_read_not_busied_by_long_commit_daemon_level():
    """With a 0.1s lock timeout and a 0.6s mutating call holding the
    lock, a snapshot read on the same port must answer — not busy."""
    server = SlowCommitServer()
    daemon = NetServer(
        "slowfs", dispatcher(server, 0x42), lock_timeout=0.1
    ).start()
    try:
        background = []

        def long_commit():
            with socket.create_connection(daemon.address, timeout=10) as sock:
                sock.sendall(
                    wire.encode_request("w", "commit_like", {}, request_id=1)
                )
                header = _read_exact(sock, wire.HEADER_SIZE)
                _, _, length = wire.decode_header(header)
                background.append(wire.decode_value(_read_exact(sock, length)))

        writer = threading.Thread(target=long_commit)
        writer.start()
        assert server.commit_started.wait(timeout=5)
        start = time.monotonic()
        with socket.create_connection(daemon.address, timeout=10) as sock:
            sock.sendall(
                wire.encode_request("r", "read", {}, request_id=2)
            )
            header = _read_exact(sock, wire.HEADER_SIZE)
            frame_type, rid, length = wire.decode_header(header)
            body = _read_exact(sock, length)
        elapsed = time.monotonic() - start
        writer.join(timeout=5)
        assert frame_type == wire.FRAME_REPLY, wire.decode_error(body)
        assert wire.decode_value(body) == "snapshot"
        assert rid == 2
        # Answered while the commit still held the lock, and without
        # waiting out the lock timeout.
        assert elapsed < 0.5
        assert background == ["committed"]
    finally:
        daemon.stop()


def test_snapshot_read_not_busied_by_commit_stream_service_level():
    """The same regression against the real file service: a stream of
    multi-page commits with a lock timeout far below the commit window —
    every concurrent snapshot read must succeed, zero busy signals."""
    recorder = Recorder()
    cluster = build_tcp_cluster(
        servers=2, seed=31, recorder=recorder, lock_timeout=0.02
    )
    try:
        committer = cluster.client("committer", use_cache=False)
        commit_cap = committer.create_file(b"committed file")
        reader = cluster.client("reader", use_cache=False)
        read_cap = reader.create_file(b"read file")
        reader.transact(read_cap, lambda u: u.write(ROOT, b"read data"))

        stop = threading.Event()
        errors: list[BaseException] = []

        def commit_stream():
            try:
                round_ = 0
                while not stop.is_set():
                    def fill(update, r=round_):
                        update.write(ROOT, b"round %d" % r)
                        for _ in range(63):
                            update.append_page(ROOT, b"x" * 4096)

                    committer.transact(commit_cap, fill)
                    round_ += 1
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=commit_stream)
        thread.start()
        try:
            for _ in range(200):
                assert reader.read(read_cap) == b"read data"
        except MessageDropped:
            pytest.fail("a read answered busy during a commit")
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not errors, errors[0]
        busy = recorder.metrics.counters.get("net.tcp.busy")
        assert busy is None or busy.value == 0
    finally:
        cluster.stop()


# -- lock-free current reads against writers on two servers -----------------


def test_lock_free_current_reads_race_writers_on_both_servers():
    """Uncached readers on both servers race writers that commit, abort
    and group-commit on the same files through both servers for about
    two seconds.  Every read must be serializable with the commits, and
    the reads must have been answered both ways: from the file table
    (no version open) and by a chase (one open, or the name cleared)."""
    recorder = Recorder()
    history = HistoryRecorder()
    cluster = build_tcp_cluster(
        servers=2, seed=43, recorder=recorder, history=history
    )
    names = [server.name for server in cluster.servers]
    try:
        setup = cluster.client("setup", use_cache=False)
        caps = []
        for i in range(3):
            cap = setup.create_file(b"file %d" % i)
            setup.transact(
                cap, lambda u: [u.append_page(ROOT, b"init") for _ in range(2)]
            )
            caps.append(cap)
        pages = [ROOT.child(0), ROOT.child(1)]
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader(index: int) -> None:
            client = cluster.client(
                f"reader{index}", use_cache=False, prefer_server=names[index]
            )
            try:
                n = 0
                while not stop.is_set():
                    client.read(caps[n % len(caps)], pages[n % 2])
                    n += 1
            except BaseException as exc:
                errors.append(exc)

        def writer(index: int) -> None:
            client = cluster.client(
                f"writer{index}", use_cache=False, prefer_server=names[index]
            )
            try:
                n = 0
                while not stop.is_set():
                    cap, tag = caps[n % len(caps)], b"w%d.%d" % (index, n)
                    if n % 3 == 0:
                        client.transact(cap, lambda u: u.write(pages[0], tag))
                    elif n % 3 == 1:
                        update = client.begin(cap)
                        update.write(pages[1], b"aborted " + tag)
                        update.abort()
                    else:
                        group = [client.begin(cap) for _ in pages]
                        for update, page in zip(group, pages):
                            update.write(page, b"grouped " + tag)
                        client.commit_group(group)
                    n += 1
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=role, args=(index,))
            for role in (reader, writer)
            for index in range(len(names))
        ]
        # Switch threads often, so a read lands inside a handler's steps.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(2.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        result = check_history(history)
        assert result.ok, "\n".join(str(v) for v in result.violations)
        assert result.snapshot_reads_checked > 0
        counters = recorder.metrics.counters
        assert counters["cache.current.trusted"].value > 0
        assert counters["cache.current.chased"].value > 0
    finally:
        cluster.stop()


def _read_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "connection closed early"
        data += chunk
    return data
