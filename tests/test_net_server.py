"""The socket daemon (repro.net.server) and the TCP transport layer
(repro.net.transport) at the unit level: framing over real connections,
concurrent clients, error propagation, busy signalling, crash/restart
lifecycle, pooling and failover."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    CommitConflict,
    FrameTooLarge,
    MessageDropped,
    ServerUnreachable,
)
from repro.net import NetServer, TcpNetwork, wire
from repro.net.transport import Connection, TcpTransaction
from repro.obs import Recorder
from repro.sim.rpc import Request, RpcEndpoint, Transaction, dispatcher


class EchoServer:
    """A toy cmd_* server."""

    def __init__(self, name="echo"):
        self.name = name
        self.calls = 0

    def cmd_echo(self, value):
        self.calls += 1
        return value

    def cmd_add(self, a, b):
        return a + b

    def cmd_conflict(self):
        raise CommitConflict("synthetic conflict")

    def cmd_bug(self):
        raise ValueError("server bug")

    def cmd_slow(self, seconds):
        time.sleep(seconds)
        return "done"

    def cmd_big(self, n):
        return b"x" * n


# One daemon; the id names its design, a thread per connection.
@pytest.fixture(params=[NetServer], ids=["threaded"])
def daemon_cls(request):
    return request.param


@pytest.fixture
def daemon(daemon_cls):
    server = EchoServer()
    daemon = daemon_cls("echo", dispatcher(server, 0x42)).start()
    daemon.server_obj = server
    yield daemon
    daemon.stop()


def _raw_call(address, frame):
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(frame)
        header = _read(sock, wire.HEADER_SIZE)
        frame_type, _, length = wire.decode_header(header)
        return frame_type, _read(sock, length)


def _read(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "connection closed early"
        data += chunk
    return data


# -- the daemon itself ------------------------------------------------------


def test_daemon_serves_a_request(daemon):
    frame_type, body = _raw_call(
        daemon.address, wire.encode_request("c1", "echo", {"value": b"hi"})
    )
    assert frame_type == wire.FRAME_REPLY
    assert wire.decode_value(body) == b"hi"


def test_many_requests_on_one_connection(daemon):
    with socket.create_connection(daemon.address, timeout=5) as sock:
        for i in range(20):
            sock.sendall(wire.encode_request("c1", "add", {"a": i, "b": 1}))
            header = _read(sock, wire.HEADER_SIZE)
            _, _, length = wire.decode_header(header)
            assert wire.decode_value(_read(sock, length)) == i + 1


def test_concurrent_connections(daemon):
    results = []

    def worker(i):
        frame_type, body = _raw_call(
            daemon.address, wire.encode_request("c", "add", {"a": i, "b": i})
        )
        results.append((frame_type, wire.decode_value(body), i))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(results) == 8
    assert all(ft == wire.FRAME_REPLY and v == 2 * i for ft, v, i in results)


def test_partial_writes_are_reassembled(daemon):
    """A request dribbled onto the socket byte by byte still parses."""
    frame = wire.encode_request("c", "echo", {"value": b"dribble"})
    with socket.create_connection(daemon.address, timeout=5) as sock:
        for i in range(len(frame)):
            sock.sendall(frame[i : i + 1])
        header = _read(sock, wire.HEADER_SIZE)
        _, _, length = wire.decode_header(header)
        assert wire.decode_value(_read(sock, length)) == b"dribble"


def test_server_error_crosses_as_typed_error_frame(daemon):
    frame_type, body = _raw_call(
        daemon.address, wire.encode_request("c", "conflict", {})
    )
    assert frame_type == wire.FRAME_ERROR
    assert isinstance(wire.decode_error(body), CommitConflict)

    frame_type, body = _raw_call(daemon.address, wire.encode_request("c", "bug", {}))
    assert frame_type == wire.FRAME_ERROR
    assert isinstance(wire.decode_error(body), ValueError)


def test_unknown_command_is_server_unreachable(daemon):
    frame_type, body = _raw_call(
        daemon.address, wire.encode_request("c", "nonsense", {})
    )
    assert frame_type == wire.FRAME_ERROR
    exc = wire.decode_error(body)
    assert isinstance(exc, ServerUnreachable)
    assert "nonsense" in str(exc)


def test_oversized_reply_is_an_error_frame_not_a_truncation(daemon_cls):
    server = EchoServer()
    daemon = daemon_cls(
        "small", dispatcher(server, 0x42), max_frame=1024
    ).start()
    try:
        frame_type, body = _raw_call(
            daemon.address, wire.encode_request("c", "big", {"n": 4096})
        )
        assert frame_type == wire.FRAME_ERROR
        assert isinstance(wire.decode_error(body), FrameTooLarge)
    finally:
        daemon.stop()


def test_garbage_header_gets_error_then_hangup(daemon):
    with socket.create_connection(daemon.address, timeout=5) as sock:
        sock.sendall(b"GARBAGE-" + b"\x00" * 8)
        header = _read(sock, wire.HEADER_SIZE)
        frame_type, _, length = wire.decode_header(header)
        assert frame_type == wire.FRAME_ERROR
        body = _read(sock, length)
        exc = wire.decode_error(body)
        assert "magic" in str(exc)
        # ...and then the daemon hangs up (EOF, or RST if our unread
        # garbage was still in its receive buffer at close).
        try:
            assert sock.recv(1) == b""
        except ConnectionResetError:
            pass


def test_busy_dispatch_answers_message_dropped(daemon_cls):
    server = EchoServer()
    daemon = daemon_cls(
        "busy", dispatcher(server, 0x42), lock_timeout=0.05
    ).start()
    try:
        blocker = threading.Thread(
            target=lambda: _raw_call(
                daemon.address, wire.encode_request("c", "slow", {"seconds": 0.6})
            )
        )
        blocker.start()
        time.sleep(0.15)  # let the slow call take the dispatch lock
        frame_type, body = _raw_call(
            daemon.address, wire.encode_request("c", "echo", {"value": 1})
        )
        blocker.join(timeout=5)
        assert frame_type == wire.FRAME_ERROR
        assert isinstance(wire.decode_error(body), MessageDropped)
    finally:
        daemon.stop()


def test_stop_refuses_connections_and_restart_keeps_port(daemon):
    host, port = daemon.address
    daemon.stop()
    try:
        with socket.create_connection((host, port), timeout=1) as sock:
            # Connecting to a dead ephemeral port on Linux can self-connect
            # (source port == destination port); either way, no daemon.
            assert sock.getsockname() == sock.getpeername()
    except OSError:
        pass
    daemon.start()
    assert daemon.address == (host, port)
    frame_type, body = _raw_call(
        daemon.address, wire.encode_request("c", "echo", {"value": "back"})
    )
    assert wire.decode_value(body) == "back"


def test_undecodable_body_is_answered_under_its_request_id(daemon):
    """Header fine, body garbage: the daemon knows whose request it was, so
    the typed error goes to that caller — and then it hangs up."""
    frame = wire.encode_request("c", "echo", {"value": 1}, request_id=7)
    garbled = frame[: wire.HEADER_SIZE] + b"\xff" * (len(frame) - wire.HEADER_SIZE)
    with socket.create_connection(daemon.address, timeout=5) as sock:
        sock.sendall(garbled)
        frame_type, request_id, length = wire.decode_header(
            _read(sock, wire.HEADER_SIZE)
        )
        assert (frame_type, request_id) == (wire.FRAME_ERROR, 7)
        assert isinstance(wire.decode_error(_read(sock, length)), wire.BadFrame)
        assert sock.recv(1) == b""

    # The client's connection object delivers it: a BadFrame for the
    # caller, not an unsolicited frame followed by a dead connection.
    conn = Connection(socket.create_connection(daemon.address, timeout=5))
    try:
        frame_type, body, _ = conn.call("c", "echo", {7: "not a parameter name"})
        assert frame_type == wire.FRAME_ERROR
        assert isinstance(wire.decode_error(body), wire.BadFrame)
    finally:
        conn.close()


def test_unparseable_header_error_reaches_the_caller_typed(daemon_cls):
    """A header the daemon rejects names no request, so its error frame
    carries id 0; the one outstanding call is whose it is.  The caller
    sees the typed error once — not a reset, retry sweeps and
    ServerUnreachable."""
    recorder = Recorder()
    daemon = daemon_cls(
        "echo", dispatcher(EchoServer(), 0x42), max_frame=1024
    ).start()
    net = TcpNetwork(recorder=recorder)  # the client's own limit is the default
    net.register("echo", *daemon.address)
    net.listen_port(0x42, "echo")
    try:
        with pytest.raises(FrameTooLarge):
            Transaction(net, "client").call(0x42, "echo", value=b"x" * 4096)
        assert "rpc.sweeps" not in recorder.metrics.counters
        assert "net.tcp.conn_errors" not in recorder.metrics.counters
    finally:
        net.close()
        daemon.stop()


def test_accept_loop_outlives_a_connection_it_cannot_serve(monkeypatch):
    """One connection whose thread cannot be started is closed and counted;
    the daemon keeps accepting."""
    recorder = Recorder()
    daemon = NetServer(
        "echo", dispatcher(EchoServer(), 0x42), recorder=recorder
    ).start()
    start_thread = threading.Thread.start
    failures = []

    def start_or_fail(thread):
        if thread.name.endswith("-conn") and not failures:
            failures.append(thread)
            raise RuntimeError("can't start new thread")
        start_thread(thread)

    monkeypatch.setattr(threading.Thread, "start", start_or_fail)
    try:
        with socket.create_connection(daemon.address, timeout=5) as sock:
            assert sock.recv(1) == b""  # closed on us, unserved
        assert len(failures) == 1
        frame_type, body = _raw_call(
            daemon.address, wire.encode_request("c", "echo", {"value": "next"})
        )
        assert wire.decode_value(body) == "next"
        assert daemon.running
        assert recorder.metrics.counters["net.tcp.accept_errors"].value == 1
    finally:
        daemon.stop()


class _HeldAccept:
    """A recorder that parks the accept thread on its first accept, so the
    next handshake stays in the listen backlog."""

    enabled = False

    def __init__(self):
        self.parked = threading.Event()
        self.release = threading.Event()

    def count(self, name, n=1):
        if name == "net.tcp.accepts" and not self.parked.is_set():
            self.parked.set()
            self.release.wait(timeout=10)


def test_stop_resets_a_connection_still_in_the_listen_backlog():
    """A client whose handshake the kernel completed but the daemon never
    accepted learns of the crash at once, not at its call timeout."""
    recorder = _HeldAccept()
    daemon = NetServer(
        "echo", dispatcher(EchoServer(), 0x42), recorder=recorder
    ).start()
    stopper = threading.Thread(target=daemon.stop)
    try:
        with socket.create_connection(daemon.address, timeout=5):
            assert recorder.parked.wait(timeout=5)
            with socket.create_connection(daemon.address, timeout=5) as waiting:
                waiting.sendall(wire.encode_request("c", "echo", {"value": 1}))
                stopper.start()
                started = time.monotonic()
                try:
                    assert waiting.recv(1) == b""
                except ConnectionResetError:
                    pass
                assert time.monotonic() - started < 2.0
        recorder.release.set()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
    finally:
        recorder.release.set()
        daemon.stop()
    assert not daemon.running


# -- the TcpNetwork / TcpTransaction client layer ---------------------------


def test_transaction_class_dispatch_makes_tcp_transactions():
    """There is nothing left to dispatch: ``TcpTransaction`` is an alias
    of the one transaction loop, and the TCP network only sets the pauses
    between its sweeps."""
    assert TcpTransaction is Transaction
    assert type(Transaction(TcpNetwork(), "client")) is Transaction
    assert TcpNetwork.SWEEP_PAUSES == (0.05, 0.1, 0.2)


def test_rpc_endpoint_attach_starts_a_real_daemon():
    net = TcpNetwork()
    server = EchoServer()
    RpcEndpoint(net, "echo", 0x99, server)
    try:
        assert net.is_up("echo")
        txn = Transaction(net, "client")
        assert txn.call(0x99, "add", a=2, b=3) == 5
        assert server.calls == 0  # add, not echo
    finally:
        net.close()


def test_connection_pooling_reuses_one_connection():
    recorder = Recorder()
    net = TcpNetwork(recorder=recorder)
    RpcEndpoint(net, "echo", 0x99, EchoServer())
    try:
        txn = Transaction(net, "client")
        for i in range(10):
            assert txn.call(0x99, "echo", value=i) == i
        assert recorder.metrics.counters["net.tcp.connections"].value == 1
        assert recorder.metrics.counters["net.tcp.requests"].value == 10
    finally:
        net.close()


def test_failover_to_companion_on_refused_connection():
    recorder = Recorder()
    net = TcpNetwork(recorder=recorder)
    a, b = EchoServer("a"), EchoServer("b")
    RpcEndpoint(net, "srvA", 0x77, a)
    RpcEndpoint(net, "srvB", 0x77, b)
    try:
        txn = Transaction(net, "client")
        txn.call(0x77, "echo", value=1)
        assert (a.calls, b.calls) == (1, 0)  # deterministic order: srvA first
        net.detach("srvA")
        txn.call(0x77, "echo", value=2)
        assert (a.calls, b.calls) == (1, 1)
        assert recorder.metrics.counters["rpc.failovers"].value >= 1
        net.reattach("srvA")
        txn.call(0x77, "echo", value=3)
        assert (a.calls, b.calls) == (2, 1)
    finally:
        net.close()


def test_stale_pooled_connection_reconnects_transparently():
    recorder = Recorder()
    net = TcpNetwork(recorder=recorder)
    server = EchoServer()
    RpcEndpoint(net, "echo", 0x99, server)
    try:
        txn = Transaction(net, "client")
        assert txn.call(0x99, "echo", value=1) == 1
        # Bounce the daemon: the pooled connection is now dead, but the
        # registry still points at the same port.
        net.detach("echo")
        net.reattach("echo")
        assert txn.call(0x99, "echo", value=2) == 2
        assert recorder.metrics.counters["net.tcp.connections"].value >= 2
    finally:
        net.close()


def test_all_daemons_down_raises_server_unreachable():
    net = TcpNetwork()
    RpcEndpoint(net, "solo", 0x55, EchoServer())
    try:
        txn = Transaction(net, "client")
        net.detach("solo")
        with pytest.raises(ServerUnreachable):
            txn.call(0x55, "echo", value=1)
    finally:
        net.close()


def test_unregistered_port_raises():
    net = TcpNetwork()
    txn = Transaction(net, "client")
    with pytest.raises(ServerUnreachable):
        txn.call(0xDEAD, "echo", value=1)


def test_call_timeout_on_a_hung_server():
    server = EchoServer()
    net = TcpNetwork(call_timeout=0.3)
    RpcEndpoint(net, "hung", 0x66, server)
    try:
        txn = Transaction(net, "client")
        start = time.monotonic()
        with pytest.raises(ServerUnreachable):
            txn.call(0x66, "slow", seconds=3.0)
        assert time.monotonic() - start < 2.5
    finally:
        net.close()
