"""The socket daemon: one paper *port* served on one TCP port.

A :class:`NetServer` hosts any object exposing the ``cmd_*`` command set —
a block server, one half of a stable pair, a file server — behind a real
listening TCP socket, through the same :func:`repro.sim.rpc.dispatcher`
the simulated network calls.  Each accepted connection gets its own thread,
because handlers block: a file server's commit calls the block daemons and
a stable half calls its companion, nested RPCs on the handler's own stack.
The thread reads whatever the socket holds, reassembles frames with
:class:`repro.net.wire.FrameAssembler` (partial reads and kernel buffering
are handled there, nowhere else) and answers each frame before it looks at
the next, so replies on one connection are in request order by
construction and a connection's backlog is the kernel's socket buffer.

The hosted server objects are the same single-threaded objects the
simulation drives, so mutating commands are serialised through a dispatch
lock.  The lock is acquired with a timeout: a request that cannot get the
server within the window is answered with a retryable busy error
(``MessageDropped`` on the wire, which the transaction layer retries with
backoff) instead of queueing unboundedly — this also breaks the
cross-daemon deadlock a companion pair could otherwise reach when both
halves serve a client and call each other at the same moment.  A handler
declared ``command(read_only=True)`` (a file server's current-state read,
plus pure introspection) runs without the lock, so a long commit never
makes a concurrent read wait or answer busy, and a read one file server
delegates to another never waits on the lock the two share.  The
declaration sits at the handler, in the server's own module: this module
knows no command names.

Lifecycle mirrors the simulated network's attach/detach/reattach: a
stopped daemon refuses connections (clients observe ECONNREFUSED and fail
over, exactly the paper's §4 behaviour), and a restart rebinds the same
TCP port so the address registry stays valid.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any, Callable

from repro.errors import MessageDropped, ReproError, WireError
from repro.net import wire
from repro.obs import NULL_RECORDER
from repro.sim.rpc import Request

# How long one request may wait for the dispatch lock before being told
# to retry.  Generous against slow CI machines, small against deadlock.
DEFAULT_LOCK_TIMEOUT = 5.0


class _BusySignal(Exception):
    """Internal: dispatch lock not acquired within the timeout."""


class NetServer:
    """A threaded TCP daemon serving the wire protocol for one server.

    ``handler`` is a :func:`repro.sim.rpc.dispatcher`: called as
    ``handler(sender, request, run)``, it looks the command up and hands
    it to the daemon's ``run``, which applies the dispatch lock.
    ``port=0`` binds an OS-assigned port on first start; the assigned port
    is kept across stop/start cycles so failover addresses stay stable.
    """

    def __init__(
        self,
        name: str,
        handler: Callable[..., Any],
        host: str = "127.0.0.1",
        port: int = 0,
        recorder=None,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        dispatch_lock: threading.Lock | None = None,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> None:
        self.name = name
        self.handler = handler
        self.host = host
        self.port = port
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.max_frame = max_frame
        self.lock_timeout = lock_timeout
        self._dispatch_lock = (
            dispatch_lock if dispatch_lock is not None else threading.Lock()
        )
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "NetServer":
        """Bind, listen, and start accepting.  Idempotent while running."""
        if self._running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # A restart can race the previous incarnation's connection threads
        # releasing their sockets; retry the bind briefly before giving up.
        deadline = time.monotonic() + 2.0
        while True:
            try:
                listener.bind((self.host, self.port))
                break
            except OSError:
                if time.monotonic() >= deadline:
                    listener.close()
                    raise
                time.sleep(0.02)
        listener.listen(64)
        self.host, self.port = listener.getsockname()
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"netserver-{self.name}", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and cut every live connection (a crash, as the
        network sees it).  The TCP port number is retained for restart."""
        if not self._running:
            return
        self._running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() before close(): the accept thread blocked in
            # accept() holds a kernel reference, so close() alone neither
            # wakes it nor releases the port.  shutdown() does (Linux).
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns, self._conns = list(self._conns), set()
        for conn in conns:
            # Abortive close (RST, not FIN): a graceful close would leave
            # the socket in FIN_WAIT while the peer's pooled connection
            # stays open, holding the port against an immediate restart.
            try:
                conn.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            except OSError:
                pass
            try:
                conn.shutdown(socket.SHUT_RDWR)  # wake the blocked reader
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        thread, self._accept_thread = self._accept_thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)

    @property
    def running(self) -> bool:
        return self._running

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- the wire ----------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while self._running and listener is not None:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: daemon stopping
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with self._conns_lock:
                    if not self._running:
                        conn.close()
                        return
                    self._conns.add(conn)
                threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"netserver-{self.name}-conn",
                    daemon=True,
                ).start()
            except (OSError, RuntimeError):
                # The peer reset before we got to it, or the process has no
                # thread left to give: this connection is lost, not the daemon.
                self.recorder.count("net.tcp.accept_errors")
                with self._conns_lock:
                    self._conns.discard(conn)
                conn.close()
                continue
            self.recorder.count("net.tcp.accepts")

    def _serve_connection(self, conn: socket.socket) -> None:
        assembler = wire.FrameAssembler(self.max_frame)
        try:
            while self._running:
                data = conn.recv(1 << 16)
                if not data:
                    return  # the peer closed, or died mid-frame
                request_id = 0  # a header that does not parse names no request
                for frame_type, request_id, payload in assembler.feed(data):
                    if frame_type != wire.FRAME_REQUEST:
                        raise wire.BadFrame(
                            f"server expected a request frame, got type {frame_type}"
                        )
                    self.recorder.count(
                        "net.tcp.bytes_in", wire.HEADER_SIZE + len(payload)
                    )
                    reply = self._dispatch(payload, request_id)
                    conn.sendall(reply)
                    self.recorder.count("net.tcp.bytes_out", len(reply))
        except WireError as exc:
            # Protocol violation: answer if possible — under the request's
            # id when its header parsed, so the caller gets the typed error
            # — then hang up: a peer speaking garbage gets no second frame.
            self.recorder.count("net.tcp.protocol_errors")
            try:
                conn.sendall(
                    wire.encode_error(exc, self.max_frame, request_id=request_id)
                )
            except OSError:
                pass
        except (ConnectionError, OSError):
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, payload: bytes, request_id: int = 0) -> bytes:
        sender, command, params = wire.decode_request(payload)
        self.recorder.count("net.tcp.requests_served")
        try:
            result = self.handler(sender, Request(command, params), self._locked_call)
        except _BusySignal:
            self.recorder.count("net.tcp.busy")
            return wire.encode_error(
                MessageDropped(f"{self.name}: dispatch busy, retry"),
                self.max_frame,
                request_id=request_id,
            )
        except ReproError as exc:
            return wire.encode_error(exc, self.max_frame, request_id=request_id)
        except Exception as exc:  # a server bug: propagate loudly, typed
            self.recorder.count("net.tcp.server_errors")
            return wire.encode_error(exc, self.max_frame, request_id=request_id)
        try:
            return wire.encode_reply(result, self.max_frame, request_id=request_id)
        except WireError as exc:
            # The reply itself cannot cross the wire (too large, or an
            # unencodable type).  Tell the caller the truth.
            return wire.encode_error(exc, self.max_frame, request_id=request_id)

    def _locked_call(self, handler: Callable[..., Any], params: dict) -> Any:
        # The flag is read off the function: a bound method answers a
        # missing attribute by raising, a microsecond per request.
        if getattr(getattr(handler, "__func__", handler), "read_only", False):
            return handler(**params)
        if not self._dispatch_lock.acquire(timeout=self.lock_timeout):
            raise _BusySignal()
        try:
            return handler(**params)
        finally:
            self._dispatch_lock.release()
