"""Client-side TCP transport: the simulated network's shape, real sockets.

:class:`TcpNetwork` presents the same surface the rest of the stack
already programs against — ``send(sender, dest, payload)``, ``attach`` /
``detach`` / ``reattach``, a ``clock``, a ``recorder``, the per-port
server registry — but ``send`` is a pooled wire call to a real daemon and
``attach`` *starts* one (:class:`repro.net.server.NetServer`).  So every
existing client — the block client (``block/sharding.py``),
``HybridBlockClient``, ``client/api.FileClient`` — runs over sockets
unchanged, through the one :class:`repro.sim.rpc.Transaction` loop; this
network only sets its pause schedule between sweeps
(:attr:`TcpNetwork.SWEEP_PAUSES`), which covers daemons mid-restart.

Connections are :class:`Connection` objects, one exchange at a time:
every request frame carries a fresh correlation id (wire version 2) and
the reply must carry it back.  The daemon would serve a pipeline in
order (docs/NETWORKING.md), but nothing in the stack sends one — every
exchange is one blocking call per (thread, connection).

Failure mapping keeps the simulation's error contract:

* connection refused / reset / timed out → :class:`~repro.errors.
  ServerUnreachable` → fail over to the next server on the port;
* a server's busy signal → :class:`~repro.errors.MessageDropped` → retry
  the same server, as the Amoeba transaction primitive retransmits.

Like Amoeba, delivery is at-least-once at the edges: a pooled connection
that dies after the request was written may have been served, and the
retry/failover then re-executes — idempotence is the server's concern, as
the paper states.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable

from repro.errors import ServerUnreachable
from repro.net import wire
from repro.net.server import NetServer
from repro.obs import NULL_RECORDER
from repro.sim.network import NetworkStats
from repro.sim.rpc import Transaction

DEFAULT_CALL_TIMEOUT = 10.0


class WallClock:
    """Real time behind the simulated clock's interface.

    ``now`` is elapsed microseconds since construction — components built
    for the logical clock (disks charging ticks, recorders stamping
    spans) keep working, their durations just become wall durations.
    ``advance`` is a no-op: wall time advances itself.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> int:
        return int((time.monotonic() - self._t0) * 1_000_000)

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise ValueError(f"cannot advance clock by {ticks}")
        return self.now


class TcpNetwork:
    """A deployment's view of real localhost (or LAN) TCP networking.

    Node names map to ``(host, tcp_port)`` addresses; one paper port maps
    to the set of node names serving it (``_port_registry``, the same
    attribute the simulated registry lives under).  ``attach`` starts a
    daemon for the node and registers its address, so ``StablePair``,
    ``ShardedBlockService`` and ``RpcEndpoint`` construct real daemons
    without knowing it.  ``detach``/``reattach`` stop and restart the
    daemon — a crash and recovery that clients experience as connection
    resets and refusals, not simulation flags.
    """

    # Pauses (seconds) before each extra sweep of a port's daemons
    # (``repro.sim.rpc.Transaction``): a daemon mid-restart gets 0.35 s.
    SWEEP_PAUSES = (0.05, 0.1, 0.2)

    def __init__(
        self,
        host: str = "127.0.0.1",
        recorder=None,
        clock: WallClock | None = None,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        lock_timeout: float | None = None,
    ) -> None:
        self.host = host
        self.clock = clock if clock is not None else WallClock()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.call_timeout = call_timeout
        self.max_frame = max_frame
        # How long a daemon lets one request wait for its dispatch lock
        # before answering busy; None keeps each daemon's own default.
        self.lock_timeout = lock_timeout
        self.stats = NetworkStats()
        # Exact under concurrency: the benchmark gate compares message
        # counts across transports, and unsynchronised ``+=`` from many
        # client threads loses increments.
        self._stats_lock = threading.Lock()
        self._port_registry: dict[int, list[str]] = {}
        self._addresses: dict[str, tuple[str, int]] = {}
        self._daemons: dict[str, NetServer] = {}
        self._dispatch_groups: dict[str, threading.Lock] = {}
        self._topology_lock = threading.Lock()
        # Connection pools are per thread: frames on one socket are never
        # interleaved, and no cross-thread locking sits on the hot path.
        self._pools = threading.local()

    # -- topology (server side) -------------------------------------------

    def attach(self, name: str, handler: Callable[..., Any]) -> None:
        """Host ``name`` as a real daemon.

        ``handler`` is the :func:`repro.sim.rpc.dispatcher` an
        :class:`~repro.sim.rpc.RpcEndpoint` attaches to either network;
        the daemon calls it as is.  Re-attaching replaces the handler and
        restarts the daemon on its existing TCP port.
        """
        with self._topology_lock:
            daemon = self._daemons.get(name)
            if daemon is not None:
                daemon.stop()
                daemon.handler = handler
            else:
                extra = (
                    {} if self.lock_timeout is None
                    else {"lock_timeout": self.lock_timeout}
                )
                daemon = NetServer(
                    name,
                    handler,
                    host=self.host,
                    recorder=self.recorder,
                    max_frame=self.max_frame,
                    dispatch_lock=self._dispatch_groups.get(name),
                    **extra,
                )
                self._daemons[name] = daemon
            daemon.start()
            self._addresses[name] = daemon.address

    def share_dispatch_lock(self, names: list[str]) -> None:
        """Serialise the named daemons behind one dispatch lock.

        Declared *before* the nodes attach.  Replicated file servers need
        this: they share the registry and capability issuer in memory (as
        the sim's cooperative scheduler implicitly serialises them), so
        their daemons must not run commands concurrently with each other.
        """
        lock = threading.Lock()
        with self._topology_lock:
            for name in names:
                self._dispatch_groups[name] = lock

    def detach(self, name: str) -> None:
        """Stop a node's daemon (crash): connections reset, new ones are
        refused, clients fail over."""
        with self._topology_lock:
            daemon = self._daemons.get(name)
        if daemon is not None:
            daemon.stop()

    def reattach(self, name: str) -> None:
        """Restart a detached node's daemon on its original TCP port.
        A name that never attached (a pure client) is a no-op."""
        with self._topology_lock:
            daemon = self._daemons.get(name)
        if daemon is not None:
            daemon.start()

    def register(self, name: str, host: str, port: int) -> None:
        """Client-side address registration for a daemon that lives in
        another process (``repro connect`` uses this)."""
        with self._topology_lock:
            self._addresses[name] = (host, port)

    def listen_port(self, port: int, name: str) -> None:
        """Record that ``name`` serves paper port ``port`` (client side);
        server side this happens through RpcEndpoint registration."""
        with self._topology_lock:
            self._port_registry.setdefault(port, [])
            if name not in self._port_registry[port]:
                self._port_registry[port].append(name)

    def close(self) -> None:
        """Stop every daemon this network hosts and drop this thread's
        pooled connections."""
        with self._topology_lock:
            daemons = list(self._daemons.values())
        for daemon in daemons:
            daemon.stop()
        self._drop_pool()

    # -- introspection ------------------------------------------------------

    def nodes(self) -> list[str]:
        with self._topology_lock:
            return sorted(self._addresses)

    def is_up(self, name: str) -> bool:
        with self._topology_lock:
            daemon = self._daemons.get(name)
        return daemon is not None and daemon.running

    def address_of(self, name: str) -> tuple[str, int] | None:
        with self._topology_lock:
            return self._addresses.get(name)

    def daemon(self, name: str) -> NetServer | None:
        with self._topology_lock:
            return self._daemons.get(name)

    # -- delivery (client side) ---------------------------------------------

    def send(self, sender: str, dest: str, payload: Any, size: int = 0) -> Any:
        """One request/reply exchange with ``dest`` over a pooled
        connection.  Raises the error the server shipped, or
        :class:`ServerUnreachable` on connection failure."""
        address = self.address_of(dest)
        if address is None:
            self.stats.unreachable += 1
            raise ServerUnreachable(f"{dest}: no TCP address registered")
        pool = self._pool()
        conn = pool.get(dest)
        fresh = conn is None
        try:
            if conn is None:
                conn = self.connection(dest)
            try:
                raw_type, body, sent = conn.call(
                    sender, payload.command, payload.params
                )
            except ConnectionError:
                # Dead connection — distinct from a timeout, which is a
                # slow (possibly still-executing) server and is never
                # retried here.
                conn.close()
                pool.pop(dest, None)
                if fresh:
                    raise
                # The pooled connection was stale (the daemon restarted
                # since we last used it).  One retry on a fresh
                # connection; at-least-once, as documented.
                self.recorder.count("net.tcp.reconnects")
                conn = self.connection(dest)
                raw_type, body, sent = conn.call(
                    sender, payload.command, payload.params
                )
        except socket.timeout:
            self.recorder.count("net.tcp.timeouts")
            self.stats.unreachable += 1
            if conn is not None:
                conn.close()
            pool.pop(dest, None)
            raise ServerUnreachable(f"{dest}: call timed out") from None
        except (ConnectionError, OSError) as exc:
            self.recorder.count("net.tcp.conn_errors")
            self.stats.unreachable += 1
            if conn is not None:
                conn.close()
            pool.pop(dest, None)
            raise ServerUnreachable(f"{dest}: {exc}") from None
        with self._stats_lock:
            self.stats.messages += 2  # request + reply, as the sim counts
            self.stats.bytes += sent + len(body)
        if self.recorder.enabled:
            self.recorder.count("net.tcp.requests")
            self.recorder.count("net.tcp.bytes_out", sent)
            self.recorder.count("net.tcp.bytes_in", wire.HEADER_SIZE + len(body))
            span = self.recorder.current_span
            if span is not None:
                span.inc("net.tcp.messages", 2)
        if raw_type == wire.FRAME_ERROR:
            raise wire.decode_error(body)
        return wire.decode_value(body)

    def connection(self, dest: str) -> "Connection":
        """This thread's connection to ``dest``, creating (and pooling)
        it if absent."""
        pool = self._pool()
        conn = pool.get(dest)
        if conn is not None and not conn.closed:
            return conn
        address = self.address_of(dest)
        if address is None:
            raise ServerUnreachable(f"{dest}: no TCP address registered")
        conn = Connection(self._connect(dest, address), dest, self.max_frame)
        pool[dest] = conn
        return conn

    def _connect(self, dest: str, address: tuple[str, int]) -> socket.socket:
        sock = socket.create_connection(address, timeout=self.call_timeout)
        if sock.getsockname() == sock.getpeername():
            # Linux self-connect quirk: connecting to a dead ephemeral
            # port can land on our own socket.  That daemon is down.
            sock.close()
            raise ConnectionRefusedError(f"{dest}: self-connect, daemon down")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.recorder.count("net.tcp.connections")
        return sock

    def _pool(self) -> dict[str, "Connection"]:
        pool = getattr(self._pools, "pool", None)
        if pool is None:
            pool = {}
            self._pools.pool = pool
        return pool

    def _drop_pool(self) -> None:
        pool = getattr(self._pools, "pool", None)
        if pool:
            for conn in pool.values():
                conn.close()
            pool.clear()


class AsyncTcpNetwork(TcpNetwork):  # unused; bench/layers.py reads the name (ROADMAP 8(a))
    pass


class Connection:
    """One TCP connection carrying one exchange at a time.

    ``call`` writes a request frame under a fresh correlation id and
    blocks for the frame that answers it.  The connection belongs to one
    thread (the pools are per thread), so nothing here locks.  Any
    failure after the request is encoded — send, receive, timeout, a
    frame that is not this call's answer — closes the connection, and the
    owner reconnects (the at-least-once edge the module docstring
    describes).
    """

    __slots__ = ("sock", "dest", "max_frame", "closed", "_next_id")

    def __init__(
        self,
        sock: socket.socket,
        dest: str = "?",
        max_frame: int = wire.DEFAULT_MAX_FRAME,
    ) -> None:
        self.sock = sock
        self.dest = dest
        self.max_frame = max_frame
        self.closed = False
        self._next_id = 1

    def call(
        self, sender: str, command: str, params: dict
    ) -> tuple[int, bytes, int]:
        """One synchronous exchange: returns (frame type, body, bytes
        sent)."""
        if self.closed:
            raise ConnectionResetError(f"{self.dest}: connection closed")
        request_id = self._next_id
        self._next_id = (request_id % wire.MAX_REQUEST_ID) + 1
        # An unencodable request raises here: nothing reached the wire,
        # the connection stays healthy.
        frame = wire.encode_request(
            sender, command, params, self.max_frame, request_id=request_id
        )
        try:
            self.sock.sendall(frame)
            # One recv, mostly: the reply arrives whole (bytes after it
            # make its body fail to decode).
            data = self.sock.recv(1 << 16)
            data += _recv_exact_or_raise(self.sock, wire.HEADER_SIZE - len(data))
            header, body = data[: wire.HEADER_SIZE], data[wire.HEADER_SIZE :]
            frame_type, reply_id, length = wire.decode_header(header, self.max_frame)
            body += _recv_exact_or_raise(self.sock, length - len(body))
            if frame_type == wire.FRAME_REQUEST:
                raise wire.BadFrame("peer sent a request frame as a reply")
            # Id 0 on an error frame is the daemon saying our header did
            # not parse; with one exchange outstanding it can only mean
            # this call.
            if reply_id != request_id and (reply_id or frame_type != wire.FRAME_ERROR):
                raise wire.BadFrame(
                    f"{self.dest}: reply id {reply_id} answers no request "
                    f"(expected {request_id})"
                )
        except BaseException:
            self.close()
            raise
        return frame_type, body, len(frame)

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.close()
        except OSError:
            pass


def _recv_exact_or_raise(sock: socket.socket, n: int) -> bytes:
    if n <= 0:
        return b""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise ConnectionResetError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# The one transaction loop is ``repro.sim.rpc.Transaction``; this name
# stays only because bench/layers.py wraps ``TcpTransaction.call`` (ROADMAP
# 8(a) renames it there).
TcpTransaction = Transaction
