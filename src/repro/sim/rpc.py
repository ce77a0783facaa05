"""Amoeba-style transactions: request/response RPC addressed to ports.

Amoeba's primitive is the *transaction*: a client sends a request to a
service *port* and blocks for the reply.  Several server processes may
listen on the same port (replicated services); the paper relies on this for
availability ("clients ... can use another server").

This module layers ports on the name-addressed :class:`repro.sim.network.
Network`:

* an :class:`RpcEndpoint` registers a server object under a port;
* ``Transaction.call(port, request)`` routes to a live server listening on
  that port, trying alternatives if the preferred one is unreachable —
  exactly the failover behaviour §4 of the paper prescribes for companion
  block servers.

Requests are ``(command, kwargs)`` pairs; servers expose commands as
attributes named ``cmd_<command>``, declared with :func:`command`.
:func:`dispatcher` is the one place a request finds its handler, on the
simulated network and in the TCP daemon alike.  Exceptions raised by the
server that derive from :class:`repro.errors.ReproError` propagate to the
caller (they are the service's error replies); anything else is a bug and
propagates too, loudly.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import MessageDropped, ServerUnreachable
from repro.obs import NULL_RECORDER
from repro.sim.network import Network


@dataclass(frozen=True)
class Request:
    """A transaction request: a command name plus keyword parameters."""

    command: str
    params: dict[str, Any]


def command(fn=None, *, read_only=False, paths=(), path_reply=False) -> Callable:
    """Declare a wire command, once: ``cmd_read_page = command(read_page,
    paths=("path",))`` over a method, or ``@command(read_only=True)`` on a
    handler with its own body.

    The accepted parameters are ``fn``'s positional-or-keyword ones (its
    keyword-only ones stay in-process).  ``paths`` arrive as page-path
    text; with ``path_reply`` page paths in the result go back as text.
    ``read_only`` lets the TCP daemon skip its dispatch lock: the command
    only reads, or repairs soft state as any concurrent writer would.
    """
    if fn is None:
        return functools.partial(
            command, read_only=read_only, paths=paths, path_reply=path_reply
        )
    params = list(inspect.signature(fn).parameters.values())[1:]  # not self
    accepted = frozenset(p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD)
    if paths or path_reply or len(accepted) < len(params):
        fn = _converting(fn, accepted, paths, path_reply)
    fn.read_only = read_only
    return fn


def _converting(fn: Callable, accepted, paths, path_reply: bool) -> Callable:
    from repro.core.pathname import PagePath  # repro.core imports this module

    def as_text(value: Any) -> Any:
        if isinstance(value, PagePath):
            return str(value)
        if type(value) in (list, tuple):
            return type(value)(map(as_text, value))
        return value

    @functools.wraps(fn)
    def handler(self, *args: Any, **params: Any) -> Any:
        if not accepted.issuperset(params):
            unknown = sorted(set(params) - accepted)
            raise TypeError(f"{fn.__name__}() does not accept {unknown}")
        for name in paths:
            if name in params:
                params[name] = PagePath.parse(params[name])
        result = fn(self, *args, **params)
        return as_text(result) if path_reply else result

    return handler


def dispatcher(server: Any, port: int) -> Callable[..., Any]:
    """The network handler for ``server``: ``dispatch(sender, request,
    run)`` resolves ``cmd_<command>`` at each call, so wrapped or patched
    handlers take effect, and runs it as ``run(handler, params)``.  The
    simulated network passes no ``run`` (a direct call); the TCP daemon
    passes its own, which takes the dispatch lock unless the handler is
    declared read-only."""

    def dispatch(sender: str, request: Request, run=None) -> Any:
        handler = getattr(server, f"cmd_{request.command}", None)
        if handler is None:
            raise ServerUnreachable(
                f"port {port:#x}: unknown command {request.command!r}"
            )
        if run is None:
            return handler(**request.params)
        return run(handler, request.params)

    return dispatch


class RpcEndpoint:
    """Server-side binding of a server object to a (port, node name).

    The server object's ``cmd_*`` handlers are the service's command set.
    """

    def __init__(self, network: Network, node: str, port: int, server: Any) -> None:
        self.network = network
        self.node = node
        self.port = port
        self.server = server
        network.attach(node, dispatcher(server, port))
        _registry(network).setdefault(port, [])
        if node not in _registry(network)[port]:
            _registry(network)[port].append(node)

    def detach(self) -> None:
        """Take this server off the network (crash)."""
        self.network.detach(self.node)

    def reattach(self) -> None:
        """Bring this server back (restart)."""
        self.network.reattach(self.node)


def _registry(network: Network) -> dict[int, list[str]]:
    """Per-network port registry, stored on the network object itself."""
    registry = getattr(network, "_port_registry", None)
    if registry is None:
        registry = {}
        network._port_registry = registry
    return registry


def failover_order(nodes, prefer: str | None = None) -> list[str]:
    """The failover order for the servers listening on a port.

    Explicit and deterministic: the preferred server first (when given and
    listening), then the remaining servers sorted by name.  Registration
    order — which depends on construction sequence and silently changes
    when a deployment is assembled differently — plays no part.  Shared by
    the simulated :class:`Transaction` and the TCP transport
    (:class:`repro.net.transport.TcpTransaction`), so a client observes
    the same companion preference whichever wire it runs over.
    """
    ordered = sorted(nodes)
    if prefer is not None and prefer in ordered:
        ordered.remove(prefer)
        ordered.insert(0, prefer)
    return ordered


class Transaction:
    """Client-side transaction interface.

    ``call`` addresses a port.  If several servers listen on the port the
    first reachable one (in :func:`failover_order`, starting from
    ``prefer`` if given) serves the request; unreachable servers are
    skipped, reproducing the paper's "clients send requests to the
    alternative block server if the primary fails to respond".
    """

    def __new__(cls, network, client_node: str, backoff_ticks: int = 0):
        # A network may carry its own transaction implementation (the TCP
        # transport does): constructing ``Transaction(network, node)``
        # then yields that class, so the block client and FileClient run
        # unchanged over real sockets.
        override = getattr(network, "transaction_class", None)
        if cls is Transaction and override is not None and override is not cls:
            return object.__new__(override)
        return object.__new__(cls)

    def __init__(
        self, network: Network, client_node: str, backoff_ticks: int = 0
    ) -> None:
        self.network = network
        self.client_node = client_node
        # Logical ticks to wait between drop retries (0 = immediate
        # retransmit, the Amoeba default).  Clients under heavy loss set a
        # backoff so retransmissions do not hammer a congested path.
        self.backoff_ticks = backoff_ticks

    def call(
        self,
        port: int,
        command: str,
        prefer: str | None = None,
        retries_on_drop: int = 3,
        **params: Any,
    ) -> Any:
        """Run one transaction against ``port``.

        Dropped messages are retried (idempotence is the server's concern,
        as it was in Amoeba); unreachable servers trigger failover to the
        next server on the port.  If no server on the port is reachable,
        :class:`ServerUnreachable` is raised.
        """
        nodes = failover_order(_registry(self.network).get(port, []), prefer)
        if not nodes:
            raise ServerUnreachable(f"no server registered on port {port:#x}")
        recorder = getattr(self.network, "recorder", NULL_RECORDER)
        if recorder.enabled:
            recorder.event("rpc." + command, port=port, client=self.client_node)
        request = Request(command, params)
        last_error: Exception | None = None
        for node in nodes:
            attempts = retries_on_drop + 1
            for _ in range(attempts):
                try:
                    return self.network.send(self.client_node, node, request)
                except MessageDropped as exc:
                    last_error = exc
                    recorder.count("rpc.retries")
                    if self.backoff_ticks:
                        self.network.clock.advance(self.backoff_ticks)
                    continue  # retry same node
                except ServerUnreachable as exc:
                    last_error = exc
                    recorder.count("rpc.failovers")
                    break  # fail over to next node
        assert last_error is not None
        raise last_error
