"""Amoeba-style transactions: request/response RPC addressed to ports.

Amoeba's primitive is the *transaction*: a client sends a request to a
service *port* and blocks for the reply.  Several server processes may
listen on the same port (replicated services); the paper relies on this for
availability ("clients ... can use another server").

This module layers ports on the name-addressed :class:`repro.sim.network.
Network`:

* an :class:`RpcEndpoint` registers a server object under a port;
* ``Transaction.call(port, request)`` routes to a live server listening on
  that port, trying alternatives if the preferred one is unreachable or
  crashed — exactly the failover behaviour §4 of the paper prescribes for
  companion block servers.  :class:`Transaction` is the only code that
  re-sends a request, on either network.

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
import time
from dataclasses import dataclass
from sys import intern
from typing import Any, Callable, Sequence

from repro.errors import MessageDropped, ServerCrashed, ServerUnreachable
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
    when a deployment is assembled differently — plays no part.
    :class:`Transaction` uses it on every network, so a client observes
    the same companion preference whichever wire it runs over.
    """
    ordered = sorted(nodes)
    if prefer is not None and prefer in ordered:
        ordered.remove(prefer)
        ordered.insert(0, prefer)
    return ordered


# The errors a transaction answers by sending again: to the same node (a
# drop) or to the next one.
_RESENT = (MessageDropped, ServerUnreachable, ServerCrashed)


class Transaction:
    """Client-side transaction interface: the one loop that re-sends.

    ``call`` addresses a port; the servers listening on it are tried in
    :func:`failover_order`, starting from ``prefer`` if given.
    ``call_nodes`` addresses named peers in the order given: a half's
    companion, or a migration source's available halves.  Both follow the
    paper's "clients send requests to the alternative block server if the
    primary fails to respond":

    * a :class:`MessageDropped` (a drop on the simulator, a daemon's busy
      signal over TCP) re-sends to the same node, :data:`ATTEMPTS` in all;
    * a :class:`ServerUnreachable` or :class:`ServerCrashed` (a crashed or
      still-recovering server) fails over to the next node.

    That is one *sweep*.  A port call that exhausts a sweep pauses and
    sweeps again, once per entry of the network's ``SWEEP_PAUSES``
    (seconds): the simulated network has none, because nothing can heal
    inside a synchronous call; the TCP network's cover a daemon mid-
    restart.  A named call sweeps once on either network, because its
    caller has its own fallback (an intention, the twin half, an abort).
    The last error of the last sweep reaches the caller.
    """

    ATTEMPTS = 4  # sends to one node per sweep while it drops the message

    def __init__(self, network: Network, client_node: str) -> None:
        self.network = network
        self.client_node = client_node

    def call(
        self, port: int, command: str, prefer: str | None = None, **params: Any
    ) -> Any:
        """Run one transaction against ``port``.  Idempotence is the
        server's concern, as it was in Amoeba."""
        network = self.network
        nodes = failover_order(_registry(network).get(port, ()), prefer)
        if not nodes:
            raise ServerUnreachable(f"no server registered on port {port:#x}")
        recorder = network.recorder
        if recorder.enabled:
            # Interned: spans keep their events, so one name per command.
            recorder.event(intern("rpc." + command), port=port, client=self.client_node)
        request = Request(command, params)
        try:
            return network.send(self.client_node, nodes[0], request)
        except _RESENT as exc:
            return self._resend(nodes, request, exc, network.SWEEP_PAUSES)

    def call_nodes(self, nodes: Sequence[str], command: str, **params: Any) -> Any:
        """Run one transaction against the named ``nodes``, in order."""
        network = self.network
        recorder = network.recorder
        if recorder.enabled:
            recorder.event(intern("rpc." + command), client=self.client_node)
        request = Request(command, params)
        try:
            return network.send(self.client_node, nodes[0], request)
        except _RESENT as exc:
            return self._resend(nodes, request, exc, ())

    def _resend(self, nodes, request: Request, failure: Exception, pauses) -> Any:
        """The rest of the sweeps, after the first send (to ``nodes[0]``)
        failed with ``failure``.  Each re-send is an event, so the open
        span sees it: ``rpc.retries`` (same node), ``rpc.failovers`` (the
        next node) or ``rpc.sweeps`` (all nodes again, after a pause)."""
        network = self.network
        recorder = network.recorder
        pauses = iter(pauses)
        index, attempt = 0, 1
        while True:
            if isinstance(failure, MessageDropped) and attempt < self.ATTEMPTS:
                recorder.event("rpc.retries", node=nodes[index])
            else:
                index, attempt = index + 1, 0
                if index < len(nodes):
                    recorder.event("rpc.failovers", node=nodes[index])
                else:
                    pause = next(pauses, None)
                    if pause is None:
                        raise failure
                    recorder.event("rpc.sweeps", pause=pause)
                    time.sleep(pause)
                    index = 0
            attempt += 1
            try:
                return network.send(self.client_node, nodes[index], request)
            except _RESENT as exc:
                failure = exc
