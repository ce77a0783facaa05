"""Real wire transport: the file service over TCP sockets.

The paper's service speaks Amoeba transactions — request/response RPC to
ports, with failover to companion servers (§4).  :mod:`repro.sim` models
that wire; this package *is* that wire:

* :mod:`repro.net.wire` — the versioned, length-prefixed binary codec
  for request / reply / error frames;
* :mod:`repro.net.server` — :class:`~repro.net.server.NetServer`, the
  socket daemon hosting any ``cmd_*`` server object, one TCP port per
  paper port: a thread per connection, replies in request order,
  read-only commands served without the dispatch lock;
* :mod:`repro.net.transport` — :class:`~repro.net.transport.TcpNetwork`
  (the simulated network's interface over pooled real connections,
  each a blocking :class:`~repro.net.transport.Connection`, with
  per-call timeouts and the pauses between
  :class:`~repro.sim.rpc.Transaction`'s sweeps);
* :mod:`repro.net.cluster` — :func:`~repro.net.cluster.build_tcp_cluster`
  to launch a whole topology of companion pairs and file servers on
  localhost (a :class:`repro.testbed.Cluster`, as on the simulator),
  plus the spec strings ``repro serve`` / ``repro connect``
  exchange.

Everything above the transport — OCC, stores, clients — runs unchanged;
see docs/NETWORKING.md for the wire format and the sim/TCP parity matrix.
"""

from repro.net.cluster import bootstrap, build_tcp_cluster, connect, parse_spec
from repro.net.server import NetServer
from repro.net.transport import Connection, TcpNetwork, WallClock

__all__ = [
    "Connection",
    "NetServer",
    "TcpNetwork",
    "WallClock",
    "bootstrap",
    "build_tcp_cluster",
    "connect",
    "parse_spec",
]
