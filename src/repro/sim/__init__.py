"""Simulation substrate: logical clock, network, RPC, faults, scheduler.

The 1985 system ran on multiple hosts connected by a LAN.  This package
replaces that hardware with a deterministic single-process simulation:

* :mod:`repro.sim.clock` — logical time; message latency and disk service
  times advance it.
* :mod:`repro.sim.network` — point-to-point message delivery with counters,
  partitions, and drop injection.
* :mod:`repro.sim.rpc` — Amoeba-style request/response *transactions*
  addressed to ports.
* :mod:`repro.sim.faults` — drop policies and seeded fault scripts.
* :mod:`repro.sim.sched` — a cooperative round-robin scheduler that
  interleaves client scripts and background tasks (e.g. the garbage
  collector) at operation granularity.
"""

from repro.sim.clock import LogicalClock
from repro.sim.network import Network, NetworkStats
from repro.sim.rpc import RpcEndpoint, Transaction
from repro.sim.faults import DropPolicy
from repro.sim.sched import Scheduler, Task, Yield

__all__ = [
    "LogicalClock",
    "Network",
    "NetworkStats",
    "RpcEndpoint",
    "Transaction",
    "DropPolicy",
    "Scheduler",
    "Task",
    "Yield",
]
