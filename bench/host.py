"""What the machine allows: the ceilings every figure is read against.

``spin_kops`` is raw single-thread Python speed (it swings by +-20 % from
second to second on a small VM, so it is sampled before and after each
workload and a large difference marks the run noisy); ``loopback_rtt_us``
is the floor under one RPC; ``fdatasync_us`` is the floor under one
durable journal append.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

SPIN_SECONDS = 0.5
NOISY_SPIN_CHANGE = 0.15


def spin_kops(seconds: float = SPIN_SECONDS) -> float:
    """Thousands of trivial loop iterations per second, measured for
    ``seconds`` in batches so the clock is read rarely."""
    batch = 20_000
    done = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for _ in range(batch):
            pass
        done += batch
        now = time.perf_counter()
        if now >= deadline:
            return done / (now - start) / 1000.0


def noisy(before: float, after: float) -> bool:
    """Did raw Python speed move by more than 15 % across the workload?"""
    return abs(after - before) / max(before, after) > NOISY_SPIN_CHANGE


def loopback_rtt_us(rounds: int = 400) -> float:
    """Median round trip of one byte over a loopback TCP connection with
    TCP_NODELAY, echoed by a thread in this process."""
    listener = socket.create_server(("127.0.0.1", 0))

    def echo() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                data = conn.recv(1)
                if not data:
                    return
                conn.sendall(data)

    thread = threading.Thread(target=echo, name="bench-echo", daemon=True)
    thread.start()
    try:
        with socket.create_connection(listener.getsockname()) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            times = []
            for _ in range(rounds):
                start = time.perf_counter()
                conn.sendall(b"x")
                conn.recv(1)
                times.append(time.perf_counter() - start)
    finally:
        listener.close()
        thread.join(timeout=5)
    return statistics.median(times) * 1e6


def fdatasync_us(directory: str) -> float:
    """Median cost of one small durable append in ``directory``, by the
    repo's own probe of the primitive the journal would pick."""
    from repro.block.fdisk import cheapest_journal_primitive, probe_sync_primitives

    costs = probe_sync_primitives(directory)
    return costs.get("fdatasync", costs[cheapest_journal_primitive(costs)]) * 1e6
