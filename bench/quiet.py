"""Keep the machine's own jitter out of the measurement.

Measured on the 2-vCPU VM the benchmark was written on: a wake-up that
crosses vCPUs, or lands on a vCPU that has halted, costs up to a
millisecond and swings by 2x from minute to minute, so an unpinned
``read_hot`` ran at 330-640 ops/s while the same code pinned to one vCPU
that is never allowed to halt ran at 820-930 ops/s.  Closed-loop RPC is
serial anyway (one operation in flight per client, one interpreter lock
per process), so one vCPU carries the whole benchmark.

:class:`QuietBox` therefore (1) pins this process — and the daemon it
later spawns, which inherits the mask — to one vCPU, always the same one,
and (2) parks a ``SCHED_IDLE`` busy loop on that vCPU, which only gets
cycles nobody else wants but keeps the vCPU from halting while the daemon
waits for the disk.  Which vCPU matters for disk-heavy work: on the one
that services the block device's interrupts ``bulk_recover`` ran 15-20 %
faster and ``commit_durable`` 7 % faster than on the other (``read_hot``:
no difference), so that one is chosen, not whichever spins fastest now.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

_SPINNER = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while True:
    pass
"""


# Interrupt names of block-device request queues in /proc/interrupts.
_BLOCK_IRQ = re.compile(r"virtio\d+-req|nvme|ahci|ata_piix|blkif")


def disk_irq_cpu(cpus: set[int], table: str | None = None) -> int:
    """The CPU of ``cpus`` that has served the most block-device
    interrupts (``/proc/interrupts``); the highest-numbered one when the
    table names no block device."""
    if table is None:
        try:
            table = Path("/proc/interrupts").read_text()
        except OSError:
            table = ""
    lines = table.splitlines()
    columns = [int(c[3:]) for c in lines[0].split()] if lines else []
    served = dict.fromkeys(cpus, 0)
    for line in lines[1:]:
        if _BLOCK_IRQ.search(line):
            counts = line.split(":", 1)[1].split()[: len(columns)]
            for cpu, count in zip(columns, counts):
                if cpu in served and count.isdigit():
                    served[cpu] += int(count)
    return max(sorted(cpus), key=lambda cpu: (served[cpu], cpu))


class QuietBox:
    """Context manager: one vCPU, kept awake, for this process tree."""

    def __init__(self) -> None:
        self.cpu: int | None = None
        self._allowed: set[int] | None = None
        self._spinner: subprocess.Popen | None = None

    def __enter__(self) -> "QuietBox":
        if not hasattr(os, "sched_setaffinity"):
            return self  # not Linux: run unpinned
        self._allowed = os.sched_getaffinity(0)
        self.cpu = disk_irq_cpu(self._allowed)
        os.sched_setaffinity(0, {self.cpu})
        self._spinner = subprocess.Popen(
            [sys.executable, "-c", _SPINNER, str(self.cpu)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        if self._spinner is not None:
            self._spinner.kill()
            self._spinner.wait(timeout=30)
        if self._allowed is not None:
            os.sched_setaffinity(0, self._allowed)
