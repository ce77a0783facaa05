"""Launch adapter: the one place that knows the daemon's command line.

Every untraced run drives ``python -m repro serve`` as a separate OS
process.  This module owns that command line, parses what the daemon
prints on start-up, reads its cost counters from ``/proc`` and always
reaps it (SIGINT, then SIGKILL).
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SPEC_PREFIX = "REPRO_SPEC="
STARTUP_TIMEOUT = 60.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SYNC_LINE = re.compile(r"journal sync via (\w+) \((\d+) us median")
_RECOVERED_LINE = re.compile(r"recovered (\d+) file\(s\)")


class DaemonFailed(RuntimeError):
    """The daemon exited, or never printed its spec line."""


@dataclass
class Startup:
    """What the daemon said before it started serving."""

    spec: str
    sync_primitive: str | None = None
    sync_us: int | None = None
    recovered_files: int = 0


def parse_startup(lines: list[str]) -> Startup:
    """Pick the spec, the chosen journal sync primitive and the recovered
    file count out of the daemon's start-up lines."""
    spec = None
    primitive = sync_us = None
    recovered = 0
    for line in lines:
        if line.startswith(SPEC_PREFIX):
            spec = line[len(SPEC_PREFIX):].strip()
        match = _SYNC_LINE.search(line)
        if match:
            primitive, sync_us = match.group(1), int(match.group(2))
        match = _RECOVERED_LINE.search(line)
        if match:
            recovered = int(match.group(1))
    if not spec:
        raise DaemonFailed("no %s line in:\n%s" % (SPEC_PREFIX, "".join(lines)))
    return Startup(spec, primitive, sync_us, recovered)


def serve_command(seed: int, data_dir: str, use_async: bool = True) -> list[str]:
    command = [sys.executable, "-m", "repro", "serve"]
    if use_async:
        command.append("--async")
    return command + [
        "--servers", "1", "--seed", str(seed), "--data-dir", data_dir,
    ]


class Daemon:
    """One running ``repro serve`` process."""

    def __init__(self, proc: subprocess.Popen, startup: Startup, spawn_s: float):
        self.proc = proc
        self.startup = startup
        self.spawn_s = spawn_s  # process start -> REPRO_SPEC line

    @property
    def spec(self) -> str:
        return self.startup.spec

    @classmethod
    def launch(cls, src_dir: Path, seed: int, data_dir: str) -> "Daemon":
        """Start the daemon and wait for its spec line.

        A ``serve`` that no longer knows ``--async`` (exit code 2, "unknown
        serve flag") is started again without it: once the async daemon is
        the only daemon the flag goes away, and the benchmark must not.
        """
        for use_async in (True, False):
            started = time.perf_counter()
            proc = subprocess.Popen(
                serve_command(seed, data_dir, use_async),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=dict(os.environ, PYTHONPATH=str(src_dir)),
            )
            try:
                lines = _read_until_spec(proc)
            except BaseException:
                reap(proc)
                raise
            if any(line.startswith(SPEC_PREFIX) for line in lines):
                spawn_s = time.perf_counter() - started
                return cls(proc, parse_startup(lines), spawn_s)
            code = reap(proc)
            text = "".join(lines)
            if use_async and code == 2 and "unknown serve flag '--async'" in text:
                continue
            raise DaemonFailed(f"daemon exited with code {code}:\n{text}")
        raise DaemonFailed("daemon rejected every command line")

    # -- cost counters (Linux /proc) ---------------------------------------

    def cpu_seconds(self) -> float:
        """utime + stime of the daemon so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_hwm_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonFailed("no VmHWM in /proc status")

    def write_chars(self) -> int:
        """Bytes the daemon has passed to write-like system calls."""
        for line in Path(f"/proc/{self.proc.pid}/io").read_text().splitlines():
            if line.startswith("wchar:"):
                return int(line.split()[1])
        raise DaemonFailed("no wchar in /proc io")

    # -- ending it ----------------------------------------------------------

    def kill(self) -> None:
        """``kill -9``: the crash the recovery arm measures."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        _close_pipes(self.proc)

    def stop(self) -> None:
        reap(self.proc)


def reap(proc: subprocess.Popen) -> int:
    """SIGINT, then SIGKILL; returns the exit code.  Safe to call twice."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    _close_pipes(proc)
    return proc.returncode


def _close_pipes(proc: subprocess.Popen) -> None:
    if proc.stdout is not None:
        proc.stdout.close()


def _read_until_spec(proc: subprocess.Popen) -> list[str]:
    """Lines printed until the spec line, end of output or the deadline."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + STARTUP_TIMEOUT
    buffer = b""
    lines: list[str] = []
    while True:
        while b"\n" in buffer:
            raw, buffer = buffer.split(b"\n", 1)
            lines.append(raw.decode(errors="replace") + "\n")
            if lines[-1].startswith(SPEC_PREFIX):
                return lines
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DaemonFailed(
                "daemon printed no spec line in %.0f s:\n%s"
                % (STARTUP_TIMEOUT, "".join(lines))
            )
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            if buffer:
                lines.append(buffer.decode(errors="replace"))
            return lines
        buffer += chunk


def wait_table_covers(data_dir: str, since_ns: int, timeout: float = 30.0) -> None:
    """Wait until the daemon's ``TABLE`` checkpoint covers every file
    created before ``since_ns`` (wall clock, ns).

    The serve loop rewrites ``TABLE`` about every 0.2 s when the file
    table changed.  A rewrite stamped just after ``since_ns`` may have
    serialised the table just before it; one stamped half a second later,
    a second rewrite, or 0.6 s without one, proves a checkpoint began
    after ``since_ns``.  Long after the last create this returns at once.
    """
    table = os.path.join(data_dir, "TABLE")
    deadline = time.monotonic() + timeout
    first = quiet_from = None
    while time.monotonic() < deadline:
        try:
            stamp = os.stat(table).st_mtime_ns
        except FileNotFoundError:
            stamp = 0
        if stamp > since_ns + 500_000_000:
            return
        if stamp > since_ns:
            if first is None:
                first, quiet_from = stamp, time.monotonic()
            elif stamp != first or time.monotonic() - quiet_from > 0.6:
                return
        time.sleep(0.02)
    raise DaemonFailed("TABLE checkpoint never covered the last create_file")
