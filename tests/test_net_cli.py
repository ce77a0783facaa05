"""The networking CLI, end to end across real process boundaries:
``repro serve`` in one process, ``repro connect`` in another, plus the
``--smoke`` workload, ``--data-dir`` durability across ``kill -9``, and
the ``repro stats`` net section."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest


def _run(*args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _spawn_server(*args):
    """Start ``repro serve`` and wait for its REPRO_SPEC line; returns the
    process, the spec, and every startup line printed before it."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    spec = None
    startup = []
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        startup.append(line)
        if line.startswith("REPRO_SPEC="):
            spec = line[len("REPRO_SPEC=") :].strip()
            break
    assert spec, "server never printed its REPRO_SPEC line:\n" + "".join(startup)
    return proc, spec, startup


def test_serve_then_connect_across_processes():
    """The real deployment shape: a daemon process and a client process
    that share nothing but the spec string and localhost TCP."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--servers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        spec = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            if line.startswith("REPRO_SPEC="):
                spec = line[len("REPRO_SPEC=") :].strip()
                break
        assert spec, "server never printed its REPRO_SPEC line"
        result = _run("connect", spec)
        assert result.returncode == 0, result.stderr
        assert "connect: ok" in result.stdout
        assert "read back: b'committed over TCP'" in result.stdout
    finally:
        server.terminate()
        server.wait(timeout=30)


def test_serve_smoke_commits_and_fails_over():
    """The CI gate: a history-checked workload over sockets that loses a
    stable-pair daemon mid-run."""
    result = _run("serve", "--smoke")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "killed stable-pair daemon" in result.stdout
    assert "smoke: ok" in result.stdout
    assert "rpc.failovers" in result.stdout


def test_serve_smoke_fails_over_on_a_sharded_deployment():
    """The same gate on two pairs: half failover within shard 0, and the
    agreement check after resync covers both pairs."""
    result = _run("serve", "--smoke", "--shards", "2")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "killed stable-pair daemon shard0A" in result.stdout
    assert "smoke: ok" in result.stdout


def test_serve_data_dir_survives_sigkill(tmp_path):
    """The durability acceptance test: commit a file over TCP, ``kill -9``
    the server, restart it on the same data dir alone, and read the data
    back with the capability minted before the crash.  Works because block
    writes journal to disk before acking and the serve loop checkpoints
    the file table; the same ``--seed`` re-derives the paper ports so the
    old capability still names the service."""
    from repro.client.api import FileClient
    from repro.core.pathname import PagePath
    from repro.net import connect

    data_dir = str(tmp_path / "store")
    server, spec, _ = _spawn_server(
        "--servers", "1", "--seed", "5", "--data-dir", data_dir
    )
    table = os.path.join(data_dir, "TABLE")
    try:
        network, service_port = connect(spec)
        client = FileClient(network, "durable-client", service_port)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not os.path.exists(table):
            time.sleep(0.05)
        assert os.path.exists(table), "serve loop never checkpointed the table"
        before = os.stat(table).st_mtime_ns

        cap = client.create_file(b"seed page")
        client.transact(cap, lambda u: u.write(PagePath.ROOT, b"survives kill -9"))
        assert client.read(cap) == b"survives kill -9"

        # Wait for the registry checkpoint that includes the commit: the
        # serve loop rewrites TABLE whenever the serialized table changed.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and os.stat(table).st_mtime_ns == before:
            time.sleep(0.05)
        assert os.stat(table).st_mtime_ns != before, "commit never checkpointed"
    finally:
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)

    # Restart from the data dir alone (same seed → same paper ports).
    server, spec2, startup = _spawn_server(
        "--servers", "1", "--seed", "5", "--data-dir", data_dir
    )
    try:
        assert any("recovered 1 file(s)" in line for line in startup), (
            "restart did not report the recovered file:\n" + "".join(startup)
        )
        network2, service_port2 = connect(spec2)
        client2 = FileClient(network2, "durable-client-2", service_port2)
        assert service_port2 == service_port  # deterministic port derivation
        # The pre-crash capability validates against the restored registry
        # and reads the committed bytes straight off the journal-replayed
        # page store.
        assert client2.read(cap) == b"survives kill -9"
        assert len(client2.history(cap)) >= 1
    finally:
        server.terminate()
        server.wait(timeout=30)


def test_connect_usage_errors():
    result = _run("connect")
    assert result.returncode == 2
    assert "usage" in result.stdout

    result = _run("connect", "not-a-spec")
    assert result.returncode != 0


def test_stats_renders_net_section():
    result = _run("stats")
    assert result.returncode == 0, result.stderr
    assert "net (simulated vs tcp)" in result.stdout
    # Rows of the net table itself (flush left), not the counter dump.
    assert re.search(r"^net\.messages +\d+$", result.stdout, re.M)
    assert re.search(r"^net\.tcp\.requests +\d+$", result.stdout, re.M)


def test_serve_rejects_unknown_flag():
    result = _run("serve", "--bogus")
    assert result.returncode == 2
    # The netbench entry point is gone with the second daemon.
    result = _run("serve", "--bench")
    assert result.returncode == 2
    assert "unknown serve flag '--bench'" in result.stdout


def test_serve_still_accepts_the_async_flag():
    """``bench/daemon.py`` starts the daemon with ``--async``; until it stops
    (ROADMAP 4(b)) the flag is parsed and means nothing."""
    server, spec, _ = _spawn_server("--async", "--servers", "1")
    try:
        assert spec.startswith("service:")
    finally:
        server.terminate()
        server.wait(timeout=30)


def test_daemon_process_imports_no_event_loop_or_executors():
    """What the daemon does not import it does not pay for at every spawn:
    ``asyncio`` costs it megabytes of resident memory and tens of
    milliseconds of start-up (``server_rss_mib`` and ``setup_s`` in bench/)."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.net, repro.__main__; "
            "print([m for m in ('asyncio', 'concurrent.futures') if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
