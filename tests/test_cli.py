"""The ``python -m repro`` command-line tour."""

import subprocess
import sys

import pytest


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demo_runs_clean():
    result = _run("demo")
    assert result.returncode == 0, result.stderr
    assert "fsck: clean" in result.stdout
    assert "crashed" in result.stdout


def test_fsck_exits_zero_on_clean_system():
    result = _run("fsck")
    assert result.returncode == 0, result.stderr
    assert "fsck: clean" in result.stdout
    assert "0 leaked blocks" in result.stdout


def test_salvage_recovers_files():
    result = _run("salvage")
    assert result.returncode == 0, result.stderr
    assert "recovered 3 files" in result.stdout
    assert "revised" in result.stdout


def test_unknown_subcommand_prints_usage():
    result = _run("no-such-command")
    assert result.returncode == 2
    assert "Subcommands" in result.stdout


@pytest.mark.parametrize(
    "script",
    [
        "quickstart",
        "airline_reservation",
        "bank_branch",
        "source_control",
        "crash_resilience",
        "project_workspace",
        "remote_quickstart",
    ],
)
def test_examples_run_clean(script):
    result = subprocess.run(
        [sys.executable, f"examples/{script}.py"],
        capture_output=True,
        text=True,
        timeout=180,
        cwd="/root/repo",
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_soak_runs_a_seed_range_and_rejects_unknown_flags():
    result = _run("soak", "--seed", "1..2", "--ops", "20", "--shards", "2")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[1] for line in lines] == ["seed=1", "seed=2"]
    assert all("(2 shards): ok" in line for line in lines)

    result = _run("soak", "--bogus")
    assert result.returncode == 2
    assert "unknown soak flag '--bogus'" in result.stdout
