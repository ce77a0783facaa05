"""The ``python -m repro`` command-line tour."""

import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main

REPO = pathlib.Path(__file__).resolve().parent.parent


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _in_process(capsys, *args):
    """``python -m repro ARGS`` run in this process: (exit code, stdout)."""
    try:
        main(["repro", *args])
        code = 0
    except SystemExit as exit_:
        code = exit_.code
    return code, capsys.readouterr().out


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


def test_unknown_subcommand_prints_usage(capsys):
    code, out = _in_process(capsys, "no-such-command")
    assert code == 2
    assert "Subcommands" in out


@pytest.mark.parametrize("verb", ["status", "split", "migrate"])
def test_cluster_verbs(capsys, verb):
    """The operator verbs over a demo sharded deployment: the placement
    map and daemon directory, then a reshape every file reads back
    through."""
    code, out = _in_process(capsys, "cluster", verb, "--shards", "2")
    assert code == 0
    assert "placement epoch 1" in out and "daemon directory" in out
    if verb != "status":
        assert "placement epoch 2" in out
        assert "all 6 files read back through the new placement: ok" in out


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
        cwd=REPO,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_soak_runs_a_seed_range_and_rejects_unknown_flags(capsys):
    from repro.sim.explore import SoakConfig

    result = _run("soak", "--seed", "1..2", "--ops", "20")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[1] for line in lines] == ["seed=1", "seed=2"]
    for seed, line in zip((1, 2), lines):
        features = SoakConfig.for_seed(seed, 20, False).features()
        assert f": {', '.join(features) or 'plain'}): ok;" in line

    # A feature is the seed's to draw, not a flag.
    for flag in ("--bogus", "--leases"):
        code, out = _in_process(capsys, "soak", flag)
        assert code == 2
        assert f"unknown soak flag '{flag}'" in out


MALFORMED = [
    ("serve --seed", "--seed"),
    ("serve --servers x", "--servers"),
    ("connect S --node", "--node"),
    ("cluster status --index", "--index"),
    ("stats x", "'x'"),
    ("soak --seed 3..1", "--seed"),
    ("cluster bogus", "'bogus'"),
    ("demo extra", "'extra'"),
    ("connect", "<spec>"),
]


@pytest.mark.parametrize(
    "line, named", MALFORMED, ids=[line for line, _ in MALFORMED]
)
def test_malformed_command_line_exits_2_naming_the_argument(capsys, line, named):
    code, out = _in_process(capsys, *line.split())
    assert code == 2, out
    message = out.splitlines()[0]
    assert line.split()[0] in message and named in message
    assert "metrics" not in out  # nothing ran before the check
