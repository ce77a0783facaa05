"""``--quick``: every workload end to end, kill-and-restart included."""

import json
import subprocess
import sys
import time
from pathlib import Path

from bench import spec

ROOT = Path(__file__).resolve().parent.parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_quick_runs_all_four_workloads_in_under_twenty_seconds():
    started = time.monotonic()
    done = subprocess.run(RUN + ["--quick"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    lines = result_lines(done.stdout)
    assert len(lines) == 4
    expected = set(spec.metric_table("end_to_end"))
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == expected
        assert all(m["value"] > 0 for m in line["metrics"].values())
    assert done.stdout.rstrip().splitlines()[-1].startswith('{"correct"')
    assert elapsed < 20, f"--quick took {elapsed:.1f} s"
    leftovers = [p for p in (ROOT / "bench" / "out").glob("run-*")]
    assert leftovers == []


def test_quick_traced_run_prints_every_per_layer_metric_and_a_ledger():
    done = subprocess.run(
        RUN + ["--quick", "--trace", "1", "--workload", "commit_durable"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (line,) = result_lines(done.stdout)
    assert set(line["metrics"]) == set(spec.metric_table("per_layer"))
    assert "== ledger: commit_durable" in done.stdout
    assert line["metrics"]["ledger.coverage_pct"]["value"] >= 90


def test_unknown_workload_is_refused():
    done = subprocess.run(RUN + ["--workload", "nope"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode != 0
    assert result_lines(done.stdout) == []
