"""The benchmark tooling itself: the JSON trajectory harness and the
loud-failure result capture.

These run under tier-1 (no pytest-benchmark needed) because they guard
acceptance criteria: the group-commit reduction claim lives in
BENCH_commit.json, and a benchmark that dies mid-table must never leave
rows that read like a completed run.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
BENCHMARKS = REPO / "benchmarks"


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_json():
    return _load("bench_json", BENCHMARKS / "bench_json.py")


def test_group_commit_reduces_cost_at_least_30_percent(bench_json):
    """The tentpole's acceptance bar: 8 concurrent non-conflicting
    updates on one server, grouped vs sequential — both commit-path
    messages and stable-storage writes drop by >= 30%."""
    result = bench_json.measure_group_commit()
    assert result["members"] == 8
    assert result["reduction_pct"]["messages"] >= 30.0
    assert result["reduction_pct"]["stable_writes"] >= 30.0
    # And the committed baseline records the same claim.
    baseline = json.loads((BENCHMARKS / "BENCH_commit.json").read_text())
    recorded = baseline["group_commit"]["reduction_pct"]
    assert recorded["messages"] >= 30.0
    assert recorded["stable_writes"] >= 30.0


def test_bench_measurements_are_deterministic(bench_json):
    assert bench_json.measure_group_commit() == bench_json.measure_group_commit()
    assert bench_json.measure_fast_commit(8) == bench_json.measure_fast_commit(8)


def test_committed_baselines_match_fresh_measurements(bench_json):
    """The committed BENCH_*.json files must be regenerable bit-for-bit —
    a PR that changes commit-path costs must refresh them (that is the
    point of the gate).  Subtrees a document declares as ``wallclock``
    (BENCH_disk.json's seconds and sync-cost-tuned pass) are excluded: they are
    committed as a record of a claim, not a reproducible count."""
    for filename, produce in bench_json.BENCHES.items():
        committed = json.loads((BENCHMARKS / filename).read_text())
        view = bench_json.deterministic_view
        assert view(committed) == view(produce()), (
            f"{filename} is stale: regenerate with "
            "PYTHONPATH=src python benchmarks/bench_json.py"
        )


def test_deterministic_view_strips_only_declared_wallclock(bench_json):
    doc = {
        "wallclock": ["contended", "deep.seconds"],
        "contended": {"p99": 1.23},
        "deep": {"seconds": 0.5, "messages": 42},
        "parity": {"sim": 7},
    }
    view = bench_json.deterministic_view(doc)
    assert "contended" not in view
    assert view["deep"] == {"messages": 42}
    assert view["parity"] == {"sim": 7}
    assert doc["contended"] == {"p99": 1.23}  # the original is untouched
    # Documents with no wallclock declaration pass through unchanged.
    assert bench_json.deterministic_view({"a": 1}) == {"a": 1}


def test_gate_flags_regressions_and_tolerates_noise(bench_json):
    baseline = {
        "gate": ["a.messages", "a.ticks"],
        "a": {"messages": 100, "ticks": 1000},
    }
    within = {"a": {"messages": 115, "ticks": 1000}}
    beyond = {"a": {"messages": 130, "ticks": 900}}
    assert bench_json.compare(baseline, within, "f") == []
    failures = bench_json.compare(baseline, beyond, "f")
    assert len(failures) == 1
    assert "a.messages" in failures[0]
    # A zero baseline only passes a zero measurement.
    zero = {"gate": ["a.messages"], "a": {"messages": 0}}
    assert bench_json.compare(zero, {"a": {"messages": 1}}, "f")
    assert bench_json.compare(zero, {"a": {"messages": 0}}, "f") == []


def test_reporter_abort_discards_partial_rows(tmp_path, monkeypatch):
    conftest = _load("bench_conftest", BENCHMARKS / "conftest.py")
    monkeypatch.setattr(conftest, "RESULTS", tmp_path / "results.txt")
    conftest.RESULTS.write_text("")
    reporter = conftest.Reporter("half-done-table")
    reporter.row("pages  msgs")
    reporter.row("    1     4")
    reporter.abort("ValueError: boom")
    text = conftest.RESULTS.read_text()
    assert "INCOMPLETE" in text
    assert "ValueError: boom" in text
    assert "2 partial row(s) discarded" in text
    assert "    1     4" not in text  # the rows really are gone


def test_report_fixture_fails_loudly_on_midtable_error(tmp_path):
    """End-to-end: a benchmark that raises after emitting rows leaves an
    INCOMPLETE banner in results.txt, not a truncated table."""
    (tmp_path / "conftest.py").write_text(
        (BENCHMARKS / "conftest.py").read_text()
    )
    (tmp_path / "test_dies.py").write_text(
        "def test_dies_mid_table(report):\n"
        "    report.row('pages  msgs')\n"
        "    report.row('  512   999')\n"
        "    raise ValueError('disk fell over')\n"
        "\n"
        "def test_completes(report):\n"
        "    report.row('all rows present')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1  # the dying test still fails the run
    results = (tmp_path / "results.txt").read_text()
    assert "== test_dies_mid_table == INCOMPLETE" in results
    assert "disk fell over" in results
    assert "  512   999" not in results
    assert "all rows present" in results  # completed tables still land
