"""Benchmark fixtures.

Each benchmark measures a hot path with pytest-benchmark AND regenerates
its experiment's table: rows go through the ``report`` fixture, which
prints them and appends them to ``benchmarks/results.txt`` so the full
set of paper-shape tables survives output capturing.

A benchmark that raises mid-table must not leave rows that look like a
completed run: the fixture inspects the test's own outcome at teardown
and writes a loud ``INCOMPLETE`` banner *instead of* the partial rows.
Machine-readable trajectories live next door in ``bench_json.py`` (see
docs/BENCHMARKS.md).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS = pathlib.Path(__file__).parent / "results.txt"


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    RESULTS.write_text("")
    yield


@pytest.fixture(params=["sim", "disk"])
def disk_backend(request, tmp_path):
    """File-system parametrisation (same shape as the tests/ fixture):
    benchmarks taking this run with the disks on the in-memory kernel AND
    on real files.  Returns a zero-argument callable producing
    ``StablePair`` keyword arguments with a fresh data dir per call."""
    import itertools

    counter = itertools.count(1)

    def kwargs() -> dict:
        if request.param == "sim":
            return {"data_dir": None}
        return {"data_dir": str(tmp_path / f"disk{next(counter)}")}

    return kwargs


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Stash each phase's report on the item so fixtures can see at
    teardown whether the test body actually completed."""
    outcome = yield
    rep = outcome.get_result()
    setattr(item, f"rep_{rep.when}", rep)


class Reporter:
    def __init__(self, title: str) -> None:
        self.title = title
        self.lines: list[str] = []

    def row(self, text: str) -> None:
        self.lines.append(text)

    def flush(self) -> None:
        block = "\n".join([f"== {self.title} =="] + self.lines + [""])
        print("\n" + block)
        with RESULTS.open("a") as fh:
            fh.write(block + "\n")

    def abort(self, reason: str) -> None:
        """The loud-failure path: the benchmark died mid-table.  Partial
        rows are discarded — a half-built table in results.txt reads
        exactly like a finished one — and the banner that replaces them
        cannot be mistaken for data."""
        block = "\n".join(
            [
                f"== {self.title} == INCOMPLETE",
                f"!! benchmark raised before finishing: {reason}",
                f"!! {len(self.lines)} partial row(s) discarded",
                "",
            ]
        )
        print("\n" + block)
        with RESULTS.open("a") as fh:
            fh.write(block + "\n")


@pytest.fixture
def report(request):
    reporter = Reporter(request.node.name)
    yield reporter
    call_report = getattr(request.node, "rep_call", None)
    if call_report is not None and call_report.failed:
        crash = getattr(call_report.longrepr, "reprcrash", None)
        reason = crash.message if crash is not None else str(call_report.longrepr)
        reporter.abort(reason.splitlines()[0])
    else:
        reporter.flush()
