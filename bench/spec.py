"""``BENCHMARK.json`` is the single list of workloads and metric names,
units, directions and bounds; this module reads it."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def metric_table(kind: str) -> dict[str, dict]:
    """``end_to_end`` or ``per_layer`` metrics by name."""
    return {entry["name"]: entry for entry in load()[kind]}


def render(values: dict[str, float], kind: str) -> dict[str, dict]:
    """The ``metrics`` object of the result line: every metric of ``kind``
    with its unit; a missing value is an error, not a silent gap."""
    table = metric_table(kind)
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"no value measured for {kind} metric(s) {missing}")
    return {
        name: {"value": values[name], "unit": entry["unit"]}
        for name, entry in table.items()
    }
