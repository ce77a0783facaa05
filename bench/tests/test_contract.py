"""``BENCHMARK.json`` against the driver's limits and the code's names."""

import re

from bench import spec
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_document_shape():
    document = spec.load()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["bench"]
    assert document["command"] == ["python3", "bench/run.py"]
    assert 1 <= document["run_seconds"] <= 60
    assert spec.BENCHMARK_JSON.stat().st_size <= 64 * 1024


def test_workloads_match_the_code():
    document = spec.load()
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    for entry in document["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metric_entries_are_well_formed():
    document = spec.load()
    names = [w["name"] for w in document["workloads"]]
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    for entry in document["end_to_end"] + document["per_layer"]:
        names.append(entry["name"])
        assert NAME.match(entry["name"]), entry["name"]
        assert UNIT.match(entry["unit"]), entry["unit"]
        assert entry["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    setup = spec.metric_table("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in document["end_to_end"])


def test_render_refuses_a_missing_metric():
    import pytest

    with pytest.raises(KeyError):
        spec.render({"setup_s": 1.0}, "end_to_end")
