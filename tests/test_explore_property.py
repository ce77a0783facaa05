"""Hypothesis property: random interleavings keep histories serializable.

Two concurrent cross-conflicting updates (classic write skew: A reads
page 0 and writes page 1, B reads page 1 and writes page 0) run against a
live garbage collector under schedules drawn by hypothesis.  Whatever the
interleaving, the recorded history must pass :func:`check_history` — the
OCC serialisability test forces one of a conflicting pair to abort, and
aborts must leave no trace.  The companion test proves the property has
teeth: with the serialisability test stubbed out (the soak harness's
``blind_serialise_mutant``) both updates commit and the checker objects.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import parse_command_line
from repro.core.gc import GarbageCollector
from repro.core.pathname import PagePath
from repro.errors import CommitConflict, ReproError
from repro.sim.explore import (
    ExploreScheduler,
    SoakConfig,
    SoakReport,
    blind_serialise_mutant,
)
from repro.testbed import build_cluster
from repro.verify.history import HistoryRecorder, check_history

ROOT = PagePath.ROOT
N_PAGES = 3


def _update(fs, cap, read_page, write_page, payload):
    handle = fs.create_version(cap)
    yield
    fs.read_page(handle.version, PagePath.of(read_page))
    yield
    fs.write_page(handle.version, PagePath.of(write_page), payload)
    yield
    try:
        fs.commit(handle.version)
    except CommitConflict:
        fs.abort(handle.version)
    yield


def _gc(fs):
    try:
        yield from GarbageCollector(fs).run_incremental()
    except ReproError:
        pass


def _grouped_pair(fs, cap):
    """The same write skew, both updates ready before ONE ``commit_group``
    — the chain-mate serialisability test decides the second member."""
    versions = []
    for read_page, write_page, payload in ((0, 1, b"A-wrote"), (1, 0, b"B-wrote")):
        handle = fs.create_version(cap)
        yield
        fs.read_page(handle.version, PagePath.of(read_page))
        fs.write_page(handle.version, PagePath.of(write_page), payload)
        versions.append(handle.version)
        yield
    fs.commit_group(versions)
    yield


def _deploy(grouped=False):
    history = HistoryRecorder()
    cluster = build_cluster(seed=5, history=history)
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(N_PAGES):
        fs.append_page(setup.version, ROOT, b"init%d" % i)
    fs.commit(setup.version)

    sched = ExploreScheduler()
    if grouped:
        sched.spawn("AB", _grouped_pair(fs, cap))
    else:
        sched.spawn("A", _update(fs, cap, 0, 1, b"A-wrote"))
        sched.spawn("B", _update(fs, cap, 1, 0, b"B-wrote"))
    sched.spawn("gc", _gc(fs))
    return history, fs, cap, sched


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_interleavings_stay_serializable(seed):
    history, fs, cap, sched = _deploy()
    sched.run_random(random.Random(seed))
    result = check_history(history)
    assert result.ok, [f"{v.kind}: {v.detail}" for v in result.violations]
    assert result.committed_versions >= 3  # create + setup + >=1 update
    # The survivor's write (at least one of the pair commits) is visible.
    current = fs.current_version(cap)
    pages = {fs.read_page(current, PagePath.of(i)) for i in range(N_PAGES)}
    assert pages & {b"A-wrote", b"B-wrote"}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=24))
def test_chosen_interleavings_stay_serializable(picks):
    """Same property, with hypothesis steering the schedule directly
    (caller-supplied order; exhausted orders fall back to round-robin)."""
    history, fs, cap, sched = _deploy()
    sched.run(order=iter(picks))
    result = check_history(history)
    assert result.ok, [f"{v.kind}: {v.detail}" for v in result.violations]


def test_mutant_double_commit_is_flagged(grouped=False):
    """With the serialisability test disabled, strict alternation makes
    both conflicting updates read before either commits — both commit
    (the blinded engine refuses nothing, whether the second meets the
    first as a committed successor or as a chain-mate), and the history
    checker must call the lost update out."""
    history, fs, cap, sched = _deploy(grouped)
    with blind_serialise_mutant():
        sched.run(order=iter([0, 1] * 12))
    assert fs.metrics.conflicts == 0
    result = check_history(history)
    assert not result.ok
    assert any(v.kind == "non-serializable-read" for v in result.violations)


def test_mutant_double_commit_in_one_group_is_flagged():
    test_mutant_double_commit_is_flagged(grouped=True)


# -- the soak command line -----------------------------------------------------

seeds, ops, mutants = st.integers(0, 10**6), st.integers(1, 10**4), st.booleans()
hand_built = st.builds(
    SoakConfig,
    seed=seeds,
    ops=ops,
    shards=st.integers(0, 8),
    clients=st.integers(1, 8),
    mutant=mutants,
    group_commit=st.booleans(),
    leases=st.booleans(),
    rebalance=st.booleans(),
    backend=st.sampled_from(["sim", "disk"]),
    contention=st.booleans(),
    merge=st.booleans(),
)


@given(st.builds(SoakConfig.for_seed, seeds, ops, mutants), hand_built)
def test_replay_line_parses_back_to_its_config(drawn, config):
    """The replay line a failing soak prints never names a different run:
    a seed's draw round-trips through the ``repro soak`` parser, and any
    other config is spelled out, with no command line."""
    line = SoakReport(drawn, check=None, fsck=None).repro_line()
    command, words = line.split()[:4], line.split()[4:]
    assert command == ["PYTHONPATH=src", "python", "-m", "repro"]
    _, values = parse_command_line(words)
    assert [
        SoakConfig.for_seed(seed, values["ops"], values.get("mutant", False))
        for seed in values["seed"]
    ] == [drawn]

    line = SoakReport(config, check=None, fsck=None).repro_line()
    if config != SoakConfig.for_seed(config.seed, config.ops, config.mutant):
        assert "repro soak" not in line
        assert eval(line, {"SoakConfig": SoakConfig}) == config
