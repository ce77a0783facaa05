"""Semantic merges through the full stack: service commits, group-commit
chains, the redo loop's starvation bound, durable media, TCP, and the
merge-aware history checker.

The unit rules of the or-set itself live in test_merge_orset.py; here the
merge layer is exercised the way deployments hit it — two concurrent
committed rewrites of a merge-typed directory page arriving at
``occ.serialise`` (and its group-commit chain), with the strictness
boundary (same-entry divergence still conflicts) checked end to end.
"""

from __future__ import annotations

import pytest

from repro.apps.directory import _pack_table, _unpack_table
from repro.apps.volume import Volume
from repro.capability import CapabilityIssuer
from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.core.registry import FileRegistry
from repro.core.service import FileService
from repro.errors import CommitConflict, MergeConflict, UpdateStarved
from repro.merge.orset import encode_entries
from repro.testbed import build_cluster
from repro.tools.salvage import salvage
from repro.verify.history import HistoryRecorder, check_history

ROOT = PagePath.ROOT


def _bind(fs, handle, name, target):
    table = _unpack_table(fs.read_page(handle.version, ROOT))
    table[name] = target
    fs.write_page(handle.version, ROOT, _pack_table(table))


def _final_names(fs, cap) -> set[str]:
    raw = fs.read_page(fs.current_version(cap), ROOT)
    return set(_unpack_table(raw))


# ---------------------------------------------------------------------------
# the commit path
# ---------------------------------------------------------------------------


def test_concurrent_distinct_binds_both_commit(fs):
    cap = fs.create_file(_pack_table({}), mergeable=True)
    first = fs.create_version(cap)
    second = fs.create_version(cap)
    _bind(fs, first, "alpha", cap)
    _bind(fs, second, "beta", cap)
    assert fs.commit(first.version) == []
    merged = fs.commit(second.version)  # W/W overlap on ROOT → merged
    assert merged == [str(ROOT)]
    assert _final_names(fs, cap) == {"alpha", "beta"}
    assert fs.metrics.semantic_merges == 1
    assert fs.metrics.merge_conflicts == 0


def test_same_entry_divergent_targets_still_conflict(fs):
    cap = fs.create_file(_pack_table({}), mergeable=True)
    other = fs.create_file(b"target")
    first = fs.create_version(cap)
    second = fs.create_version(cap)
    _bind(fs, first, "name", cap)
    _bind(fs, second, "name", other)
    fs.commit(first.version)
    with pytest.raises(CommitConflict, match="merge: "):
        fs.commit(second.version)
    assert _final_names(fs, cap) == {"name"}
    assert fs.metrics.merge_conflicts == 1


def test_remove_of_renamed_entry_survives(fs):
    cap = fs.create_file(_pack_table({}), mergeable=True)
    seed = fs.create_version(cap)
    _bind(fs, seed, "old", cap)
    fs.commit(seed.version)
    renamer = fs.create_version(cap)
    remover = fs.create_version(cap)
    table = _unpack_table(fs.read_page(renamer.version, ROOT))
    table["new"] = table.pop("old")
    fs.write_page(renamer.version, ROOT, _pack_table(table))
    fs.write_page(remover.version, ROOT, _pack_table({}))
    fs.commit(renamer.version)
    fs.commit(remover.version)  # removes only the binding it observed
    assert _final_names(fs, cap) == {"new"}


def test_mergeable_flag_off_means_strict(fs):
    cap = fs.create_file(_pack_table({}))  # NOT merge-typed
    first = fs.create_version(cap)
    second = fs.create_version(cap)
    _bind(fs, first, "alpha", cap)
    _bind(fs, second, "beta", cap)
    fs.commit(first.version)
    with pytest.raises(CommitConflict):
        fs.commit(second.version)


def test_merge_policy_none_restores_seed_behaviour(fs):
    fs.merge_policy = None
    cap = fs.create_file(_pack_table({}), mergeable=True)
    first = fs.create_version(cap)
    second = fs.create_version(cap)
    _bind(fs, first, "alpha", cap)
    _bind(fs, second, "beta", cap)
    fs.commit(first.version)
    with pytest.raises(CommitConflict):
        fs.commit(second.version)
    assert fs.metrics.semantic_merges == 0


def test_three_deep_version_chain_catches_up(fs):
    """The last committer serialises through three already-committed
    predecessors, merging round by round."""
    cap = fs.create_file(_pack_table({}), mergeable=True)
    handles = [fs.create_version(cap) for _ in range(4)]
    for i, handle in enumerate(handles):
        _bind(fs, handle, f"writer-{i}", cap)
    for handle in handles:
        fs.commit(handle.version)
    assert _final_names(fs, cap) == {f"writer-{i}" for i in range(4)}
    # 1 + 2 + 3 pairwise merges across the three catch-up commits.
    assert fs.metrics.semantic_merges == 6


def test_group_commit_chain_merges(cluster):
    """``commit_group`` settles overlapping updates through
    ``serialise_through``; merged members come back "committed-merged"."""
    client = FileClient(
        cluster.network, "grouper", cluster.service_port, use_cache=False
    )
    cap = client.create_file(_pack_table({}), mergeable=True)
    client.prefer_server = client.ping()
    updates = []
    for i in range(4):
        update = client.begin(cap)
        table = _unpack_table(update.read(ROOT))
        table[f"member-{i}"] = cap
        update.write(ROOT, _pack_table(table))
        updates.append(update)
    outcomes = client.commit_group(updates)
    assert all(v.startswith("committed") for v in outcomes.values()), outcomes
    assert "committed-merged" in outcomes.values()
    assert set(_unpack_table(client.read(cap))) == {
        f"member-{i}" for i in range(4)
    }


# ---------------------------------------------------------------------------
# durable media and the wire
# ---------------------------------------------------------------------------


def test_merge_typed_pages_survive_restart(tmp_path):
    """The mergeable bit rides the page header onto the file-backed disk:
    after the deployment is torn down and rebuilt over the same block
    files — the SIGKILL-and-restart path — an amnesiac server salvaging
    the registry from the blocks alone still merges."""
    data_dir = str(tmp_path / "blocks")
    before = build_cluster(servers=1, seed=51, data_dir=data_dir)
    fs = before.fs()
    cap = fs.create_file(_pack_table({}), mergeable=True)
    first = fs.create_version(cap)
    second = fs.create_version(cap)
    _bind(fs, first, "pre-crash-a", cap)
    _bind(fs, second, "pre-crash-b", cap)
    fs.commit(first.version)
    fs.commit(second.version)
    fs.store.flush()
    before.close()

    # A fresh process over the same directory: new network, new registry,
    # new secrets; only the disk images survive.
    after = build_cluster(servers=1, seed=52, data_dir=data_dir)
    reborn = FileService(
        "reborn",
        after.network,
        FileRegistry(),
        CapabilityIssuer(after.service_port),
        after.block_port,
        account=1,
    )
    report = salvage(reborn)
    entries = {obj: reborn.registry.file(obj) for obj in report.files}
    merge_typed = [e for e in entries.values() if e.mergeable]
    assert len(merge_typed) == 1
    recovered_cap = report.files[merge_typed[0].obj]
    assert _final_names(reborn, recovered_cap) == {"pre-crash-a", "pre-crash-b"}
    first = reborn.create_version(recovered_cap)
    second = reborn.create_version(recovered_cap)
    _bind(reborn, first, "post-crash-a", recovered_cap)
    _bind(reborn, second, "post-crash-b", recovered_cap)
    reborn.commit(first.version)
    reborn.commit(second.version)
    assert _final_names(reborn, recovered_cap) == {
        "pre-crash-a", "pre-crash-b", "post-crash-a", "post-crash-b",
    }
    assert reborn.metrics.semantic_merges == 1


def test_merge_parity_over_tcp():
    from repro.net.cluster import build_tcp_cluster

    cluster = build_tcp_cluster(servers=1, seed=53)
    try:
        client = cluster.client("tcp-merger", use_cache=False)
        cap = client.create_file(_pack_table({}), mergeable=True)
        first = client.begin(cap)
        second = client.begin(cap)
        for update, name in ((first, "sock-a"), (second, "sock-b")):
            table = _unpack_table(update.read(ROOT))
            table[name] = cap
            update.write(ROOT, _pack_table(table))
        first.commit()
        second.commit()
        assert set(_unpack_table(client.read(cap))) == {"sock-a", "sock-b"}
    finally:
        cluster.stop()


# ---------------------------------------------------------------------------
# the redo loop's starvation bound (apps/volume.py)
# ---------------------------------------------------------------------------


def _starving_volume(fs, attempts: int):
    volume = Volume(fs)
    volume.max_update_attempts = attempts
    delays: list[float] = []
    volume._sleep = delays.append
    _volume_cap, root_dir = volume.create()
    return volume, root_dir, delays


def test_update_starved_after_bounded_attempts(fs):
    fs.merge_policy = None  # force every race to a genuine conflict
    volume, root_dir, delays = _starving_volume(fs, attempts=3)
    beaten = 0

    def mutate(table):
        # A competitor commits between our read and our commit, every time.
        nonlocal beaten
        handle = fs.create_version(root_dir)
        rival = _unpack_table(fs.read_page(handle.version, ROOT))
        rival[f"rival-{beaten}"] = root_dir
        fs.write_page(handle.version, ROOT, _pack_table(rival))
        fs.commit(handle.version)
        beaten += 1
        table["loser"] = root_dir

    with pytest.raises(UpdateStarved) as excinfo:
        volume._update_table(root_dir, mutate)
    exc = excinfo.value
    assert exc.attempts == 3
    assert isinstance(exc, CommitConflict)  # redo loops need no new except arm
    assert isinstance(exc.__cause__, CommitConflict)  # the losing beat
    # One jittered, capped, exponential backoff between attempts — none
    # after the last.
    assert len(delays) == 2
    assert all(0 < d <= volume.backoff_cap * 1.5 for d in delays)
    assert "loser" not in volume.list(root_dir)


def test_merges_absorb_the_same_race_without_retrying(fs):
    """With the merge layer on (the default), the identical rival commits
    are reconciled on the first attempt: no sleeps, no retries."""
    volume, root_dir, delays = _starving_volume(fs, attempts=3)

    def mutate(table):
        handle = fs.create_version(root_dir)
        rival = _unpack_table(fs.read_page(handle.version, ROOT))
        rival["rival"] = root_dir
        fs.write_page(handle.version, ROOT, _pack_table(rival))
        fs.commit(handle.version)
        table["winner"] = root_dir

    volume._update_table(root_dir, mutate)
    assert delays == []
    assert set(volume.list(root_dir)) >= {"rival", "winner"}


# ---------------------------------------------------------------------------
# the merge-aware history checker
# ---------------------------------------------------------------------------

_T1, _T2 = b"\x01" * 22, b"\x02" * 22


def _merged_history(second_write: bytes) -> HistoryRecorder:
    """Two concurrent rewrites of a merge-typed root table, both of which
    the service committed; the checker must re-derive the second commit
    through the or-set fold."""
    h = HistoryRecorder()
    h.record("merge_typed", actor="fs0", file=1)
    h.record("create", actor="fs0", file=1, version=10, path="", value=encode_entries({}))
    h.record("begin", actor="c1", file=1, version=11, base=10)
    h.record("read", actor="c1", file=1, version=11, path="", value=encode_entries({}))
    h.record("write", actor="c1", file=1, version=11, path="",
             value=encode_entries({"left": _T1}))
    h.record("begin", actor="c2", file=1, version=12, base=10)
    h.record("read", actor="c2", file=1, version=12, path="", value=encode_entries({}))
    h.record("write", actor="c2", file=1, version=12, path="", value=second_write)
    h.record("commit", actor="fs0", file=1, version=11)
    h.record("commit", actor="fs0", file=1, version=12)
    return h


def test_checker_replays_distinct_entry_merge():
    result = check_history(_merged_history(encode_entries({"right": _T2})))
    assert result.ok, result.violations
    assert result.merge_folds == 1
    assert result.merge_files_checked == 1


def test_checker_flags_merge_divergence():
    """If the service publishes a commit the or-set semantics reject —
    both sides bound the same entry to different targets — the replay
    must call it out."""
    result = check_history(_merged_history(encode_entries({"left": _T2})))
    assert not result.ok
    assert any(v.kind == "merge-divergence" for v in result.violations)


def test_checker_still_strict_for_untyped_files():
    """Without the merge_typed event the identical log is a lost update."""
    h = _merged_history(encode_entries({"right": _T2}))
    h.events = [e for e in h.events if e.kind != "merge_typed"]
    result = check_history(h)
    assert any(v.kind == "non-serializable-read" for v in result.violations)


def test_merge_conflict_is_a_commit_conflict():
    assert issubclass(MergeConflict, CommitConflict)
    assert issubclass(UpdateStarved, CommitConflict)
