"""The group-commit pipeline: one critical section, one batched flush.

These tests drive ``FileService.commit_group`` both directly and through
the client API, and pin down the contract the benchmarks rely on: a batch
of N non-conflicting ready updates settles with one test-and-set per
file and one flush for the whole group, conflicting members are removed
exactly as the sequential path would remove them, and the published
commit-reference chain is indistinguishable from N sequential commits.
"""

import pytest

from repro.client.api import FileClient
from repro.core.pathname import PagePath
from repro.errors import NotManagingServer, VersionCommitted
from repro.obs import Recorder
from repro.testbed import build_cluster
from repro.verify.history import HistoryRecorder, check_history

ROOT = PagePath.ROOT


def _file_with_pages(fs, n_pages, payload=b"init"):
    cap = fs.create_file(b"base")
    handle = fs.create_version(cap)
    paths = [fs.append_page(handle.version, ROOT, payload) for _ in range(n_pages)]
    fs.commit(handle.version)
    return cap, paths


def _ready_updates(fs, cap, paths, tag=b"new"):
    """One ready-to-commit update per path, each writing only its page."""
    handles = []
    for i, path in enumerate(paths):
        handle = fs.create_version(cap)
        fs.write_page(handle.version, path, tag + b"%d" % i)
        handles.append(handle)
    return handles


def test_group_commit_batches_non_conflicting_updates():
    cluster = build_cluster(seed=11)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 8)
    handles = _ready_updates(fs, cap, paths)
    outcomes = fs.commit_group([h.version for h in handles])
    assert all(v == "committed" for v in outcomes.values())
    assert len(outcomes) == 8
    current = fs.current_version(cap)
    for i, path in enumerate(paths):
        assert fs.read_page(current, path) == b"new%d" % i
    assert fs.metrics.group_commits == 1
    assert fs.metrics.group_committed == 8
    assert fs.metrics.commits == 9  # setup commit + 8 members


def test_group_commit_publishes_the_chain_in_member_order():
    cluster = build_cluster(seed=12)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 3)
    handles = _ready_updates(fs, cap, paths)
    fs.commit_group([h.version for h in handles])
    # committed_versions walks the commit-reference chain oldest → current:
    # the group's members must appear in exactly the order they were given.
    chain = [v.obj for v in fs.committed_versions(cap)]
    member_objs = [h.version.obj for h in handles]
    assert chain[-3:] == member_objs
    assert chain[-1] == fs.current_version(cap).obj


def test_group_commit_conflicting_member_is_removed():
    cluster = build_cluster(seed=13)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 2)
    winner = fs.create_version(cap)
    fs.write_page(winner.version, paths[0], b"winner")
    loser = fs.create_version(cap)
    fs.read_page(loser.version, paths[0])  # reads what winner overwrites
    fs.write_page(loser.version, paths[1], b"loser")
    outcomes = fs.commit_group([winner.version, loser.version])
    assert outcomes[winner.version.obj] == "committed"
    assert outcomes[loser.version.obj].startswith("conflict:")
    assert fs.registry.version(loser.version.obj).status == "aborted"
    current = fs.current_version(cap)
    assert fs.read_page(current, paths[0]) == b"winner"
    assert fs.read_page(current, paths[1]) == b"init"
    assert fs.metrics.conflicts == 1


def test_group_commit_catches_up_with_external_commits():
    """Members whose base went stale serialise through the externally
    committed chain first, then re-graft their own writes."""
    cluster = build_cluster(seed=14)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 4)
    handles = _ready_updates(fs, cap, paths[:3])
    # An outside update commits after the group members were created.
    external = fs.create_version(cap)
    fs.write_page(external.version, paths[3], b"external")
    fs.commit(external.version)
    outcomes = fs.commit_group([h.version for h in handles])
    assert all(v == "committed" for v in outcomes.values())
    current = fs.current_version(cap)
    for i in range(3):
        assert fs.read_page(current, paths[i]) == b"new%d" % i
    assert fs.read_page(current, paths[3]) == b"external"


def test_group_commit_spans_multiple_files():
    cluster = build_cluster(seed=15)
    fs = cluster.fs()
    cap_a, paths_a = _file_with_pages(fs, 2)
    cap_b, paths_b = _file_with_pages(fs, 2)
    handles = _ready_updates(fs, cap_a, paths_a) + _ready_updates(
        fs, cap_b, paths_b
    )
    outcomes = fs.commit_group([h.version for h in handles])
    assert all(v == "committed" for v in outcomes.values())
    for cap, paths in ((cap_a, paths_a), (cap_b, paths_b)):
        current = fs.current_version(cap)
        for i, path in enumerate(paths):
            assert fs.read_page(current, path) == b"new%d" % i
    assert fs.metrics.group_committed == 4


def _block_requests(cluster, sender="fs0"):
    """Record the requests one file server sends from now on."""
    from repro.sim.rpc import Request

    sent = []

    def tracer(source, dest, payload):
        if isinstance(payload, Request) and source == sender:
            sent.append(payload.command)

    cluster.network.tracer = tracer
    return sent


def test_group_of_n_files_publishes_in_one_stable_request():
    """The flush of the whole group and the test-and-set of every file's
    base are ONE request to the pair — not a flush and then a round trip
    per file."""
    cluster = build_cluster(seed=15)
    fs = cluster.fs()
    files = [_file_with_pages(fs, 1) for _ in range(5)]
    handles = [h for cap, paths in files for h in _ready_updates(fs, cap, paths)]
    sent = _block_requests(cluster)
    outcomes = fs.commit_group([h.version for h in handles])
    assert list(outcomes.values()) == ["committed"] * 5
    assert sent.count("write_many") == 1
    assert set(sent) <= {"write_many", "read"}
    for cap, paths in files:
        assert fs.read_page(fs.current_version(cap), paths[0]) == b"new0"


def test_group_commit_round_lost_on_one_file_retries_only_that_file():
    """A lost test-and-set stops neither the pages nor the other files'
    swaps riding the same request."""
    cluster = build_cluster(servers=2, seed=21)
    fs, other = cluster.fs(0), cluster.fs(1)
    cap_a, paths_a = _file_with_pages(fs, 2)
    cap_b, paths_b = _file_with_pages(fs, 2)
    handles = _ready_updates(fs, cap_a, paths_a[:1]) + _ready_updates(
        fs, cap_b, paths_b[:1]
    )
    publish, rounds = fs.store.tas_commit_refs, []

    def raced(refs, reason):
        if not rounds:
            # Another server slips a commit into file B just before this
            # server's request reaches the disks.
            rival = other.create_version(cap_b)
            other.write_page(rival.version, paths_b[1], b"rival")
            other.commit(rival.version)
        results = publish(refs, reason)
        rounds.append([r.success for r in results])
        return results

    fs.store.tas_commit_refs = raced
    sent = _block_requests(cluster)
    outcomes = fs.commit_group([h.version for h in handles])
    assert list(outcomes.values()) == ["committed"] * 2
    assert rounds == [[True, False], [True]]
    assert sent.count("write_many") == 2
    current = fs.current_version(cap_b)
    assert fs.read_page(current, paths_b[0]) == b"new0"
    assert fs.read_page(current, paths_b[1]) == b"rival"


def test_group_commit_request_failing_between_shards_keeps_what_it_published():
    """Bases on two shards: the pages go out first, then one swap request
    per shard.  If the second shard cannot be reached, the first file IS
    committed on disk — the server must say so, not withdraw its links."""
    from repro.errors import ServerUnreachable
    from repro.testbed import build_cluster

    history = HistoryRecorder()
    cluster = build_cluster(shards=2, seed=23, history=history)
    fs = cluster.fs()
    files = [_file_with_pages(fs, 1) for _ in range(2)]
    handles = [h for cap, paths in files for h in _ready_updates(fs, cap, paths)]
    blocks = fs.store.blocks
    shard_of = blocks.placement.index_of
    bases = [fs._resolve_current(fs.registry.file(cap.obj))[0] for cap, _ in files]
    assert shard_of(bases[0]) != shard_of(bases[1])
    call, swap_requests = blocks.txn.call, []

    def flaky(port, command, **params):
        if command == "write_many" and params["swaps"] and not params["writes"]:
            if port not in swap_requests:
                swap_requests.append(port)
            if port == swap_requests[-1] and len(swap_requests) == 2:
                raise ServerUnreachable("the second swap shard went away")
        return call(port, command, **params)

    blocks.txn.call = flaky
    with pytest.raises(ServerUnreachable):
        fs.commit_group([h.version for h in handles])
    del blocks.txn.call
    assert len(swap_requests) == 2
    first = 0 if shard_of(bases[0]) < shard_of(bases[1]) else 1
    (cap_won, paths_won), (cap_lost, paths_lost) = files[first], files[1 - first]
    assert fs.read_page(fs.current_version(cap_won), paths_won[0]) == b"new0"
    assert fs.read_page(fs.current_version(cap_lost), paths_lost[0]) == b"init"
    # The stranded member is still a live update: its retry goes through.
    assert fs.commit_group([handles[1 - first].version]) == {
        handles[1 - first].version.obj: "committed"
    }
    assert fs.read_page(fs.current_version(cap_lost), paths_lost[0]) == b"new0"
    result = check_history(history)
    assert result.ok, "\n".join(str(v) for v in result.violations)


def test_commit_whose_reply_is_lost_is_still_committed():
    """The single commit is a group of one and inherits the same
    handling: a request that was applied before it failed HAS committed
    the version — the registry must say so, a retry must be told so, and
    the next update must find a clean base."""
    from repro.errors import ServerUnreachable

    history = HistoryRecorder()
    cluster = build_cluster(seed=24, history=history)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 1)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, paths[0], b"landed")
    blocks = fs.store.blocks
    write_many = blocks.write_many

    def reply_lost(writes, swaps=()):
        blocks.write_many = write_many
        write_many(writes, swaps)
        raise ServerUnreachable("the reply went missing")

    blocks.write_many = reply_lost
    with pytest.raises(ServerUnreachable):
        fs.commit(handle.version)
    assert fs.registry.version(handle.version.obj).status == "committed"
    assert fs.current_version(cap).obj == handle.version.obj
    with pytest.raises(VersionCommitted):
        fs.commit(handle.version)
    follow_up = fs.create_version(cap)
    assert fs.read_page(follow_up.version, paths[0]) == b"landed"
    fs.write_page(follow_up.version, paths[0], b"next")
    fs.commit(follow_up.version)
    assert fs.read_page(fs.current_version(cap), paths[0]) == b"next"
    result = check_history(history)
    assert result.ok, "\n".join(str(v) for v in result.violations)


def test_commit_that_does_not_settle_removes_the_version():
    from repro.errors import CommitConflict

    cluster = build_cluster(seed=25)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 1)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, paths[0], b"never")
    entry = fs.registry.version(handle.version.obj)
    file_entry = fs.registry.file(cap.obj)
    assert file_entry.open == {entry.obj: entry.update_port}
    assert entry.update_port != 0
    with pytest.raises(CommitConflict, match="did not settle in 0 rounds"):
        fs.commit(handle.version, max_rounds=0)
    assert entry.status == "aborted"
    assert entry.update_port not in fs._live_updates
    assert file_entry.open == {}
    assert fs.read_page(fs.current_version(cap), paths[0]) == b"init"


def test_commit_survives_an_entry_block_behind_its_base():
    """The optimistic base is the file table's entry block.  One that
    lags the member's own (still current) base just loses test-and-sets
    until it has caught up — the update is never serialised against its
    own ancestors."""
    cluster = build_cluster(seed=26)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 1)
    file_entry = fs.registry.file(cap.obj)
    older = file_entry.entry_block
    first = fs.create_version(cap)
    fs.write_page(first.version, paths[0], b"first")
    fs.commit(first.version)
    handle = fs.create_version(cap)
    # Reads what its own base wrote: a false conflict if that base were
    # ever mistaken for a concurrent committed update.
    assert fs.read_page(handle.version, paths[0]) == b"first"
    fs.write_page(handle.version, paths[0], b"second")
    file_entry.entry_block = older
    assert fs.commit(handle.version) == []
    assert fs.metrics.serialise_runs == 0
    assert file_entry.entry_block == fs.registry.version(handle.version.obj).root_block
    assert fs.read_page(fs.current_version(cap), paths[0]) == b"second"


@pytest.mark.parametrize("verb", ["commit", "commit_group"])
def test_a_file_deleted_behind_the_test_and_set_still_commits(verb):
    """A delete can land between the commit's test-and-set and the
    publication that follows it.  Every member still commits; only the
    file table's bookkeeping goes with the file."""
    cluster = build_cluster(seed=27)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 2)
    base = fs.registry.file(cap.obj).entry_block
    handles = _ready_updates(fs, cap, paths if verb == "commit_group" else paths[:1])
    tas_commit_refs = fs.store.tas_commit_refs

    def tas_then_delete(refs, reason="commit"):
        results = tas_commit_refs(refs, reason)
        fs.delete_file(cap)
        return results

    fs.store.tas_commit_refs = tas_then_delete
    if verb == "commit":
        assert fs.commit(handles[0].version) == []
    else:
        outcomes = fs.commit_group([handle.version for handle in handles])
        assert list(outcomes.values()) == ["committed", "committed"]
    *_, (tip, _) = fs.store.commits_from(base)
    for i in range(len(handles)):
        assert fs._walk_readonly(tip, paths[i]).data == b"new%d" % i


def test_group_commit_deduplicates_and_validates_members():
    cluster = build_cluster(seed=16)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 1)
    assert fs.commit_group([]) == {}
    handle = fs.create_version(cap)
    fs.write_page(handle.version, paths[0], b"once")
    outcomes = fs.commit_group([handle.version, handle.version])
    assert outcomes == {handle.version.obj: "committed"}
    with pytest.raises(VersionCommitted):
        fs.commit_group([handle.version])


def test_group_commit_refuses_other_servers_updates():
    """The NotManagingServer gate covers the grouped path too: a replica
    must not publish versions whose pages sit in another live server's
    write buffer."""
    cluster = build_cluster(servers=2, seed=17)
    fs0, fs1 = cluster.servers
    cap, paths = _file_with_pages(fs0, 1)
    handle = fs0.create_version(cap)
    fs0.write_page(handle.version, paths[0], b"mine")
    with pytest.raises(NotManagingServer):
        fs1.commit_group([handle.version])
    # No harm done: the managing server still settles it.
    assert fs0.commit_group([handle.version]) == {
        handle.version.obj: "committed"
    }


def test_group_commit_history_is_serializable():
    history = HistoryRecorder()
    cluster = build_cluster(seed=18, history=history)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 4)
    handles = _ready_updates(fs, cap, paths)
    fs.commit_group([h.version for h in handles])
    result = check_history(history)
    assert result.ok, "\n".join(str(v) for v in result.violations)


def test_group_commit_emits_counters_and_spans():
    recorder = Recorder()
    cluster = build_cluster(seed=19, recorder=recorder)
    fs = cluster.fs()
    cap, paths = _file_with_pages(fs, 4)
    handles = _ready_updates(fs, cap, paths)
    fs.commit_group([h.version for h in handles])
    counters = recorder.metrics.counters
    assert counters["commit.group.batches"].value == 1
    assert counters["commit.group.members"].value == 4
    assert counters["commit.group.committed"].value == 4
    assert recorder.tracer.spans_named("commit.group")


def test_client_commit_group_pins_one_server():
    cluster = build_cluster(servers=2, seed=20)
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"base")
    setup = client.begin(cap)
    paths = [setup.append_page(ROOT, b"init") for _ in range(4)]
    setup.commit()
    client.prefer_server = client.ping()
    updates = []
    for i, path in enumerate(paths):
        update = client.begin(cap)
        update.write(path, b"grp%d" % i)
        updates.append(update)
    outcomes = client.commit_group(updates)
    assert all(v == "committed" for v in outcomes.values())
    assert all(update.done for update in updates)
    for i, path in enumerate(paths):
        assert client.read(cap, path) == b"grp%d" % i

