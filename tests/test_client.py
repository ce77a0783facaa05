"""The client library: redo loop, failover, cache, lock waits."""

import pytest

from repro.errors import (
    BadPathName,
    CommitConflict,
    FileLocked,
    PageTooLarge,
    ReproError,
)
from repro.core.page import PAGE_BODY_SIZE
from repro.core.pathname import PagePath
from repro.core.system_tree import SystemTree
from repro.client.api import FileClient
from repro.net import build_tcp_cluster
from repro.testbed import build_cluster, build_hybrid_cluster

ROOT = PagePath.ROOT


@pytest.fixture
def net_client(cluster2):
    return FileClient(cluster2.network, "host", cluster2.service_port)


@pytest.fixture(params=["sim", "tcp"])
def wire_cluster(request):
    """A two-server deployment on the simulator or over localhost TCP."""
    if request.param == "sim":
        yield build_cluster(servers=2, seed=7)
        return
    cluster = build_tcp_cluster(servers=2, seed=7)
    yield cluster
    cluster.stop()


def _logging_calls(client: FileClient) -> list[str]:
    """The commands ``client`` sends to the file service, in order."""
    calls: list[str] = []
    send = client._call

    def logged(command, **params):
        calls.append(command)
        return send(command, **params)

    client._call = logged
    return calls


def _open_versions(cluster) -> list:
    return [v for v in cluster.registry.versions.values() if v.status == "uncommitted"]


def test_create_and_transact(net_client):
    cap = net_client.create_file(b"v1")
    net_client.transact(cap, lambda u: u.write(ROOT, b"v2"))
    assert net_client.read(cap) == b"v2"
    assert net_client.stats.commits == 1


def test_transact_returns_fn_result(net_client):
    cap = net_client.create_file(b"v1")

    def update(u):
        u.write(ROOT, b"v2")
        return "done"

    assert net_client.transact(cap, update) == "done"


def test_transact_redoes_on_conflict(cluster2):
    """Two clients race on the same page: one redoes and both changes
    (the survivor's final one) land."""
    net = cluster2.network
    alice = FileClient(net, "alice", cluster2.service_port)
    bob = FileClient(net, "bob", cluster2.service_port)
    cap = alice.create_file(b"0")

    # Interleave manually: both read, both try to increment.
    ua = alice.begin(cap)
    ub = bob.begin(cap)
    a_val = int(ua.read(ROOT))
    b_val = int(ub.read(ROOT))
    ua.write(ROOT, b"%d" % (a_val + 1))
    ub.write(ROOT, b"%d" % (b_val + 1))
    ua.commit()
    with pytest.raises(CommitConflict):
        ub.commit()

    # With the transact loop, the same race resolves automatically.
    def increment(u):
        value = int(u.read(ROOT))
        u.write(ROOT, b"%d" % (value + 1))

    bob.transact(cap, increment)
    assert alice.read(cap) == b"2"


def test_transact_gives_up_eventually(cluster2, monkeypatch):
    client = FileClient(cluster2.network, "host", cluster2.service_port)
    cap = client.create_file(b"x")

    def always_conflicting(u):
        # Another update sneaks in behind our back every time.
        u.read(ROOT)
        saboteur = FileClient(cluster2.network, "saboteur", cluster2.service_port)
        saboteur.transact(cap, lambda s: s.write(ROOT, b"sabotage"))
        u.write(ROOT, b"mine")

    with pytest.raises(CommitConflict):
        client.transact(cap, always_conflicting, max_redos=3)


def test_application_errors_abort_and_propagate(net_client, cluster2):
    cap = net_client.create_file(b"x")

    class AppError(ReproError):
        pass

    def bad(update):
        update.write(ROOT, b"partial")
        raise AppError("application failed")

    with pytest.raises(AppError):
        net_client.transact(cap, bad)
    # The partial write was aborted.
    assert net_client.read(cap) == b"x"
    # No uncommitted versions left behind.
    live = [
        v
        for v in cluster2.registry.versions.values()
        if v.status == "uncommitted"
    ]
    assert live == []


def test_any_exception_from_the_update_aborts_its_version(net_client, cluster2):
    """A plain bug in ``update_fn`` must not leak a live version: its top
    lock would turn every cautious ``begin`` into a wait on a holder that
    looks alive forever."""
    cap = net_client.create_file(b"x")
    began = []

    def buggy(update):
        began.append(update.version)
        update.write(ROOT, b"partial")
        raise ValueError("not a ReproError")

    with pytest.raises(ValueError):
        net_client.transact(cap, buggy)
    assert cluster2.registry.version(began[0].obj).status == "aborted"
    careful = net_client.begin(cap, respect_soft_lock=True)
    assert net_client.stats.lock_waits == 0
    careful.abort()
    assert net_client.read(cap) == b"x"


def test_failover_between_servers(cluster2):
    client = FileClient(cluster2.network, "host", cluster2.service_port)
    cap = client.create_file(b"v1")
    cluster2.fs(0).crash()
    assert client.read(cap) == b"v1"
    client.transact(cap, lambda u: u.write(ROOT, b"v2"))
    assert client.read(cap) == b"v2"


def test_update_handle_operations(net_client):
    cap = net_client.create_file(b"root")
    update = net_client.begin(cap)
    child = update.append_page(ROOT, b"c0")
    update.insert_page(ROOT, 0, b"first")
    # Path names are positional: after the insert at 0, `child` (path "0")
    # now names the inserted page, and the appended page moved to "1".
    update.write(child, b"c0+")
    update.commit()
    assert net_client.read(cap, PagePath.of(0)) == b"c0+"
    assert net_client.read(cap, PagePath.of(1)) == b"c0"


def test_structure_and_holes_via_client(net_client):
    cap = net_client.create_file(b"root")
    update = net_client.begin(cap)
    a = update.append_page(ROOT, b"a")
    update.append_page(ROOT, b"b")
    update.make_hole(a)
    assert update.structure(ROOT) == [0, 1]
    update.fill_hole(a, b"a2")
    assert update.structure(ROOT) == [1, 1]
    update.append_page(ROOT, b"c")
    update.make_hole(PagePath.of(1))
    update.remove_hole(PagePath.of(1))  # "c" shifts left into the slot
    assert update.structure(ROOT) == [1, 1]
    update.commit()
    assert net_client.read(cap, a) == b"a2"
    assert net_client.read(cap, PagePath.of(1)) == b"c"


def test_split_and_move_via_client(net_client):
    cap = net_client.create_file(b"root")
    update = net_client.begin(cap)
    page = update.append_page(ROOT, b"HELLOworld")
    sibling = update.split_page(page, 5)
    moved = update.move_subtree(sibling, page, 0)
    assert moved == PagePath.of(0, 0)
    update.commit()
    assert net_client.read(cap, page) == b"HELLO"
    assert net_client.read(cap, moved) == b"world"


def test_history_and_read_version(net_client):
    cap = net_client.create_file(b"r0")
    for n in range(1, 4):
        net_client.transact(cap, lambda u, n=n: u.write(ROOT, b"r%d" % n))
    history = net_client.history(cap)
    assert [net_client.read_version(v) for v in history] == [
        b"r0", b"r1", b"r2", b"r3",
    ]


def test_client_waits_out_super_lock_of_dead_holder(cluster2):
    """A client blocked by a dead super-update's inner lock recovers it
    through the service and proceeds."""
    fs0 = cluster2.fs(0)
    tree = SystemTree(fs0)
    client = FileClient(
        cluster2.network, "host", cluster2.service_port, prefer_server="fs1"
    )
    calls = _logging_calls(client)
    cap_parent = fs0.create_file(b"P")
    handle = fs0.create_version(cap_parent)
    cap_sub = tree.create_subfile(handle.version, ROOT, initial_data=b"S v1")
    fs0.commit(handle.version)

    update = tree.begin_super_update(cap_parent)
    tree.open_subfile(update, cap_sub)
    fs0.store.flush()
    fs0.crash()  # dies holding the inner lock on the sub-file

    client.transact(cap_sub, lambda u: u.write(ROOT, b"S v2"))
    assert client.read(cap_sub) == b"S v2"
    assert client.stats.lock_waits >= 1
    # The blind update itself waited: refused, recovered, then sent again.
    assert calls[:3] == ["update", "recover_lock", "update"]
    assert "create_version" not in calls


# -- the blind update: a write-only transact is one ``update`` request -------


def test_blind_transact_is_one_update_request(wire_cluster):
    client = wire_cluster.client("host")
    cap = client.create_file(b"v1")
    calls = _logging_calls(client)
    client.transact(cap, lambda u: u.write(ROOT, b"v2"))
    assert calls == ["update"]
    assert client.read(cap) == b"v2"
    assert calls == ["update", "read_current"]
    assert client.stats.commits == 1


def test_read_modify_write_keeps_the_begun_update(wire_cluster):
    """A callback that reads begins the update as ``begin`` does, and its
    earlier writes ship first."""
    client = wire_cluster.client("host")
    cap = client.create_file(b"root")
    setup = client.begin(cap)
    child = setup.append_page(ROOT, b"0")
    setup.commit()
    calls = _logging_calls(client)

    def update(u):
        u.write(ROOT, b"root 2")
        u.write(child, b"%d" % (int(u.read(child)) + 1))

    client.transact(cap, update)
    assert calls == ["create_version", "write_page", "read_page", "write_page", "commit"]
    assert client.read(cap, child) == b"1" and client.read(cap) == b"root 2"


def test_abort_of_an_update_never_begun_sends_nothing(wire_cluster):
    client = wire_cluster.client("host")
    cap = client.create_file(b"keep")
    calls = _logging_calls(client)

    def fails(u):
        u.write(ROOT, b"junk")
        raise ValueError("application failed")

    with pytest.raises(ValueError):
        client.transact(cap, fails)
    assert calls == []
    assert client.read(cap) == b"keep"


def test_a_conflicting_blind_update_redoes_as_a_fresh_blind_update(wire_cluster):
    """A rival commit that restructures the root while the ``update``
    request is in flight conflicts with its search of the root; the redo
    is again one ``update`` request."""
    client = wire_cluster.client("host")
    rival = wire_cluster.fs(1)
    cap = client.create_file(b"root")
    setup = client.begin(cap)
    child = setup.append_page(ROOT, b"c0")
    setup.commit()
    for server in wire_cluster.servers:
        write_page = server.write_page

        def racing(version_cap, path, data, write_page=write_page):
            write_page(version_cap, path, data)
            if not getattr(rival, "raced", False):
                rival.raced = True
                handle = rival.create_version(cap)
                rival.append_page(handle.version, ROOT, b"rival")
                rival.commit(handle.version)

        server.write_page = racing
    calls = _logging_calls(client)
    client.transact(cap, lambda u: u.write(child, b"mine"))
    assert calls == ["update", "update"]
    assert client.stats.conflicts == 1 and client.stats.redos == 1
    assert client.read(cap, child) == b"mine"
    assert client.read(cap, PagePath.of(1)) == b"rival"
    assert _open_versions(wire_cluster) == []


def test_blind_update_honours_the_soft_lock_only_when_asked(wire_cluster):
    holder = wire_cluster.client("holder")
    client = wire_cluster.client("host")
    cap = client.create_file(b"v1")
    held = holder.begin(cap)  # its open version is the soft top lock
    with pytest.raises(FileLocked):
        client.transact(cap, lambda u: u.write(ROOT, b"careful"), respect_soft_lock=True)
    assert client.stats.lock_waits == 64
    client.transact(cap, lambda u: u.write(ROOT, b"bold"))
    held.abort()
    calls = _logging_calls(client)
    client.transact(cap, lambda u: u.write(ROOT, b"careful"), respect_soft_lock=True)
    assert calls == ["update"]
    assert client.read(cap) == b"careful"


@pytest.mark.parametrize(
    "path, data, error",
    [
        (PagePath.of(3), b"x", BadPathName),
        (ROOT, b"x" * (PAGE_BODY_SIZE + 1), PageTooLarge),
    ],
    ids=["bad path", "oversize page"],
)
def test_a_failed_blind_update_leaves_no_open_version(wire_cluster, path, data, error):
    client = wire_cluster.client("host")
    cap = client.create_file(b"v1")
    with pytest.raises(error):
        client.transact(cap, lambda u: u.write(path, data))
    assert _open_versions(wire_cluster) == []
    assert all(not entry.open for entry in wire_cluster.registry.files.values())
    client.transact(cap, lambda u: u.write(ROOT, b"v2"), respect_soft_lock=True)
    assert client.read(cap) == b"v2"


def test_hybrid_media_commits_a_blind_update():
    cluster = build_hybrid_cluster(seed=5)
    client = cluster.client("host")
    cap = client.create_file(b"root")
    setup = client.begin(cap)
    child = setup.append_page(ROOT, b"c0")
    setup.commit()
    calls = _logging_calls(client)
    client.transact(cap, lambda u: u.write(child, b"c1"))
    assert calls == ["update"]
    assert client.read(cap, child) == b"c1"
