"""The client library: redo loop, failover, cache, lock waits."""

import pytest

from repro.errors import CommitConflict, ReproError
from repro.core.pathname import PagePath
from repro.core.system_tree import SystemTree
from repro.client.api import FileClient

ROOT = PagePath.ROOT


@pytest.fixture
def net_client(cluster2):
    return FileClient(cluster2.network, "host", cluster2.service_port)


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
