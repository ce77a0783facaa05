"""The wire contract, pinned in one place: every command each server
answers, the parameters it accepts over the wire and whether it runs
without the TCP daemon's dispatch lock — and, over real sockets, that
the lock-free commands really are answered while the lock is held."""

from __future__ import annotations

import inspect

import pytest

from repro.block.stable import StableServer
from repro.core.pathname import PagePath
from repro.core.service import FileService
from repro.errors import MessageDropped, ServerUnreachable
from repro.net import build_tcp_cluster
from repro.net.discovery import DiscoveryServer
from repro.sim.rpc import Request, _registry, failover_order
from repro.testbed import build_cluster

# name: (accepted parameters, read-only)
CONTRACT = {
    "FileService": {
        "abort": (("version_cap",), False),
        "append_page": (("version_cap", "parent_path", "data", "nref_slots"), False),
        "commit": (("version_cap",), False),
        "commit_group": (("version_caps",), False),
        "committed_versions": (("file_cap",), True),
        "create_file": (("initial_data", "mergeable"), False),
        "create_version": (("file_cap", "owner", "respect_soft_lock"), False),
        "current_version": (("file_cap",), True),
        "delete_file": (("file_cap",), False),
        "family_tree": (("file_cap",), True),
        "fill_hole": (("version_cap", "path", "data", "nref_slots"), False),
        "insert_page": (
            ("version_cap", "parent_path", "index", "data", "nref_slots"),
            False,
        ),
        "make_hole": (("version_cap", "path"), False),
        "move_subtree": (("version_cap", "src", "dst_parent", "dst_index"), False),
        "page_structure": (("version_cap", "path"), False),
        "ping": ((), True),
        "probe_update": (("update_port",), True),
        "read_current": (
            (
                "file_cap",
                "path",
                "lease_ticks",
                "cached_version_cap",
                "epoch",
                "have_page",
                "allow_delegate",
            ),
            True,
        ),
        "read_page": (("version_cap", "path"), False),
        "recover_lock": (("file_cap",), False),
        "remove_hole": (("version_cap", "path"), False),
        "remove_page": (("version_cap", "path"), False),
        "split_page": (("version_cap", "path", "at"), False),
        "update": (("file_cap", "writes", "owner", "respect_soft_lock"), False),
        "write_page": (("version_cap", "path", "data"), False),
    },
    "StableServer": {
        "ack_intentions": (("count",), False),
        "allocate": (("account", "count"), False),
        "allocate_write": (("account", "data"), False),
        "companion_free": (("account", "block_no"), False),
        "companion_pooled": ((), False),
        "companion_read": (("account", "block_no"), False),
        "companion_reserve_many": (("account", "blocks"), False),
        "companion_write_many": (("origin", "account", "writes"), False),
        "dirty_blocks": (("reset",), False),
        "export": (("account", "block_no"), False),
        "fetch_intentions": ((), False),
        "free": (("account", "block_no"), False),
        "ingest": (("account", "block_no", "data"), False),
        "manifest": ((), True),
        "read": (("account", "block_no"), False),
        "recover": (("account",), False),
        "test_and_set": (("account", "block_no", "offset", "expected", "new"), False),
        "track_dirty": (("on",), False),
        "write": (("account", "block_no", "data"), False),
        "write_many": (("account", "writes", "swaps"), False),
    },
    "DiscoveryServer": {
        "bootstrap": ((), True),
        "deregister": (("name",), False),
        "directory": ((), True),
        "heartbeat": (("name",), False),
        "placement": ((), True),
        "publish_placement": (("placement", "expect_epoch"), False),
        "register": (("name", "kind", "serves", "host", "tcp_port"), False),
    },
}


def _commands(cls) -> dict:
    """What ``cls`` declares: per ``cmd_*`` handler, its wire parameters
    (the positional-or-keyword ones; keyword-only stay in-process) and
    its read-only flag."""
    surface = {}
    for attr in dir(cls):
        if attr.startswith("cmd_"):
            handler = getattr(cls, attr)
            params = list(inspect.signature(handler).parameters.values())[1:]
            surface[attr[4:]] = (
                tuple(p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD),
                getattr(handler, "read_only", False),
            )
    return surface


@pytest.mark.parametrize(
    "cls",
    [FileService, StableServer, DiscoveryServer],
    ids=lambda cls: cls.__name__,
)
def test_declared_commands_are_the_pinned_contract(cls):
    assert _commands(cls) == CONTRACT[cls.__name__]


def test_in_process_parameters_are_refused_over_the_wire():
    """Keyword-only parameters (retry budgets) are not part of the
    protocol, though the method behind the command takes them; a retired
    parameter is refused like any unknown one."""
    client = build_cluster(servers=1, seed=3).client("c")
    cap = client.create_file(b"x")
    with pytest.raises(TypeError, match="set_soft_lock"):
        client._call("create_version", file_cap=cap, set_soft_lock=False)
    handle = client._call("create_version", file_cap=cap)
    with pytest.raises(TypeError, match="max_rounds"):
        client._call("commit", version_cap=handle.version, max_rounds=0)


def _first_file_server(cluster) -> str:
    return failover_order(_registry(cluster.network)[cluster.service_port])[0]


@pytest.fixture(scope="module")
def tcp():
    cluster = build_tcp_cluster(servers=2, seed=11, lock_timeout=0.05)
    try:
        cap = cluster.client("setup", use_cache=False).create_file(b"pinned")
        yield cluster, cap
    finally:
        cluster.stop()


ROOT_TEXT = str(PagePath.ROOT)
READ_ONLY_PARAMS = {
    "committed_versions": lambda cap: {"file_cap": cap},
    "current_version": lambda cap: {"file_cap": cap},
    "family_tree": lambda cap: {"file_cap": cap},
    "ping": lambda cap: {},
    "probe_update": lambda cap: {"update_port": 1},
    "read_current": lambda cap: {"file_cap": cap, "path": ROOT_TEXT, "lease_ticks": 0},
}


@pytest.mark.parametrize(
    "command",
    sorted(name for name, (_, ro) in _commands(FileService).items() if ro),
)
def test_read_only_command_is_answered_while_the_dispatch_lock_is_held(
    tcp, command
):
    cluster, cap = tcp
    node = _first_file_server(cluster)
    request = Request(command, READ_ONLY_PARAMS[command](cap))
    with cluster.network.daemon(node)._dispatch_lock:
        cluster.network.send("probe", node, request)


def test_a_locked_command_answers_busy_while_the_lock_is_held(tcp):
    cluster, _ = tcp
    node = _first_file_server(cluster)
    with cluster.network.daemon(node)._dispatch_lock:
        with pytest.raises(MessageDropped):
            cluster.network.send("probe", node, Request("create_file", {}))


@pytest.mark.parametrize("wire", ["sim", "tcp"])
def test_unknown_command_is_server_unreachable(wire, request):
    if wire == "sim":
        cluster = build_cluster(servers=1, seed=3)
    else:
        cluster, _ = request.getfixturevalue("tcp")
    node = _first_file_server(cluster)
    with pytest.raises(ServerUnreachable, match="nonsense"):
        cluster.network.send("probe", node, Request("nonsense", {}))


@pytest.mark.parametrize("wire", ["sim", "tcp"])
def test_update_and_a_counted_allocate_answer_on_both_wires(wire, request):
    """``update`` replies (version capability, merged paths); ``allocate``
    with a count hands out that many numbers in one exchange."""
    if wire == "sim":
        cluster = build_cluster(servers=1, seed=3)
    else:
        cluster, _ = request.getfixturevalue("tcp")
    client = cluster.client("c", use_cache=False)
    cap = client.create_file(b"x")
    version, merged = client._call("update", file_cap=cap, writes={"": b"y"})
    assert client.read_version(version) == b"y" and list(merged) == []
    with pytest.raises(TypeError, match="write_set"):
        client._call("update", file_cap=cap, write_set={})
    blocks = cluster.fs().store.blocks
    before = cluster.network.stats.messages
    numbers = blocks.allocate_many(3)
    assert len(set(numbers)) == 3
    assert cluster.network.stats.messages - before in (2, 4)  # 4: a refill
