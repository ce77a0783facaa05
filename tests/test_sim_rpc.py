"""Port-addressed transactions: dispatch, failover, drop retries."""

import pytest

from repro.errors import ServerCrashed, ServerUnreachable
from repro.obs import Recorder
from repro.sim.faults import DropPolicy
from repro.sim.network import Network
from repro.sim.rpc import RpcEndpoint, Transaction, failover_order


class Adder:
    def __init__(self, name):
        self.name = name
        self.calls = 0

    def cmd_add(self, a, b):
        self.calls += 1
        return a + b

    def cmd_whoami(self):
        return self.name


@pytest.fixture
def net():
    return Network()


def test_dispatch_to_cmd_method(net):
    RpcEndpoint(net, "s1", 0x100, Adder("s1"))
    txn = Transaction(net, "cli")
    assert txn.call(0x100, "add", a=2, b=3) == 5


def test_unknown_command_is_unreachable_error(net):
    RpcEndpoint(net, "s1", 0x100, Adder("s1"))
    txn = Transaction(net, "cli")
    with pytest.raises(ServerUnreachable):
        txn.call(0x100, "frobnicate")


def test_no_server_on_port(net):
    txn = Transaction(net, "cli")
    with pytest.raises(ServerUnreachable):
        txn.call(0x999, "add", a=1, b=2)


def test_failover_to_second_server(net):
    a, b = Adder("s1"), Adder("s2")
    e1 = RpcEndpoint(net, "s1", 0x100, a)
    RpcEndpoint(net, "s2", 0x100, b)
    e1.detach()
    txn = Transaction(net, "cli")
    assert txn.call(0x100, "whoami") == "s2"


def test_prefer_routes_to_named_server(net):
    RpcEndpoint(net, "s1", 0x100, Adder("s1"))
    RpcEndpoint(net, "s2", 0x100, Adder("s2"))
    txn = Transaction(net, "cli")
    assert txn.call(0x100, "whoami", prefer="s2") == "s2"
    assert txn.call(0x100, "whoami") == "s1"


def test_all_servers_down_raises(net):
    e1 = RpcEndpoint(net, "s1", 0x100, Adder("s1"))
    e2 = RpcEndpoint(net, "s2", 0x100, Adder("s2"))
    e1.detach()
    e2.detach()
    txn = Transaction(net, "cli")
    with pytest.raises(ServerUnreachable):
        txn.call(0x100, "whoami")


def test_dropped_request_is_retried(net):
    server = Adder("s1")
    RpcEndpoint(net, "s1", 0x100, server)
    net.drop_policy = DropPolicy(drop_nth=frozenset({1}))
    txn = Transaction(net, "cli")
    assert txn.call(0x100, "add", a=1, b=1) == 2
    assert server.calls == 1


def test_reattach_after_detach(net):
    server = Adder("s1")
    endpoint = RpcEndpoint(net, "s1", 0x100, server)
    endpoint.detach()
    endpoint.reattach()
    txn = Transaction(net, "cli")
    assert txn.call(0x100, "whoami") == "s1"


def test_failover_order_is_deterministic(net):
    """The order servers on a port are tried is sorted by name with the
    preferred server first — independent of registration order.  The TCP
    transaction layer shares the same helper, so sim runs predict real
    deployments."""
    assert failover_order(["s2", "s3", "s1"]) == ["s1", "s2", "s3"]
    assert failover_order(["s3", "s1", "s2"], prefer="s2") == ["s2", "s1", "s3"]
    # A preference for an unknown server falls back to the sorted order.
    assert failover_order(["s2", "s1"], prefer="nope") == ["s1", "s2"]
    assert failover_order([]) == []
    # End to end: registration order does not decide who serves.
    RpcEndpoint(net, "zeta", 0x100, Adder("zeta"))
    RpcEndpoint(net, "alpha", 0x100, Adder("alpha"))
    txn = Transaction(net, "cli")
    assert txn.call(0x100, "whoami") == "alpha"


def test_exceptions_propagate_to_caller(net):
    class Bomb:
        def cmd_boom(self):
            raise ValueError("kaboom")

    RpcEndpoint(net, "s1", 0x100, Bomb())
    txn = Transaction(net, "cli")
    with pytest.raises(ValueError, match="kaboom"):
        txn.call(0x100, "boom")


class Recovering(Adder):
    """A server that is up but refuses every request, as a restarted
    stable half does until its resync."""

    def cmd_whoami(self):
        raise ServerCrashed(f"{self.name} is recovering")


def test_a_crashed_server_fails_over_like_an_unreachable_one(net):
    recorder = Recorder()
    net.recorder = recorder
    RpcEndpoint(net, "s1", 0x100, Recovering("s1"))
    RpcEndpoint(net, "s2", 0x100, Adder("s2"))
    txn = Transaction(net, "cli")
    assert txn.call(0x100, "whoami") == "s2"
    assert recorder.metrics.counter("rpc.failovers").value == 1


def test_drops_retry_one_node_four_times_then_fail_over(net):
    recorder = Recorder()
    net.recorder = recorder
    RpcEndpoint(net, "s1", 0x100, Adder("s1"))
    RpcEndpoint(net, "s2", 0x100, Adder("s2"))
    net.drop_policy = DropPolicy(drop_nth=frozenset({1, 2, 3, 4}))
    txn = Transaction(net, "cli")
    assert txn.call(0x100, "whoami") == "s2"
    assert recorder.metrics.counter("rpc.retries").value == 3
    assert recorder.metrics.counter("rpc.failovers").value == 1


def test_named_call_goes_in_the_given_order_and_sweeps_once(net):
    """``call_nodes`` bypasses the port registry; with every node out it
    raises the last node's error after one sweep, even on a network that
    would sweep a port again."""
    RpcEndpoint(net, "s1", 0x100, Adder("s1"))
    RpcEndpoint(net, "s2", 0x100, Recovering("s2"))
    txn = Transaction(net, "cli")
    assert txn.call_nodes(["s1", "s2"], "add", a=1, b=2) == 3
    net.detach("s1")
    net.SWEEP_PAUSES = (0.0,)
    with pytest.raises(ServerCrashed):
        txn.call_nodes(["s1", "s2"], "whoami")
    assert net.stats.messages == 2 + 2  # one exchange, then one send each
