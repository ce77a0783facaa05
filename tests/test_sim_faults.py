"""Fault-injection primitives."""

from repro.sim.faults import DropPolicy


def test_drop_every_kth():
    policy = DropPolicy(drop_every=3)
    outcomes = [policy.should_drop() for _ in range(9)]
    assert outcomes == [False, False, True] * 3
    assert policy.dropped == 3


def test_drop_specific_sequence_numbers():
    policy = DropPolicy(drop_nth=frozenset({2, 5}))
    outcomes = [policy.should_drop() for _ in range(6)]
    assert outcomes == [False, True, False, False, True, False]


def test_drop_policy_reset():
    policy = DropPolicy(drop_every=1)
    policy.should_drop()
    policy.reset()
    assert policy.dropped == 0
