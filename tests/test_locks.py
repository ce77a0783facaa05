"""Lock-field primitives: atomic test-both-set-one semantics (§5.3)."""

import pytest

from repro.core.locks import LockSnapshot
from repro.core.page import Page
from repro.core.store import PageStore
from repro.block.stable import StablePair
from repro.block.sharding import ShardedBlockClient
from repro.sim.network import Network


@pytest.fixture
def store():
    net = Network()
    StablePair(net, 0x700, capacity=128, block_size=33000)
    return PageStore(ShardedBlockClient(net, "fs", [0x700], account=1))


@pytest.fixture
def version_block(store):
    block = store.store_new(Page(is_version_page=True, data=b"v"))
    store.flush()
    return block


def test_read_fresh_snapshot(store, version_block):
    locks = store
    from repro.core.locks import LockOps

    ops = LockOps(store)
    snap = ops.read(version_block)
    assert snap == LockSnapshot(0, 0)
    assert not snap.any_locked


def test_set_top_small_file_rule(store, version_block):
    from repro.core.locks import LockOps

    ops = LockOps(store)
    snap = ops.read(version_block)
    assert ops.set_top(version_block, snap, 0xAAA)
    assert ops.read(version_block).top == 0xAAA
    # Another small update overwrites the hint (it is only a hint).
    snap2 = ops.read(version_block)
    assert ops.set_top(version_block, snap2, 0xBBB)
    assert ops.read(version_block).top == 0xBBB


def test_set_top_fails_on_stale_snapshot(store, version_block):
    from repro.core.locks import LockOps

    ops = LockOps(store)
    snap = ops.read(version_block)
    ops.set_top(version_block, snap, 0xAAA)
    # Using the stale (pre-set) snapshot must fail.
    assert not ops.set_top(version_block, snap, 0xCCC)


def test_set_top_refused_when_inner_locked(store, version_block):
    from repro.core.locks import LockOps

    ops = LockOps(store)
    assert ops.set_inner(version_block, 0x111)
    snap = ops.read(version_block)
    assert not ops.set_top(version_block, snap, 0xAAA)


def test_set_top_exclusive_super_file_rule(store, version_block):
    from repro.core.locks import LockOps

    ops = LockOps(store)
    assert ops.set_top_exclusive(version_block, 0xAAA)
    # A second super update cannot take it.
    assert not ops.set_top_exclusive(version_block, 0xBBB)
    assert ops.read(version_block).top == 0xAAA


def test_set_inner_requires_both_clear(store, version_block):
    from repro.core.locks import LockOps

    ops = LockOps(store)
    snap = ops.read(version_block)
    ops.set_top(version_block, snap, 0xAAA)  # a small update's hint
    # Super-file update must wait out the top lock before entering.
    assert not ops.set_inner(version_block, 0x111)
    ops.clear_top_if(version_block, 0xAAA)
    assert ops.set_inner(version_block, 0x111)
    assert not ops.set_inner(version_block, 0x222)


def test_clear_if_checks_holder(store, version_block):
    from repro.core.locks import LockOps

    ops = LockOps(store)
    snap = ops.read(version_block)
    ops.set_top(version_block, snap, 0xAAA)
    assert not ops.clear_top_if(version_block, 0xBBB)
    assert ops.read(version_block).top == 0xAAA
    assert ops.clear_top_if(version_block, 0xAAA)
    assert ops.read(version_block).top == 0


def test_force_clear(store, version_block):
    from repro.core.locks import LockOps

    ops = LockOps(store)
    ops.set_top_exclusive(version_block, 0xAAA)
    ops.set_inner(version_block, 0x111) or None
    ops.force_clear_top(version_block)
    ops.force_clear_inner(version_block)
    snap = ops.read(version_block)
    assert snap == LockSnapshot(0, 0)
    # Idempotent on clear fields.
    ops.force_clear_top(version_block)
    ops.force_clear_inner(version_block)


def test_lock_fields_survive_on_disk(store, version_block):
    from repro.core.locks import LockOps

    ops = LockOps(store)
    snap = ops.read(version_block)
    ops.set_top(version_block, snap, 0xABCDEF)
    page = Page.from_bytes(store.blocks.read(version_block))
    assert page.top_lock == 0xABCDEF
