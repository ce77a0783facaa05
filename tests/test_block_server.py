"""The block server: allocation, protection, locks, test-and-set, recovery."""

import pytest

from repro.errors import (
    BlockLocked,
    DiskFull,
    NoSuchBlock,
    NotBlockOwner,
    ServerCrashed,
)
from repro.block.disk import SimDisk
from repro.block.server import BlockServer, PUBLIC_ACCOUNT


@pytest.fixture
def server():
    return BlockServer("bs", SimDisk(capacity=32, block_size=128))


def test_allocate_write_read(server):
    block = server.allocate_write(1, b"data")
    assert server.read(1, block) == b"data"


def test_allocation_is_dense(server):
    blocks = [server.allocate(1) for _ in range(3)]
    assert blocks == [1, 2, 3]


def test_allocate_with_hint(server):
    assert server.allocate(1, hint=7) == 7
    with pytest.raises(DiskFull):
        server.allocate(1, hint=7)


def test_protection_between_accounts(server):
    block = server.allocate_write(1, b"mine")
    with pytest.raises(NotBlockOwner):
        server.read(2, block)
    with pytest.raises(NotBlockOwner):
        server.write(2, block, b"theirs")
    with pytest.raises(NotBlockOwner):
        server.free(2, block)


def test_public_account_blocks_shared(server):
    block = server.allocate_write(PUBLIC_ACCOUNT, b"shared")
    assert server.read(5, block) == b"shared"


def test_unallocated_block_raises(server):
    with pytest.raises(NoSuchBlock):
        server.read(1, 9)


def test_free_erases_and_releases(server):
    block = server.allocate_write(1, b"x")
    server.free(1, block)
    with pytest.raises(NoSuchBlock):
        server.read(1, block)
    assert server.owner_of(block) is None


def test_test_and_set_success(server):
    block = server.allocate_write(1, b"AAAABBBB")
    result = server.test_and_set(1, block, 4, b"BBBB", b"CCCC")
    assert result.success
    assert server.read(1, block) == b"AAAACCCC"


def test_test_and_set_failure_returns_current(server):
    block = server.allocate_write(1, b"AAAABBBB")
    result = server.test_and_set(1, block, 4, b"XXXX", b"CCCC")
    assert not result.success
    assert result.current == b"BBBB"
    assert server.read(1, block) == b"AAAABBBB"  # untouched


def test_test_and_set_length_mismatch(server):
    block = server.allocate_write(1, b"AAAA")
    with pytest.raises(ValueError):
        server.test_and_set(1, block, 0, b"AA", b"AAA")


def test_test_and_set_out_of_range(server):
    block = server.allocate_write(1, b"AAAA")
    with pytest.raises(ValueError):
        server.test_and_set(1, block, 2, b"AAAA", b"BBBB")


def test_lock_unlock(server):
    block = server.allocate_write(1, b"x")
    assert server.lock(block, locker=0xA)
    assert not server.lock(block, locker=0xB)
    assert server.lock(block, locker=0xA)  # re-entrant
    server.unlock(block, 0xA)
    assert server.lock(block, locker=0xB)


def test_foreign_unlock_raises(server):
    block = server.allocate_write(1, b"x")
    server.lock(block, 0xA)
    with pytest.raises(BlockLocked):
        server.unlock(block, 0xB)


def test_unlock_unheld_is_noop(server):
    block = server.allocate_write(1, b"x")
    server.unlock(block, 0xA)


def test_recover_lists_account_blocks(server):
    mine = [server.allocate_write(1, b"m") for _ in range(3)]
    server.allocate_write(2, b"o")
    assert server.recover(1) == sorted(mine)
    assert len(server.recover(2)) == 1
    assert server.recover(3) == []


def test_crash_blocks_all_commands(server):
    block = server.allocate_write(1, b"x")
    server.crash()
    for call in (
        lambda: server.read(1, block),
        lambda: server.write(1, block, b"y"),
        lambda: server.allocate(1),
        lambda: server.recover(1),
    ):
        with pytest.raises(ServerCrashed):
            call()


def test_restart_clears_locks_keeps_data(server):
    block = server.allocate_write(1, b"x")
    server.lock(block, 0xA)
    server.crash()
    server.restart()
    assert server.read(1, block) == b"x"
    assert server.lock_holder(block) is None


def test_free_releases_lock(server):
    block = server.allocate_write(1, b"x")
    server.lock(block, 0xA)
    server.free(1, block)
    fresh = server.allocate(1, hint=block)
    assert server.lock_holder(fresh) is None
