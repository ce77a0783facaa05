"""The block server: allocating writes, protection, test-and-set, recovery."""

import pytest

from repro.errors import (
    DiskFull,
    NoSuchBlock,
    NotBlockOwner,
    ServerCrashed,
)
from repro.block.disk import SimDisk
from repro.block.server import BlockServer, PUBLIC_ACCOUNT, compare_and_swap


@pytest.fixture
def server():
    return BlockServer("bs", SimDisk(capacity=32, block_size=128))


def _put(server, account, block, data):
    """An allocating write at a chosen number (the stable server chooses)."""
    server.write_many(account, [(block, data)], adopt=True)
    return block


def test_allocate_write_read(server):
    block = _put(server, 1, 3, b"data")
    assert server.read(1, block) == b"data"
    assert server.owner_of(block) == 1


def test_allocate_with_hint(server):
    server.reserve(1, [7])
    assert server.owner_of(7) == 1
    with pytest.raises(DiskFull):
        server.reserve(1, [7])
    with pytest.raises(DiskFull):
        server.reserve(1, [33])  # beyond capacity


def test_protection_between_accounts(server):
    block = _put(server, 1, 1, b"mine")
    with pytest.raises(NotBlockOwner):
        server.read(2, block)
    with pytest.raises(NotBlockOwner):
        server.write_many(2, [(block, b"theirs")])
    with pytest.raises(NotBlockOwner):
        server.write_many(2, [(block, b"theirs")], adopt=True)
    with pytest.raises(NotBlockOwner):
        server.free(2, block)
    assert server.read(1, block) == b"mine"


def test_public_account_blocks_shared(server):
    block = _put(server, PUBLIC_ACCOUNT, 1, b"shared")
    assert server.read(5, block) == b"shared"


def test_unallocated_block_raises(server):
    with pytest.raises(NoSuchBlock):
        server.read(1, 9)
    with pytest.raises(NoSuchBlock):
        server.write_many(1, [(9, b"x")])  # only ``adopt`` allocates


def test_free_erases_and_releases(server):
    block = _put(server, 1, 1, b"x")
    server.free(1, block)
    with pytest.raises(NoSuchBlock):
        server.read(1, block)
    assert server.owner_of(block) is None


def test_test_and_set_success():
    result, swapped = compare_and_swap(b"AAAABBBB", 4, b"BBBB", b"CCCC")
    assert result.success and result.current == b"CCCC"
    assert swapped == b"AAAACCCC"


def test_test_and_set_failure_returns_current():
    result, swapped = compare_and_swap(b"AAAABBBB", 4, b"XXXX", b"CCCC")
    assert not result.success
    assert result.current == b"BBBB"
    assert swapped is None  # nothing to write


def test_test_and_set_length_mismatch():
    with pytest.raises(ValueError):
        compare_and_swap(b"AAAA", 0, b"AA", b"AAA")


def test_test_and_set_out_of_range():
    with pytest.raises(ValueError):
        compare_and_swap(b"AAAA", 2, b"AAAA", b"BBBB")


def test_recover_lists_account_blocks(server):
    mine = [_put(server, 1, block, b"m") for block in (4, 2, 9)]
    _put(server, 2, 5, b"o")
    assert server.recover(1) == sorted(mine)
    assert len(server.recover(2)) == 1
    assert server.recover(3) == []


def test_crash_blocks_all_commands(server):
    block = _put(server, 1, 1, b"x")
    server.crash()
    for call in (
        lambda: server.read(1, block),
        lambda: server.write_many(1, [(block, b"y")]),
        lambda: server.reserve(1, [2]),
        lambda: server.recover(1),
    ):
        with pytest.raises(ServerCrashed):
            call()


def test_restart_keeps_data(server):
    block = _put(server, 1, 1, b"x")
    server.crash()
    server.restart()
    assert server.read(1, block) == b"x"
    assert server.owner_of(block) == 1
