"""The disk on the in-memory kernel: atomic writes, crashes, corruption,
write-once media."""

import pytest

from repro.errors import (
    BlockTooLarge,
    CorruptBlock,
    DiskCrashed,
    DiskFull,
    NoSuchBlock,
    WriteOnceViolation,
)
from repro.sim.clock import LogicalClock
from repro.sim.kernel import Kernel
from repro.block.fdisk import FDisk


def _disk(capacity, block_size, clock=None, write_once=False):
    """An FDisk on a kernel of its own, as every simulated half gets."""
    return FDisk("d", capacity, block_size, clock, write_once, fs=Kernel())


@pytest.fixture
def disk():
    return _disk(capacity=16, block_size=64, clock=LogicalClock())


def test_write_read_roundtrip(disk):
    disk.write(1, b"hello")
    assert disk.read(1) == b"hello"


def test_read_unwritten_block(disk):
    with pytest.raises(NoSuchBlock):
        disk.read(3)


def test_write_out_of_range(disk):
    with pytest.raises(NoSuchBlock):
        disk.write(17, b"x")
    with pytest.raises(NoSuchBlock):
        disk.write(0, b"x")  # block 0 is the nil reference


def test_write_too_large(disk):
    with pytest.raises(BlockTooLarge):
        disk.write(1, b"x" * 65)


def test_overwrite_allowed_on_magnetic(disk):
    disk.write(1, b"a")
    disk.write(1, b"b")
    assert disk.read(1) == b"b"
    assert disk.stats.overwrites == 1


def test_write_once_forbids_overwrite():
    disk = _disk(4, 64, write_once=True)
    disk.write(1, b"a")
    with pytest.raises(WriteOnceViolation):
        disk.write(1, b"b")


def test_write_once_erase_is_noop():
    disk = _disk(4, 64, write_once=True)
    disk.write(1, b"a")
    disk.erase(1)
    assert disk.read(1) == b"a"


def test_crash_makes_disk_inaccessible(disk):
    disk.write(1, b"a")
    disk.crash()
    with pytest.raises(DiskCrashed):
        disk.read(1)
    with pytest.raises(DiskCrashed):
        disk.write(2, b"b")


def test_restore_preserves_contents(disk):
    disk.write(1, b"survivor")
    disk.crash()
    disk = disk.reopen()  # the restarted process recovers the journal
    assert disk.read(1) == b"survivor"
    disk.crash(power_loss=True)
    assert disk.reopen().read(1) == b"survivor"  # acknowledged means synced


def test_corruption_detected_on_read(disk):
    disk.write(1, b"precious")
    disk.corrupt(1)
    with pytest.raises(CorruptBlock):
        disk.read(1)


def test_rewrite_heals_corruption(disk):
    disk.write(1, b"data")
    disk.corrupt(1)
    disk.write(1, b"data")
    assert disk.read(1) == b"data"


def test_erase_frees_block(disk):
    disk.write(1, b"x")
    disk.erase(1)
    assert not disk.holds(1)
    with pytest.raises(NoSuchBlock):
        disk.read(1)
    assert disk.first_free(1) == 1


def test_first_free_skips_written(disk):
    disk.write(1, b"a")
    disk.write(2, b"b")
    assert disk.first_free() == 3
    assert disk.first_free(2) == 3


def test_disk_full():
    disk = _disk(2, 64)
    disk.write(1, b"a")
    disk.write(2, b"b")
    with pytest.raises(DiskFull):
        disk.first_free()


def test_io_advances_clock(disk):
    before = disk.clock.now
    disk.write(1, b"a")
    after_write = disk.clock.now
    disk.read(1)
    assert after_write > before
    assert disk.clock.now > after_write


def test_stats_counting(disk):
    disk.write(1, b"a")
    disk.read(1)
    disk.erase(1)
    assert disk.stats.writes == 1
    assert disk.stats.reads == 1
    assert disk.stats.frees == 1


def test_journals_owner_records_disowns_and_intentions(disk):
    """The owner records, the disown flag and the intentions list ride the
    journal with the blocks, and a restart gives them back."""
    disk.write_many([(1, b"a"), (2, b"b")], {1: 7, 2: 7})
    assert disk.read(1) == b"a" and disk.read(2) == b"b"
    disk.erase(1, disown=True)
    assert not disk.holds(1)
    disk.add_intention("write", 7, 2, b"b", sync=False)
    disk.sync_journal()
    disk.add_intention("free", 7, 1)
    disk.ack_intentions(1)
    for handle in (disk, disk.reopen()):
        assert handle.recovered_owners() == {2: 7}
        assert handle.recovered_intentions() == [("free", 7, 1, b"")]
