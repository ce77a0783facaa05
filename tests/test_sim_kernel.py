"""The in-memory kernel: the four persistence rules a simulated crash
follows, and the call counting that names a crash state."""

import os
import sys
import threading

import pytest

from repro.sim.kernel import SECTOR, Kernel, ProcessDied

APPEND = os.O_RDWR | os.O_CREAT | os.O_APPEND


def _made(kernel: Kernel, path: str, data: bytes, sync_dir: bool = True) -> int:
    """Create ``path``, write and sync ``data``, and (by default) sync the
    directory entry; returns the open descriptor."""
    kernel.makedirs(os.path.dirname(path), exist_ok=True)
    fd = kernel.open(path, APPEND)
    kernel.write(fd, data)
    kernel.fsync(fd)
    if sync_dir:
        dir_fd = kernel.open(os.path.dirname(path), os.O_RDONLY)
        kernel.fsync(dir_fd)
        kernel.close(dir_fd)
    return fd


def _contents(kernel: Kernel, path: str) -> bytes | None:
    try:
        fd = kernel.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    data = kernel.pread(fd, kernel.fstat(fd).st_size, 0)
    kernel.close(fd)
    return data


def test_process_death_keeps_every_written_byte_and_entry():
    kernel = Kernel()
    fd = _made(kernel, "d/log", b"synced ")
    kernel.write(fd, b"written")
    kernel.replace("d/log", "d/moved")  # no directory sync
    kernel.crash()
    assert _contents(kernel, "d/moved") == b"synced written"
    assert _contents(kernel, "d/log") is None
    with pytest.raises(ProcessDied):  # the descriptor died with its process
        kernel.pread(fd, 1, 0)
    kernel.close(fd)  # closing it is harmless


def test_power_loss_keeps_only_synced_bytes_and_synced_entries():
    kernel = Kernel()
    fd = _made(kernel, "d/kept", b"synced")
    kernel.write(fd, b" lost")
    gone = _made(kernel, "d/unlinked", b"back again")
    kernel.close(gone)
    _made(kernel, "d/unlisted", b"synced data, entry never synced", sync_dir=False)
    kernel.unlink("d/unlinked")  # the unlink is not synced either
    kernel.crash(power_loss=True)
    assert _contents(kernel, "d/kept") == b"synced"
    assert _contents(kernel, "d/unlisted") is None
    assert _contents(kernel, "d/unlinked") == b"back again"
    assert kernel.listdir("d") == ["kept", "unlinked"]


@pytest.mark.parametrize("power_loss", [False, True], ids=["death", "power"])
def test_a_write_in_flight_may_be_torn(power_loss):
    """Torn at a sector boundary: the write's length lands, its sectors
    past the tear read as zeros — and after a power loss, so does every
    byte no sync covered."""
    kernel = Kernel()
    fd = _made(kernel, "d/log", b"x" * 100)
    kernel.write(fd, b"u" * 10)  # never synced
    record = b"y" * SECTOR
    kernel.crash_after(0, power_loss, torn=SECTOR - 110)  # the next call dies
    with pytest.raises(ProcessDied):
        kernel.write(fd, record)
    assert kernel.died_in == ("write", 110, SECTOR)
    unsynced = bytes(10) if power_loss else b"u" * 10
    assert _contents(kernel, "d/log") == (
        b"x" * 100 + unsynced + b"y" * (SECTOR - 110) + bytes(110)
    )


def test_an_open_descriptor_keeps_an_unlinked_file_readable():
    kernel = Kernel()
    fd = _made(kernel, "d/seg", b"still here")
    kernel.unlink("d/seg")
    assert kernel.listdir("d") == []
    assert kernel.pread(fd, 10, 0) == b"still here"
    kernel.close(fd)
    with pytest.raises(OSError):
        kernel.pread(fd, 10, 0)


def test_crash_after_counts_calls_that_change_state():
    kernel = Kernel()
    fd = _made(kernel, "d/log", b"a")
    before = kernel.calls
    kernel.pread(fd, 1, 0)
    kernel.fstat(fd)
    kernel.listdir("d")
    assert kernel.calls == before  # reads name no new crash state
    kernel.crash_after(2, power_loss=True)
    kernel.write(fd, b"b")
    kernel.fsync(fd)
    with pytest.raises(ProcessDied):
        kernel.write(fd, b"c")
    assert kernel.died_in == ("write", 2, 1)
    assert _contents(kernel, "d/log") == b"ab"


def test_calls_from_threads_are_whole():
    """Lock-free disk readers on other threads see every call whole."""
    kernel = Kernel()
    fd = _made(kernel, "d/log", b"")
    record = bytes(range(256)) * 4
    writers = 4

    def writer() -> None:
        for _ in range(200):
            kernel.write(fd, record)

    threads = [threading.Thread(target=writer) for _ in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for _ in range(200):
            size = kernel.fstat(fd).st_size
            assert size % len(record) == 0
            assert kernel.pread(fd, len(record), max(size - len(record), 0)) in (b"", record)
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert kernel.fstat(fd).st_size == writers * 200 * len(record)


def test_refuses_what_the_os_refuses():
    """FDisk's error paths see the errors ``os`` would raise."""
    kernel = Kernel()
    fd = _made(kernel, "d/log", b"ab")
    with pytest.raises(FileNotFoundError):
        kernel.open("d/missing", os.O_RDONLY)
    with pytest.raises(FileNotFoundError):
        kernel.open("nowhere/new", APPEND)
    with pytest.raises(FileNotFoundError):
        kernel.unlink("d/missing")
    dir_fd = kernel.open("d", os.O_RDONLY)
    with pytest.raises(IsADirectoryError):
        kernel.pread(dir_fd, 1, 0)
    kernel.close(dir_fd)
    with pytest.raises(OSError):
        kernel.close(dir_fd)
    kernel.pwrite(fd, b"z", 4)  # past the end: the gap reads as zeros
    assert _contents(kernel, "d/log") == b"ab\x00\x00z"
