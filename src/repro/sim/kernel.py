"""An in-memory kernel: the file system a simulated disk lives on.

:class:`~repro.block.fdisk.FDisk` makes its file-system calls through
one object, by ``os``'s names.  On a real data directory that object is
``os``; everywhere else it is a :class:`Kernel`, which answers the same
calls from memory and keeps what a kernel and a disk would keep across
a crash:

* **process death** keeps every byte written and every directory entry
  made (they are in the page cache);
* **power loss** keeps only the bytes a file sync covered and the
  directory entries a directory sync covered — a renamed or unlinked
  entry goes back to what the last directory sync saw;
* **a write in flight** may be **torn** at a sector boundary
  (:data:`SECTOR` bytes): the file's new size lands, and so do the
  sectors before the tear; the rest of the write reads back as zeros
  (after a power loss, so does every other byte no sync covered);
* **an open descriptor** keeps an unlinked file readable until closed.

Directories themselves are durable once made.  Every call holds one
lock, so lock-free readers on other threads see whole calls; the kernel
holds no OS descriptor.

A crash happens now (:meth:`Kernel.crash`) or after a number of calls
(:meth:`Kernel.crash_after`).  Either way every descriptor open at that
moment belongs to the dead process: a later call on it raises
:class:`ProcessDied`, and a new ``open`` is the restarted process.
"""

from __future__ import annotations

import errno
import os
import threading

from repro.errors import DiskCrashed

# A disk tears an interrupted write at a multiple of this many bytes.
SECTOR = 512


class ProcessDied(DiskCrashed):
    """The process that held the descriptor died in a simulated crash."""


class _File:
    __slots__ = ("data", "synced")

    def __init__(self) -> None:
        self.data = bytearray()
        self.synced = 0  # bytes a sync covered


class Kernel:
    """Files and directories in memory, behind ``os``'s call names.

    ``calls`` counts the calls that may change what a crash leaves —
    every call but ``pread``, ``fstat`` and ``listdir`` — so that a crash
    state is named by how many of them completed.  Writes go to the end
    of the file (``FDisk`` opens every file it writes with ``O_APPEND``
    or ``O_TRUNC``); ``pwrite`` writes in place.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._files: dict[str, _File] = {}  # the namespace
        self._durable: dict[str, _File] = {}  # what directory syncs saw
        self._dirs: set[str] = {""}
        self._fds: dict[int, _File | str] = {}  # a file, or a directory's path
        self._next_fd = 3
        self._born = 3  # descriptors below this belonged to a dead process
        self.calls = 0
        self._fatal: tuple[int, bool, int | None] | None = None
        # The call a crash_after death interrupted: (name, offset, length);
        # offset and length are the write's, else 0.
        self.died_in: tuple[str, int, int] | None = None

    # -- crashes ------------------------------------------------------------

    def crash(self, power_loss: bool = False) -> None:
        """The process dies now; with ``power_loss``, so does the power."""
        with self._lock:
            self._die(power_loss)

    def crash_after(
        self, calls: int, power_loss: bool = False, torn: int | None = None
    ) -> None:
        """Die when ``calls`` more calls have completed: the next one raises
        :class:`ProcessDied` instead of running.  If that one is a write
        and ``torn`` is given, it is torn ``torn`` bytes in: its first
        ``torn`` bytes land, and zeros in place of the rest."""
        self._fatal = (self.calls + calls, power_loss, torn)
        self.died_in = None

    def _die(self, power_loss: bool) -> None:
        self._fds.clear()
        self._born = self._next_fd
        self._fatal = None
        if power_loss:
            self._files = dict(self._durable)
            for file in self._files.values():
                del file.data[file.synced :]

    def _tick(self, name: str, file: _File | None = None, data=b"") -> None:
        """Count one call; if it is the fatal one, run its torn part and die."""
        fatal = self._fatal
        if fatal is not None and self.calls == fatal[0]:
            _, power_loss, torn = fatal
            at = len(file.data) if file is not None else 0
            self.died_in = (name, at, len(data))
            if file is not None and torn is not None:
                if power_loss:  # the new size is on disk, unsynced data is not
                    file.data[file.synced :] = bytes(at - file.synced)
                    file.synced = at + len(data)
                file.data += bytes(data[:torn]) + bytes(len(data) - torn)
            self._die(power_loss)
            raise ProcessDied(f"the process died in {name}")
        self.calls += 1

    def _open_entry(self, fd: int) -> _File | str:
        entry = self._fds.get(fd)
        if entry is None:
            if fd < self._born:
                raise ProcessDied(f"descriptor {fd} died with its process")
            raise OSError(errno.EBADF, "bad file descriptor")
        return entry

    def _file(self, fd: int) -> _File:
        entry = self._open_entry(fd)
        if isinstance(entry, str):
            raise OSError(errno.EISDIR, "is a directory")
        return entry

    # -- descriptor calls ---------------------------------------------------

    def open(self, path, flags: int, mode: int = 0o777) -> int:
        path = os.fspath(path)
        with self._lock:
            self._tick("open")
            entry = path
            if path not in self._dirs:
                file = entry = self._files.get(path)
                if file is None:
                    if not flags & os.O_CREAT:
                        raise FileNotFoundError(errno.ENOENT, "no such file", path)
                    if os.path.dirname(path) not in self._dirs:
                        raise FileNotFoundError(errno.ENOENT, "no such directory", path)
                    file = entry = self._files[path] = _File()
                if flags & os.O_TRUNC:
                    del file.data[:]
                    file.synced = 0
            fd = self._next_fd
            self._next_fd += 1
            self._fds[fd] = entry
            return fd

    def close(self, fd: int) -> None:
        with self._lock:
            self._tick("close")
            if self._fds.pop(fd, None) is None and fd >= self._born:
                raise OSError(errno.EBADF, "bad file descriptor")

    def write(self, fd: int, data) -> int:
        with self._lock:
            file = self._file(fd)
            self._tick("write", file, data)
            file.data += data
            return len(data)

    def pwrite(self, fd: int, data, offset: int) -> int:
        with self._lock:
            file = self._file(fd)
            self._tick("pwrite", file, data)
            if offset > len(file.data):
                file.data += bytes(offset - len(file.data))
            file.data[offset : offset + len(data)] = data
            return len(data)

    def pread(self, fd: int, length: int, offset: int) -> bytes:
        with self._lock:
            return bytes(self._file(fd).data[offset : offset + length])

    def fstat(self, fd: int) -> os.stat_result:
        with self._lock:
            size = len(self._file(fd).data)
        return os.stat_result((0o100644, 0, 0, 1, 0, 0, size, 0, 0, 0))

    def ftruncate(self, fd: int, length: int) -> None:
        with self._lock:
            file = self._file(fd)
            self._tick("ftruncate")
            del file.data[length:]
            file.data += bytes(length - len(file.data))
            file.synced = min(file.synced, length)

    def fsync(self, fd: int) -> None:
        with self._lock:
            entry = self._open_entry(fd)
            self._tick("fsync")
            if not isinstance(entry, str):
                entry.synced = len(entry.data)
                return
            # A directory sync: its entries are now what a power loss keeps.
            for path in [p for p in self._durable if os.path.dirname(p) == entry]:
                del self._durable[path]
            for path, file in self._files.items():
                if os.path.dirname(path) == entry:
                    self._durable[path] = file

    fdatasync = fsync

    # -- path calls -----------------------------------------------------------

    def replace(self, src, dst) -> None:
        src, dst = os.fspath(src), os.fspath(dst)
        with self._lock:
            self._tick("replace")
            self._files[dst] = self._files.pop(src)

    def unlink(self, path) -> None:
        path = os.fspath(path)
        with self._lock:
            self._tick("unlink")
            if self._files.pop(path, None) is None:
                raise FileNotFoundError(errno.ENOENT, "no such file", path)

    def makedirs(self, path, exist_ok: bool = False) -> None:
        path = os.fspath(path)
        with self._lock:
            self._tick("makedirs")
            while path not in self._dirs:
                self._dirs.add(path)
                path = os.path.dirname(path)

    def listdir(self, path) -> list[str]:
        path = os.fspath(path)
        with self._lock:
            names = self._dirs | self._files.keys()
        return sorted(
            os.path.basename(p) for p in names if p and os.path.dirname(p) == path
        )
