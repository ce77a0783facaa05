"""A SWALLOW-style timestamp-ordered multiversion store.

"Like FELIX, SWALLOW also uses a version mechanism, but the
synchronisation of concurrent access is quite different.  SWALLOW uses a
timestamp mechanism, based on Reed's notion of pseudo time" (§3).

The classic multiversion timestamp-ordering rules, per page:

* a transaction draws its pseudo-time stamp ``ts`` when it opens;
* **read** returns the version with the largest write stamp ≤ ``ts`` and
  records ``ts`` in that version's read-stamp high-water mark;
* **write** is rejected (:class:`TimestampConflict`) if some transaction
  with a *later* stamp already read the state this write would replace —
  the write would invalidate that read retroactively.  Writes are buffered
  and installed atomically at commit.
* a write older than the newest installed version is also rejected (no
  Thomas write rule here: SWALLOW's commit records are atomic groups, and
  silently dropping writes would break the atomic property).

Old page versions are retained, which is what makes reads never block —
at the cost of version storage that a real SWALLOW pruned with its
"version histories"; :meth:`TimestampFileService.prune` plays that role.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BaselineError, TimestampConflict, TransactionAborted
from repro.block.sharding import ShardedBlockClient
from repro.sim.network import Network


@dataclass
class _PageVersion:
    write_ts: int
    block: int  # durable storage of this version's data
    read_ts: int = 0  # highest stamp that read this version


@dataclass
class _PageHistory:
    versions: list[_PageVersion] = field(default_factory=list)  # ascending

    def visible_to(self, ts: int) -> _PageVersion:
        chosen = None
        for version in self.versions:
            if version.write_ts <= ts:
                chosen = version
            else:
                break
        if chosen is None:
            raise BaselineError("no version visible at this pseudo time")
        return chosen

    @property
    def newest(self) -> _PageVersion:
        return self.versions[-1]


@dataclass
class _Txn:
    txn_id: int
    ts: int
    status: str = "open"
    writes: dict[tuple[int, int], bytes] = field(default_factory=dict)


class TimestampFileService:
    """A page-addressed multiversion store with pseudo-time ordering."""

    def __init__(
        self, name: str, network: Network, block_port: int, account: int
    ) -> None:
        self.name = name
        self.network = network
        self.clock = network.clock
        self.blocks = ShardedBlockClient(network, name, [block_port], account)
        self._next_file = 1
        self._next_txn = 1
        self._histories: dict[tuple[int, int], _PageHistory] = {}
        self._txns: dict[int, _Txn] = {}
        self.stats_conflicts = 0

    # -- files --------------------------------------------------------------

    def create_file(self, pages: list[bytes]) -> int:
        file_id = self._next_file
        self._next_file += 1
        birth = self.clock.timestamp()
        for index, data in enumerate(pages):
            block = self.blocks.allocate_write(data)
            self._histories[(file_id, index)] = _PageHistory(
                [_PageVersion(birth, block)]
            )
        return file_id

    # -- transactions ------------------------------------------------------------

    def open_transaction(self) -> int:
        txn_id = self._next_txn
        self._next_txn += 1
        self._txns[txn_id] = _Txn(txn_id, self.clock.timestamp())
        return txn_id

    def read(self, txn_id: int, file_id: int, index: int) -> bytes:
        txn = self._live(txn_id)
        key = (file_id, index)
        if key in txn.writes:
            return txn.writes[key]
        history = self._history(key)
        version = history.visible_to(txn.ts)
        version.read_ts = max(version.read_ts, txn.ts)
        return self.blocks.read(version.block)

    def write(self, txn_id: int, file_id: int, index: int, data: bytes) -> None:
        txn = self._live(txn_id)
        key = (file_id, index)
        self._check_writable(txn, key)
        txn.writes[key] = data

    def close_transaction(self, txn_id: int) -> None:
        """Validate all buffered writes once more and install them as one
        atomic group stamped at the transaction's pseudo time."""
        txn = self._live(txn_id)
        for key in txn.writes:
            self._check_writable(txn, key)
        for key, data in sorted(txn.writes.items()):
            block = self.blocks.allocate_write(data)
            history = self._history(key)
            history.versions.append(_PageVersion(txn.ts, block))
            history.versions.sort(key=lambda v: v.write_ts)
        txn.status = "committed"

    def abort_transaction(self, txn_id: int) -> None:
        txn = self._txns.get(txn_id)
        if txn is not None and txn.status == "open":
            txn.status = "aborted"
            txn.writes.clear()

    # -- rules ---------------------------------------------------------------------

    def _check_writable(self, txn: _Txn, key: tuple[int, int]) -> None:
        history = self._history(key)
        newest = history.newest
        if newest.write_ts > txn.ts:
            self.stats_conflicts += 1
            self.abort_transaction(txn.txn_id)
            raise TimestampConflict(
                f"txn {txn.txn_id}: page {key} already written at a later "
                f"pseudo time"
            )
        visible = history.visible_to(txn.ts)
        if visible.read_ts > txn.ts:
            self.stats_conflicts += 1
            self.abort_transaction(txn.txn_id)
            raise TimestampConflict(
                f"txn {txn.txn_id}: page {key} was read at a later pseudo "
                f"time; writing now would invalidate that read"
            )

    # -- maintenance -------------------------------------------------------------

    def prune(self, keep: int = 1) -> int:
        """Drop all but the newest ``keep`` versions of every page."""
        freed = 0
        for history in self._histories.values():
            while len(history.versions) > keep:
                victim = history.versions.pop(0)
                self.blocks.free(victim.block)
                freed += 1
        return freed

    # -- helpers --------------------------------------------------------------------

    def _live(self, txn_id: int) -> _Txn:
        txn = self._txns.get(txn_id)
        if txn is None:
            raise BaselineError(f"unknown transaction {txn_id}")
        if txn.status == "aborted":
            raise TransactionAborted(f"transaction {txn_id} was aborted")
        if txn.status == "committed":
            raise BaselineError(f"transaction {txn_id} already committed")
        return txn

    def _history(self, key: tuple[int, int]) -> _PageHistory:
        try:
            return self._histories[key]
        except KeyError:
            raise BaselineError(f"no page {key}") from None

    def read_committed(self, file_id: int, index: int) -> bytes:
        """Read the newest committed state of a page."""
        return self.blocks.read(self._history((file_id, index)).newest.block)
