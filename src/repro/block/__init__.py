"""The block service: the bottom of the paper's storage hierarchy.

"We assume the block service implements as a minimum commands to allocate,
deallocate, read and write fixed size blocks of data" (§4).  This package
provides:

* :mod:`repro.block.fdisk` — the disk: fixed-size blocks in a
  log-structured journal, every write acknowledged after its sync, on a
  real data directory or on the simulator's in-memory kernel; optional
  write-once (optical) mode.
* :mod:`repro.block.server` — the block server: per-account protection,
  reservation, one batched (optionally allocating) write, the
  compare-and-swap behind the test-and-set the file service's commit
  relies on, and the recovery listing.
* :mod:`repro.block.stable` — companion-pair stable storage: every block on
  two disks behind two servers, every write one companion-first batch,
  collision detection, intentions lists and crash resynchronisation.
* :mod:`repro.block.sharding` — companion pairs behind a placement map
  (one pair is the one-shard case) and the block client every file server
  talks through.
"""

from repro.block.fdisk import DiskStats, FDisk
from repro.block.server import BlockServer, BLOCK_SIZE
from repro.block.sharding import ShardedBlockClient
from repro.block.stable import StablePair

__all__ = [
    "FDisk",
    "DiskStats",
    "BlockServer",
    "BLOCK_SIZE",
    "StablePair",
    "ShardedBlockClient",
]
