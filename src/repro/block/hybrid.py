"""Hybrid media: magnetic top, write-once optical bottom (Figure 2).

"The top of the tree (i.e., near the root) is stored on magnetic
random-access media [...].  The lower parts of the tree can be stored on
magnetic disk, or write-once media, such as optical disk."

Only version pages are ever rewritten in place (commit references, lock
fields); every other page is written exactly once by the copy-on-write
discipline.  The hybrid block client therefore routes:

* **version pages → the magnetic pair** (rewritable), and
* **all other pages → the optical pair** (``write_once=True`` disks that
  *enforce* single-write semantics).

The two pairs keep separate block-number spaces; the client splices them
into one 28-bit namespace by offsetting optical numbers with
:data:`OPTICAL_BASE`, so references in pages remain plain block numbers.

Consequences faithfully modelled:

* optical blocks are never freed (the medium cannot be erased; ``free``
  releases nothing and the space is gone — the price of optical storage);
* corrupted optical blocks cannot be repaired in place; reads fall back to
  the companion copy every time;
* the garbage collector must not reshare on a hybrid deployment (reshare
  rewrites committed interior pages in place), so it runs sweep-only.
"""

from __future__ import annotations

from repro.block.server import TasResult
from repro.block.sharding import ShardedBlockClient
from repro.block.stable import Swap

# Optical block numbers live above this bit.  28-bit block numbers leave
# 2^24 magnetic and (2^28 - 2^24) optical addresses — version pages are a
# tiny fraction of all pages, mirroring the paper's small magnetic top.
OPTICAL_BASE = 1 << 24


class HybridBlockClient:
    """A block-service client spliced from a magnetic and an optical pair.

    Implements the same verb set as :class:`repro.block.sharding.
    ShardedBlockClient`, over one such client per medium; block numbers at
    or above :data:`OPTICAL_BASE` route to the optical pair (after removing
    the offset).
    """

    def __init__(
        self, magnetic: ShardedBlockClient, optical: ShardedBlockClient
    ) -> None:
        self.magnetic = magnetic
        self.optical = optical
        self.optical_dead = 0  # "freed" optical blocks: space lost forever

    # -- routing -----------------------------------------------------------

    def _route(self, block: int) -> tuple[ShardedBlockClient, int]:
        if block >= OPTICAL_BASE:
            return self.optical, block - OPTICAL_BASE
        return self.magnetic, block

    def is_optical(self, block: int) -> bool:
        return block >= OPTICAL_BASE

    # -- allocation (device chosen by the caller) ----------------------------

    def allocate_magnetic(self) -> int:
        return self.magnetic.allocate()

    def allocate_optical(self) -> int:
        return self.optical.allocate() + OPTICAL_BASE

    def allocate_write(self, data: bytes) -> int:
        """A block written at birth — a version page or the file table —
        lives on the rewritable magnetic pair."""
        return self.magnetic.allocate_write(data)

    # -- the common verb set ---------------------------------------------------

    def write(self, block: int, data: bytes) -> None:
        client, local = self._route(block)
        client.write(local, data)

    def write_many(
        self, writes: list[tuple[int, bytes]], swaps: list[Swap] = ()
    ) -> list[TasResult]:
        """Batch-write across both media: one batched transaction per pair
        (the commit flush groups by device exactly as it groups by shard).
        The optical batch goes first: the commit's ``swaps`` set commit
        references in version pages, which live on the magnetic pair, and
        a reference may not be durable before the pages it publishes."""
        magnetic: list[tuple[int, bytes]] = []
        optical: list[tuple[int, bytes]] = []
        for block, data in writes:
            if self.is_optical(block):
                optical.append((block - OPTICAL_BASE, data))
            else:
                magnetic.append((block, data))
        if any(self.is_optical(swap[0]) for swap in swaps):
            raise ValueError("a test-and-set rewrites in place: magnetic blocks only")
        self.optical.write_many(optical)
        return self.magnetic.write_many(magnetic, swaps)

    def read(self, block: int) -> bytes:
        client, local = self._route(block)
        return client.read(local)

    def free(self, block: int) -> None:
        if self.is_optical(block):
            # Write-once media cannot be reclaimed; account the loss.
            self.optical_dead += 1
            return
        self.magnetic.free(block)

    def test_and_set(
        self, block: int, offset: int, expected: bytes, new: bytes
    ) -> TasResult:
        client, local = self._route(block)
        return client.test_and_set(local, offset, expected, new)

    def recover(self) -> list[int]:
        blocks = list(self.magnetic.recover())
        blocks += [n + OPTICAL_BASE for n in self.optical.recover()]
        return blocks
