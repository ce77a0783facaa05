"""Hypothesis properties for the epoch-1 placement arithmetic
(``PlacementMap.initial``: ``stride`` block numbers per shard, in order).

The placement map is the one piece of the sharded deployment that every
participant — clients, servers, the allocator, fsck — must agree on, and
it is pure arithmetic, so it gets property coverage: every global block
number lands on exactly one shard (total coverage, no overlap), the
global/local split round-trips, and placement of existing blocks is
*stable* when a deployment is rebuilt with more shards (growing a
deployment must not strand data on the wrong pair).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.sharding import PlacementMap
from repro.errors import UnknownShard

shard_counts = st.integers(min_value=1, max_value=64)
strides = st.integers(min_value=1, max_value=10_000)


def initial_map(shards: int, stride: int) -> PlacementMap:
    return PlacementMap.initial(list(range(0x100, 0x100 + shards)), stride)


@st.composite
def map_and_block(draw):
    """(epoch-1 map, shards, stride, a global block number inside it)."""
    shards = draw(shard_counts)
    stride = draw(strides)
    block = draw(st.integers(min_value=1, max_value=shards * stride))
    return initial_map(shards, stride), shards, stride, block


@given(map_and_block())
def test_every_block_lands_on_exactly_one_shard(case):
    """Total coverage without overlap: index_of is a function defined on
    the whole 1..shards*stride range, and its preimages partition it."""
    shard_map, shards, stride, block = case
    shard = shard_map.index_of(block)
    assert 0 <= shard < shards
    # The shard's own range contains the block — and no other shard's
    # range does, because the ranges are disjoint by construction.
    low = shard * stride + 1
    high = (shard + 1) * stride
    assert low <= block <= high
    assert [block in r for r in shard_map.ranges].count(True) == 1


@given(map_and_block())
def test_global_local_round_trip(case):
    shard_map, _, stride, block = case
    shard = shard_map.index_of(block)
    local = shard_map.local_of(block)
    assert 1 <= local <= stride
    assert shard_map.ranges[shard].global_of(local) == block


@given(
    shards=shard_counts,
    stride=strides,
    local=st.integers(min_value=1, max_value=10_000),
)
def test_local_global_round_trip(shards, stride, local):
    """The other direction: splicing a valid local number into the global
    namespace and mapping back recovers both coordinates."""
    shard_map = initial_map(shards, stride)
    if local > stride:
        with pytest.raises(ValueError):
            shard_map.ranges[0].global_of(local)
        return
    for shard in {0, shards - 1}:
        block = shard_map.ranges[shard].global_of(local)
        assert shard_map.index_of(block) == shard
        assert shard_map.local_of(block) == local


@given(case=map_and_block(), extra=st.integers(min_value=1, max_value=64))
def test_placement_is_stable_when_shards_are_added(case, extra):
    """Growth stability: a map with more shards (same stride) places
    every pre-existing block exactly where the smaller map did, so a
    deployment can add pairs without moving a single page."""
    shard_map, shards, stride, block = case
    grown = initial_map(shards + extra, stride)
    assert grown.index_of(block) == shard_map.index_of(block)
    assert grown.local_of(block) == shard_map.local_of(block)


@given(map_and_block())
@settings(max_examples=30)
def test_shard_of_agrees_with_exhaustive_range_walk(case):
    """index_of against the ground truth on the block's neighbourhood:
    walking the range boundaries around the block never skips or doubles
    a number."""
    shard_map, shards, stride, block = case
    shard = shard_map.index_of(block)
    boundary = shard * stride  # last block of the previous shard
    if boundary >= 1:
        assert shard_map.index_of(boundary) == shard - 1
    next_boundary = (shard + 1) * stride
    if next_boundary < shards * stride:
        assert shard_map.index_of(next_boundary + 1) == shard + 1


@given(shards=shard_counts, stride=strides)
def test_out_of_range_blocks_are_rejected(shards, stride):
    shard_map = initial_map(shards, stride)
    with pytest.raises(UnknownShard):
        shard_map.index_of(shards * stride + 1)
    with pytest.raises(UnknownShard):
        shard_map.index_of(0)
