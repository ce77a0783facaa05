"""Merge policies: the hook ``occ.serialise`` consults on a W/W overlap.

A policy is anything with a ``name`` and a
``merge(base, ours, theirs) -> bytes`` method that raises
:class:`repro.errors.MergeConflict` when the pages cannot be reconciled.
``FileService`` carries one policy instance (``merge_policy``); setting
it to ``None`` turns semantic merging off entirely — the configuration
the contention benchmark uses for its merge-off passes.
"""

from __future__ import annotations

from repro.merge.orset import merge_tables


class ORSetMergePolicy:
    """Observed-remove-set merge of directory entry tables."""

    name = "or-set"

    def merge(self, base: bytes, ours: bytes, theirs: bytes) -> bytes:
        return merge_tables(base, ours, theirs)


DEFAULT_MERGE_POLICY = ORSetMergePolicy()
