"""The observed-remove-set merge over directory entry tables.

A directory page's data is a sorted ``name → packed capability`` table
(:mod:`repro.apps.directory` writes it with :func:`encode_entries`: a
``>I`` entry count, then per entry a ``>H22s`` head — name length and
the 22-byte packed capability — followed by the utf-8 name).  This module decodes two
concurrent rewrites of such a table plus their common base, merges them
entry-wise, and re-encodes — treating the capability bytes as opaque
values, so it depends on nothing above the struct layer.

Three-way entry rules (``base`` is the table both sides started from):

======================  ======================  =========================
ours                    theirs                  merged
======================  ======================  =========================
unchanged               unchanged               base value
changed (add/mod/del)   unchanged               ours
unchanged               changed                 theirs
changed                 identically changed     the shared value
changed                 differently changed     :class:`MergeConflict`
======================  ======================  =========================

"Changed" covers addition (absent in base), modification (present with a
different value) and removal (present in base, absent now); a removal
only removes the binding it *observed*, which is what makes the set an
observed-remove set: a concurrent rename (remove ``a`` + add ``b``)
survives a concurrent remove of ``a`` — ``a`` goes, ``b`` stays.

The merge is commutative (swapping ours/theirs changes nothing, including
which cases conflict), idempotent (``merge(base, x, x) == x``) and
deterministic (entries re-encoded in sorted name order) — all three
property-checked by hypothesis in ``tests/test_merge_orset.py``.
"""

from __future__ import annotations

import struct

from repro.errors import MergeConflict

_COUNT = struct.Struct(">I")
_ENTRY_HEAD = struct.Struct(">H22s")  # name length, packed capability


def decode_entries(raw: bytes) -> dict[str, bytes]:
    """Decode an entry table to ``name → packed capability bytes``.

    Raises :class:`MergeConflict` when the bytes are not a well-formed
    table — an opaque page must never be merged as if it were one.
    """
    if not raw:
        return {}
    try:
        (count,) = _COUNT.unpack_from(raw, 0)
        offset = _COUNT.size
        entries: dict[str, bytes] = {}
        for _ in range(count):
            name_len, packed = _ENTRY_HEAD.unpack_from(raw, offset)
            offset += _ENTRY_HEAD.size
            if offset + name_len > len(raw):
                raise MergeConflict("entry table truncated")
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            entries[name] = packed
        if offset != len(raw):
            raise MergeConflict(
                f"entry table has {len(raw) - offset} trailing bytes"
            )
    except MergeConflict:
        raise
    except (struct.error, UnicodeDecodeError) as exc:
        raise MergeConflict(f"page data is not an entry table: {exc}") from exc
    return entries


def encode_entries(entries: dict[str, bytes]) -> bytes:
    """Encode a table in canonical (sorted-name) order; directories
    (:mod:`repro.apps.directory`) write their pages with it too."""
    body = _COUNT.pack(len(entries))
    for name in sorted(entries):
        encoded = name.encode("utf-8")
        body += _ENTRY_HEAD.pack(len(encoded), entries[name]) + encoded
    return body


def merge_entries(
    base: dict[str, bytes],
    ours: dict[str, bytes],
    theirs: dict[str, bytes],
) -> dict[str, bytes]:
    """Three-way observed-remove-set merge of decoded entry tables."""
    merged: dict[str, bytes] = {}
    for name in set(base) | set(ours) | set(theirs):
        base_value = base.get(name)
        our_value = ours.get(name)
        their_value = theirs.get(name)
        if our_value == their_value:
            value = our_value  # agreement — including both-removed
        elif their_value == base_value:
            value = our_value  # only we changed it
        elif our_value == base_value:
            value = their_value  # only they changed it
        elif our_value is None or their_value is None:
            raise MergeConflict(f"entry {name!r} concurrently rebound and removed")
        else:
            raise MergeConflict(
                f"entry {name!r} concurrently bound to different targets"
            )
        if value is not None:
            merged[name] = value
    return merged


def merge_tables(base: bytes, ours: bytes, theirs: bytes) -> bytes:
    """Three-way merge of encoded entry tables; the policy entry point.

    Raises :class:`MergeConflict` on same-entry divergence or when any of
    the three byte strings is not a well-formed table.
    """
    return encode_entries(
        merge_entries(
            decode_entries(base), decode_entries(ours), decode_entries(theirs)
        )
    )
