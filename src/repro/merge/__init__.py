"""Semantic merging of concurrent directory-page updates.

The paper's ``serialise`` merges concurrent updates that touched
*different* pages and aborts on any genuine overlap — which makes OCC
weakest exactly where traffic concentrates: hot directories, where every
update rewrites the same entry table.  *File system on CRDT*
(Ahmed-Nacer, Martin & Urso; see PAPERS.md) points at the fix: a
directory is not an opaque byte string but a *set* of name bindings, and
concurrent adds/removes of **distinct** names commute.  This package
implements that observed-remove-set merge as a pluggable policy that
``occ.serialise`` consults when both versions rewrote a page typed
``mergeable`` (a per-page header flag set at file creation).

The strictness boundary, precisely:

* distinct-entry add/add, add/remove, remove/remove — merged;
* same-entry add/add with the *same* target — merged (idempotent);
* same-entry add/add with different targets, modify-vs-remove,
  modify-vs-modify — :class:`repro.errors.MergeConflict` (the commit
  aborts exactly as before);
* anything that fails to decode as an entry table — conflict;
* pages not flagged mergeable, and the reference channel (M/S flags) —
  never merged; byte-level conflicts stay strict.

The merge is deterministic and order-independent — commutativity and
idempotence are property-checked by hypothesis in
``tests/test_merge_orset.py`` — so every replica that folds the same
commit chain reaches the same table, and the history checker
(:mod:`repro.verify.history`) can replay merged commits exactly.

See docs/MERGING.md for the full rules and measured abort-rate curves.
"""

from repro.merge.orset import (
    decode_entries,
    encode_entries,
    merge_entries,
    merge_tables,
)
from repro.merge.policy import DEFAULT_MERGE_POLICY, ORSetMergePolicy

__all__ = [
    "DEFAULT_MERGE_POLICY",
    "ORSetMergePolicy",
    "decode_entries",
    "encode_entries",
    "merge_entries",
    "merge_tables",
]
