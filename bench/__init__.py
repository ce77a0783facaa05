"""Cross-process end-to-end benchmark and per-layer ledger (see README.md)."""
