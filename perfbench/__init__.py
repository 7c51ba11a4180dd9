"""End-to-end and per-layer benchmark of the nlostrack pipeline (see README.md)."""
