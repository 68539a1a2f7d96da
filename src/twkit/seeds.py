"""Deterministic seed derivation.

Every stage, tree, or per-feature stream gets its own generator seeded from
(master seed, label), so the streams are independent of one another and
parallel or serial execution produce identical results.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, label: str | int) -> int:
    """Derive a 63-bit child seed from a master seed and a stream label."""
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
