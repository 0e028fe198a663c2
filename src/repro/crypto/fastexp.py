"""Nothing is left here but :func:`clear_tables`, a no-op.

Every exponentiation is :func:`repro.crypto.arith.mexp`, and every
verification is its scheme call; docs/PERFORMANCE.md records the
fixed-base tables and the verdict cache that once lived behind this
module's acceleration switch, and why both went.
"""

from __future__ import annotations


def clear_tables() -> None:
    """No-op: ``bench/`` still calls it; ROADMAP item 12 removes the call,
    then this function."""


__all__ = ["clear_tables"]
