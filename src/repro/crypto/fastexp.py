"""The crypto acceleration switch: on, each party keeps a verdict cache.

With the switch **off** (the default) every verification is a plain scheme
call: the paper's naive operation mix, which is what
:class:`repro.net.costmodel.CostModel` is calibrated against.  With it
**on**, :class:`repro.crypto.verifier.ShareVerifier` answers a share,
signature or ciphertext proof that its party has verified once from a
bounded per-party cache; a hit performs and records no exponentiation.
The switch changes how often a check runs, never what one check bills:
every exponentiation, on or off, is :func:`repro.crypto.arith.mexp`.
docs/PERFORMANCE.md records why the verdict cache is the one technique
left (ROADMAP item 11 removes the switch itself).
"""

from __future__ import annotations

_enabled = False


def enabled() -> bool:
    """Is acceleration on?"""
    return _enabled


class accelerated:
    """Context manager scoping the acceleration switch to a block.

    ``with fastexp.accelerated(): ...`` turns it on (``accelerated(False)``
    forces it off) and restores the previous setting on exit.
    """

    def __init__(self, on: bool = True):
        self.on = on
        self._prev = False

    def __enter__(self) -> bool:
        global _enabled
        self._prev = _enabled
        _enabled = self.on
        return self.on

    def __exit__(self, *exc: object) -> None:
        global _enabled
        _enabled = self._prev


def clear_tables() -> None:
    """No-op: ``bench/`` still calls it; ROADMAP item 12 removes the call,
    then this function."""


__all__ = ["accelerated", "clear_tables", "enabled"]
