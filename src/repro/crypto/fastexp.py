"""Crypto acceleration: one switch, two techniques.

The paper's own breakdown (Table 1 / Fig. 6) and our counters agree that
share generation and verification — long chains of ``g^x mod p`` with a
handful of *fixed* bases — dominate end-to-end cost.  With the switch
**off** (the default) every call here degrades to
:func:`repro.crypto.arith.mexp`: the paper's naive operation mix, which is
what :class:`repro.net.costmodel.CostModel` is calibrated against.  With it
**on**, two things change (docs/PERFORMANCE.md records why only these two):

* **Fixed-base windowed precomputation** (:class:`FixedBaseTable`): for a
  base that recurs (the group generators ``g``/``g~``/``h``, per-party
  verification keys, Shoup's verifier base ``v``), a one-time table of
  ``base^(d * 2^(w*i))`` turns every later exponentiation into at most
  ``ceil(expbits / w)`` modular multiplications with **no squarings**.
  Tables live in a process-wide LRU keyed ``(base, modulus)`` — simulated
  parties share them, so a table's construction is billed once, to
  whichever handler touches the base first.

* **Verdict caching** (:mod:`repro.crypto.verifier`): a share, signature
  or ciphertext proof that a party has verified once is never verified by
  that party again.  These caches are per party.

Table exponentiations record the multiplications actually performed via
:mod:`repro.crypto.opcount`; a cache hit performs and records nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.crypto import arith, opcount

#: bits per table digit (rows of ``2**WINDOW`` entries)
WINDOW = 4
#: process-wide bound on live fixed-base tables
TABLE_CACHE = 64
#: per-party bound on cached verification verdicts
SHARE_CACHE = 4096

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


# ---------------------------------------------------------------------------
# Fixed-base windowed precomputation
# ---------------------------------------------------------------------------


class FixedBaseTable:
    """Windowed (comb) precomputation for one ``(base, modulus)`` pair.

    Row ``i`` holds ``base^(d * 2^(w*i))`` for digit ``d`` in
    ``[0, 2^w)``; an exponent is then the product of one table entry per
    radix-``2^w`` digit — no squarings at exponentiation time.  Rows are
    built lazily as larger exponents arrive; construction cost is charged
    to the active counter as precomputation work.
    """

    __slots__ = ("base", "modulus", "_rows", "_next_base")

    def __init__(self, base: int, modulus: int):
        self.base = base % modulus
        self.modulus = modulus
        self._rows: List[List[int]] = []
        self._next_base = self.base

    def _extend_to(self, blocks: int) -> None:
        m = self.modulus
        size = 1 << WINDOW
        mults = 0
        while len(self._rows) < blocks:
            row = [1] * size
            b = self._next_base
            for d in range(1, size):
                row[d] = (row[d - 1] * b) % m
                mults += 1
            self._rows.append(row)
            # base of the next block: b^(2^w) = row[2^w - 1] * b
            self._next_base = (row[size - 1] * b) % m
            mults += 1
        if mults:
            opcount.record_precompute(m.bit_length(), mults)

    def pow(self, exponent: int) -> Tuple[int, int]:
        """``base**exponent mod modulus`` and the multiplication count."""
        if exponent < 0:
            raise ValueError("fixed-base exponent must be non-negative")
        w, m = WINDOW, self.modulus
        blocks = max(1, (exponent.bit_length() + w - 1) // w)
        self._extend_to(blocks)
        mask = (1 << w) - 1
        acc = 1
        mults = 0
        i = 0
        e = exponent
        while e:
            d = e & mask
            if d:
                acc = (acc * self._rows[i][d]) % m
                mults += 1
            e >>= w
            i += 1
        return acc, mults


_tables: "OrderedDict[Tuple[int, int], FixedBaseTable]" = OrderedDict()


def table_for(base: int, modulus: int) -> FixedBaseTable:
    """The LRU-cached fixed-base table for ``(base, modulus)``."""
    key = (base, modulus)
    table = _tables.get(key)
    if table is None:
        table = FixedBaseTable(base, modulus)
        _tables[key] = table
        while len(_tables) > TABLE_CACHE:
            _tables.popitem(last=False)
    else:
        _tables.move_to_end(key)
    return table


def clear_tables() -> None:
    """Drop all precomputed tables (tests and benchmarks)."""
    _tables.clear()


def fb_pow(base: int, exponent: int, modulus: int) -> int:
    """Exponentiation with a repeated base.

    With acceleration on this goes through the windowed table and records
    the multiplications performed; otherwise it is exactly
    :func:`repro.crypto.arith.mexp`.
    """
    if not _enabled:
        return arith.mexp(base, exponent, modulus)
    result, mults = table_for(base, modulus).pow(exponent)
    opcount.record_fast(modulus.bit_length(), exponent.bit_length(), mults)
    return result


def fb_pow_neg(base: int, exponent: int, modulus: int, order: int) -> int:
    """``base^(-exponent) mod modulus`` for a base of known ``order``.

    The accelerated path exploits ``base^(-e) == base^(order - e)`` to
    reuse the base's fixed table — valid only when ``base`` lies in the
    order-``order`` subgroup, i.e. for dealt verification keys and
    generators, never for attacker-supplied elements.  The fallback is the
    naive ``invmod`` route.
    """
    if not _enabled:
        return arith.mexp(arith.invmod(base, modulus), exponent, modulus)
    result, mults = table_for(base, modulus).pow((order - exponent) % order)
    opcount.record_fast(modulus.bit_length(), exponent.bit_length(), mults)
    return result


# ---------------------------------------------------------------------------
# Bounded mapping for the per-party verdict caches
# ---------------------------------------------------------------------------


class LRU:
    """A tiny bounded mapping (insertion-refreshing LRU)."""

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: "OrderedDict[object, object]" = OrderedDict()

    def get(self, key: object) -> Optional[object]:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: object, value: object) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > max(self.maxsize, 1):
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data


__all__ = [
    "FixedBaseTable",
    "LRU",
    "SHARE_CACHE",
    "TABLE_CACHE",
    "WINDOW",
    "accelerated",
    "clear_tables",
    "enabled",
    "fb_pow",
    "fb_pow_neg",
    "table_for",
]
