"""A set of ``(origin, seq)`` keys held as runs of sequence numbers.

An origin numbers its payloads 0, 1, 2, ... and the atomic channel
delivers almost all of them in that order, so what has been delivered is,
per origin, a handful of disjoint maximal runs ``[lo, hi)`` — usually one
— however long the history is.  :class:`Runs` is that and nothing more:
membership, insertion and a count, all in O(runs of one origin); a
canonical form ``[(origin, lo, hi), ...]`` whose size does not grow with
the number of keys; and nothing that expands runs back into keys.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Tuple


class Runs:
    """Mutable set of ``(origin, seq)`` integer pairs, ``seq >= 0``."""

    __slots__ = ("_runs", "_count")

    def __init__(self, keys: Any = ()):
        #: origin -> its runs, flat and strictly increasing:
        #: ``[lo0, hi0, lo1, hi1, ...]`` with ``hi_k < lo_k+1``
        self._runs: Dict[int, List[int]] = {}
        self._count = 0
        for origin, seq in keys:
            self.add(origin, seq)

    def add(self, origin: int, seq: int) -> bool:
        """Insert a key; ``False`` (and no change) when it was present."""
        # ``True == 1`` passes every ``isinstance(x, int)`` shape check on
        # the way here; held as given it would reach :meth:`canonical`, and
        # :meth:`parse` refuses a bool.
        origin, seq = int(origin), int(seq)
        flat = self._runs.get(origin)
        if flat is None:
            flat = self._runs[origin] = []
        i = bisect_right(flat, seq)
        if i & 1:
            return False  # lo <= seq < hi of the run ending at flat[i]
        # seq sits in the gap before flat[i]: grow a neighbour or start a run
        joins_left = i > 0 and flat[i - 1] == seq
        joins_right = i < len(flat) and flat[i] == seq + 1
        if joins_left and joins_right:
            del flat[i - 1:i + 1]
        elif joins_left:
            flat[i - 1] = seq + 1
        elif joins_right:
            flat[i] = seq
        else:
            flat[i:i] = (seq, seq + 1)
        self._count += 1
        return True

    def __contains__(self, key: Tuple[int, int]) -> bool:
        flat = self._runs.get(key[0])
        return flat is not None and bool(bisect_right(flat, key[1]) & 1)

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Runs):
            return NotImplemented
        return self._runs == other._runs  # no origin maps to an empty list

    def __repr__(self) -> str:
        return f"Runs.parse({self.canonical()!r})"

    def copy(self) -> "Runs":
        other = Runs()
        other._runs = {origin: list(flat) for origin, flat in self._runs.items()}
        other._count = self._count
        return other

    def next_seq(self, origin: int) -> int:
        """One past the highest sequence number held for ``origin``."""
        flat = self._runs.get(origin)
        return flat[-1] if flat else 0

    def canonical(self) -> List[Tuple[int, int, int]]:
        """``[(origin, lo, hi), ...]`` sorted by ``(origin, lo)``: the one
        encoding of this set (runs are disjoint and maximal)."""
        return [
            (origin, flat[k], flat[k + 1])
            for origin, flat in sorted(self._runs.items())
            for k in range(0, len(flat), 2)
        ]

    @classmethod
    def parse(cls, triples: Any) -> "Runs":
        """The inverse of :meth:`canonical` for untrusted input: accepts
        the canonical form of a set and nothing else, in O(runs).

        Raises ``ValueError`` naming the first defect.
        """
        if not isinstance(triples, list):
            raise ValueError("runs must be a list")
        out = cls()
        last = None  # the previous run
        for triple in triples:
            if not (isinstance(triple, tuple) and len(triple) == 3
                    and all(type(x) is int for x in triple)):
                raise ValueError("run must be a triple of ints")
            origin, lo, hi = triple
            if lo < 0:
                raise ValueError("run starts below zero")
            if lo >= hi:
                raise ValueError("run is empty or reversed")
            if last is None or origin > last[0]:
                out._runs[origin] = []
            elif origin < last[0] or lo < last[1]:
                raise ValueError("runs unsorted")
            elif lo < last[2]:
                raise ValueError("runs overlap")
            elif lo == last[2]:
                raise ValueError("runs adjacent")
            out._runs[origin] += (lo, hi)
            out._count += hi - lo
            last = triple
        return out
