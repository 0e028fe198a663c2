"""Seed derivation: every random stream from one root seed.

The simulator, the fault plan, the schedule fuzzer and each faulty
party's intrusion strategy need their own :class:`random.Random` stream
— sharing one would make every component's draws depend on every other
component's call order, so adding or removing a fault directive would
perturb unrelated latency samples and a shrunk counterexample would stop
reproducing.  Instead all streams are *derived*: a root seed plus a label
path determines each stream independently and deterministically.

``derive(seed, "faults")`` and ``derive(seed, "strategy", 3)`` are
independent streams, both reproducible from ``seed`` alone.
"""

from __future__ import annotations

import hashlib
import os
import random


def _material(seed: object, labels: tuple) -> bytes:
    return hashlib.sha256(repr(("repro.rng", seed) + labels).encode()).digest()


def derive(seed: object, *labels: object) -> random.Random:
    """A deterministic RNG derived from ``seed`` and a label path."""
    return random.Random(_material(seed, labels))


def derive_int(seed: object, *labels: object) -> int:
    """A 64-bit integer derived from ``seed`` and a label path.

    Used to give every fuzz case its own root seed that is printable in a
    repro line and feeds :func:`derive` for the case's sub-streams.
    """
    return int.from_bytes(_material(seed, labels)[:8], "big")


def fresh() -> random.Random:
    """An explicitly non-deterministic RNG (OS entropy).

    The only sanctioned way to get non-reproducible randomness in this
    package: call sites that need real entropy (e.g. encrypting on behalf
    of an external client) use this instead of silently constructing an
    unseeded ``random.Random``, so reproducibility boundaries are visible
    in the code.
    """
    return random.Random(os.urandom(32))


def parse_seed(text: str) -> int:
    """Parse a user-supplied seed string into an integer.

    Accepts decimal and ``0x``/``0o``/``0b`` integers; any other string
    (e.g. ``0xS1NTRA``, a branch name, a date) is hashed into a 64-bit
    seed, so every CLI input is a valid seed.
    """
    try:
        return int(text, 0)
    except ValueError:
        return derive_int("seed-string", text)
