"""Message schemas: the one shape check between the wire and a handler.

Any message may come from a Byzantine party (paper Sec. 3).  Each
protocol that receives messages declares ``MESSAGES = {mtype: spec}``,
and the router checks every decoded payload against its spec before the
handler runs; an encoding a handler decodes later (a VCBC closing, an
agreed batch) goes through the same :func:`conforms`.  A spec is a type
(an instance of it), ``None``, a tuple of specs (a tuple of that length,
item by item), a set of literals such as ``{0, 1}`` (one of them), or a
:class:`Seq`, :class:`OneOf` or :class:`Range`.  A spec only checks: the
handler receives exactly what was decoded.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any


@dataclass(frozen=True)
class Seq:
    """A list of ``lo`` to ``hi`` items, each conforming to ``item``."""

    item: Any
    lo: int = 0
    hi: float = math.inf


@dataclass(frozen=True)
class Range:
    """An integer from ``lo`` up."""

    lo: int


class OneOf:
    """A value conforming to any of ``specs``."""

    def __init__(self, *specs: Any) -> None:
        self.specs = specs


def conforms(value: Any, spec: Any) -> bool:
    """Whether the decoded ``value`` has the shape ``spec`` declares."""
    # cheap and frequent forms first
    if spec is None:
        return value is None
    if isinstance(spec, type):
        return isinstance(value, spec)
    if isinstance(spec, tuple):
        return (
            isinstance(value, tuple)
            and len(value) == len(spec)
            and all(map(conforms, value, spec))
        )
    if isinstance(spec, Range):
        return isinstance(value, int) and value >= spec.lo
    if isinstance(spec, set):
        return isinstance(value, (int, str)) and value in spec
    if isinstance(spec, Seq):
        return (
            isinstance(value, list)
            and spec.lo <= len(value) <= spec.hi
            and all(map(conforms, value, repeat(spec.item)))
        )
    if isinstance(spec, OneOf):
        return any(map(conforms, repeat(value), spec.specs))
    raise TypeError(f"not a message spec: {spec!r}")
