"""Accounting of public-key operations for the simulated CPU cost model.

The paper's measurements are dominated by two resources: network round trips
and modular exponentiations (the ``exp`` column of its hardware tables).
The network simulator reproduces the former directly; for the latter, every
modular exponentiation performed by the crypto layer is recorded here while
a counter is active, and ``repro.net.costmodel`` converts the recorded work
into simulated CPU milliseconds.

The cost unit of one exponentiation is ``modbits**2 * expbits``: schoolbook
modular multiplication is quadratic in the modulus size and square-and-
multiply is linear in the exponent size, which matches the paper's remark
that public-key operations are quadratic (modular multiplication) to cubic
(full-size exponentiation) in the key size.

Every exponentiation is :func:`repro.crypto.arith.mexp`, and each check
bills its full work.  A party's :class:`~repro.crypto.verifier.ShareVerifier`
runs a check once per distinct input and bills each repeat through
:func:`replay`, so a remembered verdict costs the model exactly what the
check did.
"""

from __future__ import annotations

from typing import List, Optional


class OpCounter:
    """Accumulates modular-exponentiation work.

    Work is kept in two buckets so the cost model can rescale a run
    executed with small *actual* keys to the *nominal* key size of an
    experiment: full-size exponents (``expbits >= modbits/2``, e.g. RSA
    private-key operations) grow cubically with the key size, short fixed
    exponents (e.g. 160-bit discrete-log exponents, small RSA public
    exponents) only quadratically.

    Attributes:
        ops: number of exponentiations performed.
        units_full: work of full-exponent ops (``modbits**2 * expbits``).
        units_short: work of short-exponent ops.
    """

    __slots__ = ("ops", "units_full", "units_short")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> "OpCounter":
        self.ops = 0
        self.units_full = 0
        self.units_short = 0
        return self

    def add(self, modbits: int, expbits: int) -> None:
        self.ops += 1
        work = modbits * modbits * max(expbits, 1)
        if 2 * expbits >= modbits:
            self.units_full += work
        else:
            self.units_short += work

    @property
    def units(self) -> int:
        """Total unscaled work actually performed."""
        return self.units_full + self.units_short

    def scaled_units(self, ratio: float) -> float:
        """Work rescaled to a key size ``ratio`` times the actual one."""
        return ratio ** 3 * self.units_full + ratio ** 2 * self.units_short

    def as_dict(self) -> dict:
        """Serializable view (used by the benchmark export pipeline)."""
        return {
            "ops": self.ops,
            "units_full": self.units_full,
            "units_short": self.units_short,
        }


_stack: List[OpCounter] = []


def push(counter: Optional[OpCounter] = None) -> OpCounter:
    """Activate ``counter`` (or a fresh one) for subsequent crypto work."""
    counter = counter if counter is not None else OpCounter()
    _stack.append(counter)
    return counter


def pop() -> OpCounter:
    """Deactivate and return the innermost active counter."""
    return _stack.pop()


def record(modbits: int, expbits: int) -> None:
    """Record one modular exponentiation on the active counter, if any."""
    if _stack:
        _stack[-1].add(modbits, expbits)


def replay(bill: OpCounter) -> None:
    """Record the work of ``bill`` again on the active counter, if any."""
    if _stack:
        counter = _stack[-1]
        counter.ops += bill.ops
        counter.units_full += bill.units_full
        counter.units_short += bill.units_short


def active() -> Optional[OpCounter]:
    """The currently active counter, or ``None``."""
    return _stack[-1] if _stack else None


def charge(recorder, counter: OpCounter, prefix: str = "crypto") -> None:
    """Charge a handler's recorded crypto work to an observability recorder.

    Feeds the unified counter registry of :mod:`repro.obs`: total
    exponentiations and work units, split by the full/short exponent
    buckets the cost model scales differently.  Call sites guard on
    ``recorder.enabled``; the call is also a no-op for empty counters.
    """
    if counter.ops:
        recorder.count(prefix + ".modexp", counter.ops)
        recorder.count(prefix + ".units_full", counter.units_full)
        recorder.count(prefix + ".units_short", counter.units_short)


class counting:
    """Context manager: ``with counting() as c: ... ; c.units``."""

    def __init__(self) -> None:
        self.counter = OpCounter()

    def __enter__(self) -> OpCounter:
        push(self.counter)
        return self.counter

    def __exit__(self, *exc: object) -> None:
        pop()
