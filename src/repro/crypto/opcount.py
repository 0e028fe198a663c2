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

Fixed-base table exponentiations (``repro.crypto.fastexp``) are accounted
separately: they charge the *multiplications actually performed*
(``modbits**2 * mults``) into the batched buckets.  A verification answered
from a party's verdict cache performs no work and records nothing.
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
        ops: number of naive exponentiations performed.
        units_full: work of full-exponent ops (``modbits**2 * expbits``).
        units_short: work of short-exponent ops.
        ops_fast: fixed-base table exponentiations performed.
        batched_full: multiplication work of table exponentiations whose
            exponent was full-size (scales cubically).
        batched_short: ditto for short exponents, plus table construction
            (quadratic).
    """

    __slots__ = (
        "ops",
        "units_full",
        "units_short",
        "ops_fast",
        "batched_full",
        "batched_short",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> "OpCounter":
        self.ops = 0
        self.units_full = 0
        self.units_short = 0
        self.ops_fast = 0
        self.batched_full = 0
        self.batched_short = 0
        return self

    def add(self, modbits: int, expbits: int) -> None:
        self.ops += 1
        work = modbits * modbits * max(expbits, 1)
        if 2 * expbits >= modbits:
            self.units_full += work
        else:
            self.units_short += work

    def add_fast(self, modbits: int, expbits: int, mults: int) -> None:
        """One table exponentiation: ``mults`` modular multiplications
        standing in for a naive ``(modbits, expbits)`` exponentiation."""
        self.ops_fast += 1
        work = modbits * modbits * max(mults, 1)
        if 2 * expbits >= modbits:
            self.batched_full += work
        else:
            self.batched_short += work

    def add_precompute(self, modbits: int, mults: int) -> None:
        """Table-build cost: pure accelerator overhead."""
        self.batched_short += modbits * modbits * max(mults, 1)

    @property
    def units(self) -> int:
        """Total unscaled work actually performed."""
        return self.units_full + self.units_short + self.units_batched

    @property
    def units_batched(self) -> int:
        """Work of the accelerated operations (multiplications performed)."""
        return self.batched_full + self.batched_short

    def scaled_units(self, ratio: float) -> float:
        """Work rescaled to a key size ``ratio`` times the actual one."""
        return ratio ** 3 * (self.units_full + self.batched_full) + ratio ** 2 * (
            self.units_short + self.batched_short
        )

    def as_dict(self) -> dict:
        """Serializable view (used by the benchmark export pipeline)."""
        out = {
            "ops": self.ops,
            "units_full": self.units_full,
            "units_short": self.units_short,
        }
        if self.ops_fast or self.units_batched:
            out["ops_fast"] = self.ops_fast
            out["units_batched"] = self.units_batched
        return out


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


def record_fast(modbits: int, expbits: int, mults: int) -> None:
    """Record one table exponentiation on the active counter."""
    if _stack:
        _stack[-1].add_fast(modbits, expbits, mults)


def record_precompute(modbits: int, mults: int) -> None:
    """Record fixed-base table construction work on the active counter."""
    if _stack:
        _stack[-1].add_precompute(modbits, mults)


def active() -> Optional[OpCounter]:
    """The currently active counter, or ``None``."""
    return _stack[-1] if _stack else None


def charge(recorder, counter: OpCounter, prefix: str = "crypto") -> None:
    """Charge a handler's recorded crypto work to an observability recorder.

    Feeds the unified counter registry of :mod:`repro.obs`: total
    exponentiations and work units, split by the full/short exponent
    buckets the cost model scales differently.  Call sites guard on
    ``recorder.enabled``; the call is also a no-op for empty counters.
    The table counters (``modexp_fast``, ``units_batched``) appear only
    while acceleration is on, so the counter set of an unaccelerated run
    is unchanged.
    """
    from repro.crypto import fastexp  # fastexp imports this module

    if counter.ops:
        recorder.count(prefix + ".modexp", counter.ops)
        recorder.count(prefix + ".units_full", counter.units_full)
        recorder.count(prefix + ".units_short", counter.units_short)
    if fastexp.enabled() and (counter.ops or counter.units_batched):
        recorder.count(prefix + ".modexp_fast", counter.ops_fast)
        recorder.count(prefix + ".units_batched", counter.units_batched)


class counting:
    """Context manager: ``with counting() as c: ... ; c.units``."""

    def __init__(self) -> None:
        self.counter = OpCounter()

    def __enter__(self) -> OpCounter:
        push(self.counter)
        return self.counter

    def __exit__(self, *exc: object) -> None:
        pop()
