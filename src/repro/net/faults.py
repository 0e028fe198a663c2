"""Fault and adversary injection.

SINTRA's model lets up to ``t`` parties behave arbitrarily while the
network scheduler may delay messages indefinitely (but honest links are
reliable, so messages are never *dropped* between honest parties).  Two
kinds of adversaries are provided:

* :class:`NetworkAdversary` — controls the asynchronous scheduler: extra
  per-link delays, targeted slow-down of victims, partitions that heal at
  a chosen time.  These never violate reliability, only timeliness.

* Party-level faults — :class:`CrashFault` silences a party from a chosen
  time; Byzantine *protocol* behaviours (equivocation, bogus shares, wrong
  votes) are implemented as malicious protocol subclasses next to the
  protocols they attack (see ``repro.core``'s tests), since they need the
  protocol's own message vocabulary.  A seeded case's Byzantine parties
  (blind corruption and replay of their own messages included) run an
  intrusion strategy from :mod:`repro.adversary.strategies`.

Determinism: adversaries never own an RNG.  Every ``extra_delay`` call
receives the runtime's dedicated fault stream (``SimRuntime.fault_rng``,
derived from the root seed), so an adversarial run is reproducible from a
single integer and fault draws never perturb latency sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple


class NetworkAdversary:
    """Scheduler adversary: may add finite delay to any message.

    The base class is benign (no interference); subclasses override
    :meth:`extra_delay`.
    """

    def extra_delay(
        self, src: int, dst: int, nbytes: int, now: float, rng: random.Random
    ) -> float:
        """Additional one-way delay (seconds) for this message."""
        return 0.0


@dataclass
class SlowLinkAdversary(NetworkAdversary):
    """Adds a fixed delay to specific directed links."""

    delays: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def extra_delay(self, src, dst, nbytes, now, rng):
        return self.delays.get((src, dst), 0.0)


@dataclass
class TargetedDelayAdversary(NetworkAdversary):
    """Delays all traffic to/from a set of victims by a random amount.

    Models an adversarial scheduler trying to starve chosen honest parties
    — the randomized protocols must still terminate.
    """

    victims: Set[int] = field(default_factory=set)
    min_delay: float = 0.0
    max_delay: float = 1.0

    def extra_delay(self, src, dst, nbytes, now, rng):
        if src in self.victims or dst in self.victims:
            return rng.uniform(self.min_delay, self.max_delay)
        return 0.0


@dataclass
class HealingPartitionAdversary(NetworkAdversary):
    """Separates two groups until ``heal_at``; traffic across the cut is
    delayed so that it arrives only after the partition heals.

    A *permanent* partition would violate the asynchronous model's
    reliability assumption, so the partition must heal.
    """

    group_a: Set[int] = field(default_factory=set)
    heal_at: float = 5.0

    def extra_delay(self, src, dst, nbytes, now, rng):
        crosses = (src in self.group_a) != (dst in self.group_a)
        if crosses and now < self.heal_at:
            return (self.heal_at - now) + rng.uniform(0.0, 0.05)
        return 0.0


@dataclass
class DelaySpikeAdversary(NetworkAdversary):
    """Randomly spikes individual messages' delays.

    Each message independently suffers an extra delay of up to
    ``max_delay`` with probability ``prob`` — the fuzzer's basic tool for
    exploring delivery orderings: per-pair FIFO is preserved (the runtime
    clamps arrivals), but cross-link interleavings are randomized.
    """

    prob: float = 0.1
    max_delay: float = 1.0

    def extra_delay(self, src, dst, nbytes, now, rng):
        if rng.random() < self.prob:
            return rng.uniform(0.0, self.max_delay)
        return 0.0


class CompositeAdversary(NetworkAdversary):
    """Combines several scheduler adversaries; their delays add up."""

    def __init__(self, adversaries: Sequence[NetworkAdversary]):
        self.adversaries = tuple(adversaries)

    def extra_delay(self, src, dst, nbytes, now, rng):
        return sum(
            a.extra_delay(src, dst, nbytes, now, rng) for a in self.adversaries
        )


@dataclass
class SocketChaosPlan:
    """Socket-level chaos for the *real* asyncio TCP runtime.

    Consumed by :class:`repro.testing.netchaos.ChaosProxy`, which sits
    between real ``TcpNode`` sockets and, per forwarded chunk, draws from
    a seeded stream to inject connection resets, stalls, truncated writes
    and byte corruption — the transport-level faults the simulator's
    adversaries cannot express.  Unlike :class:`NetworkAdversary` these
    *do* violate TCP's delivery guarantees; the resilient transport
    (supervised reconnect + sliding-window sessions) must mask them.
    """

    reset_prob: float = 0.0  # abort both directions of the connection
    stall_prob: float = 0.0  # pause this direction for ``stall_s``
    stall_s: float = 0.02
    corrupt_prob: float = 0.0  # flip one bit of the chunk
    truncate_prob: float = 0.0  # forward a prefix, then abort


@dataclass
class ProcessFault:
    """Full process kill/restart of one replica (crash-recovery model).

    Unlike :class:`CrashFault` — which silences a party forever, as in the
    paper's static model — a process fault destroys the victim's entire
    in-memory state (protocol instances, state machine, sockets) and later
    restarts it from durable storage plus peer state transfer
    (``repro.recovery``).  Consumed by
    :class:`repro.testing.netchaos.ReplicaProcess.execute`, which kills
    the victim ``kill_after_s`` seconds in, keeps it down for
    ``downtime_s``, then restarts and recovers it.  With ``wipe_disk`` the
    durable directory is destroyed too, so recovery runs purely from
    peers.
    """

    victim: int
    kill_after_s: float = 1.0
    downtime_s: float = 0.25
    wipe_disk: bool = False


@dataclass
class CrashFault:
    """Party ``victim`` stops sending anything at ``crash_at`` seconds.

    Applied at the network layer: the paper's model recovers crashed
    servers only by mechanisms outside SINTRA, so a crash is simply an
    eternally-silent party.
    """

    victim: int
    crash_at: float = 0.0

    def is_silenced(self, src: int, now: float) -> bool:
        return src == self.victim and now >= self.crash_at


class FaultPlan:
    """Aggregates adversaries and crash faults for one simulation run."""

    def __init__(
        self,
        adversary: Optional[NetworkAdversary] = None,
        crashes: Optional[Tuple[CrashFault, ...]] = None,
    ):
        self.adversary = adversary or NetworkAdversary()
        self.crashes = tuple(crashes or ())

    def drops(self, src: int, now: float) -> bool:
        return any(c.is_silenced(src, now) for c in self.crashes)

    def extra_delay(self, src, dst, nbytes, now, rng) -> float:
        return self.adversary.extra_delay(src, dst, nbytes, now, rng)
