"""The seeded simulator case runner for the SINTRA stack.

One integer *case seed* determines an entire adversarial run:

* a **fault plan** — random delivery-order exploration (per-message delay
  spikes), slow links, healing partitions, crash timings and the set of
  compromised parties, generated as a list of :class:`Directive` records
  by :func:`plan_from_seed`;
* the **intrusions**: each compromised party runs the real stack behind
  the seeded ``mutate`` :class:`~repro.adversary.strategies.Strategy`,
  and with ``strategy=...`` a set of replicas runs the real stack behind
  that strategy instead — a faulty party is crashed or runs one
  strategy, put in place by :func:`~repro.adversary.context.infect`;
* the protocol **workload** of a chosen :class:`Scenario` (which channel
  or agreement protocol to run and what the honest parties send).

Everything stays within the paper's model: at most ``t`` parties are
faulty — strategy adversaries spend that budget first, crashes and
compromises get the remainder (:func:`within_budget`) — honest links
remain reliable FIFO, and partitions heal.  ``allow_excess`` lifts the
bound so the test suite can show where ``t + 1`` intrusions break
agreement.  Protocol invariant checkers (:mod:`repro.testing.invariants`)
run after every delivery: a violation is a *safety* failure.  A
:class:`~repro.adversary.watchdog.LivenessWatchdog` turns a stall of the
non-faulty parties into a typed failure with a protocol-state dump; it
firing, the simulator going idle or the time limit passing is a
*liveness* failure.

Replaying is exact: :func:`run_case` with the same arguments reproduces
the run bit-for-bit, and ``keep`` restricts the fault plan to a subset of
directive indices — the representation :mod:`repro.testing.shrink`
minimizes over.  Every failure is reported as a one-line ``REPRO:``
command that replays it from the shell::

    PYTHONPATH=src python -m repro.testing.schedule \\
        --scenario atomic --n 4 --t 1 --case 0x1234abcd --keep 0,3
    PYTHONPATH=src python -m repro.testing.schedule \\
        --scenario binary --strategy doublevote --n 4 --t 1 \\
        --case 0x1234abcd --adversaries 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.adversary.context import infect
from repro.adversary.strategies import STRATEGIES
from repro.adversary.watchdog import LivenessViolation, LivenessWatchdog, sentinel_for
from repro.common import rng as rng_mod
from repro.common.encoding import encode
from repro.core.party import Party, make_parties
from repro.crypto.dealer import GroupConfig, fast_group
from repro.crypto.params import SecurityParams
from repro.net.faults import (
    CompositeAdversary,
    CrashFault,
    DelaySpikeAdversary,
    FaultPlan,
    HealingPartitionAdversary,
    NetworkAdversary,
    SlowLinkAdversary,
)
from repro.net.latency import lan_latency
from repro.net.runtime import SimRuntime
from repro.net.sim import SimError
from repro.obs.export import bench_dir_from_env, make_record, write_record
from repro.obs.recorder import MemoryRecorder, Recorder
from repro.testing.invariants import (
    AgreementInvariant,
    ConsistencyInvariant,
    InvariantSuite,
    InvariantViolation,
    LedgerInvariant,
    SecureCausalityInvariant,
    TotalOrderInvariant,
)


# --- fault plans ------------------------------------------------------------------


@dataclass(frozen=True)
class Directive:
    """One replayable element of a fault plan."""

    kind: str  # one of DIRECTIVE_PARAMS
    params: Tuple[Any, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.params}"


def _party_set(text: str) -> Tuple[int, ...]:
    return tuple(int(p) for p in text.split("+"))


#: directive kind -> the parser of each parameter, in order
DIRECTIVE_PARAMS: Dict[str, Tuple[Callable[[str], Any], ...]] = {
    "spike": (float, float),           # per-message probability, max delay (s)
    "slow-link": (int, int, float),    # src, dst, delay (s)
    "partition": (_party_set, float),  # one side, heal time (s)
    "crash": (int, float),             # victim, crash time (s)
    "compromise": (int,),              # party running the mutate strategy
}

#: the kinds that make their first parameter a faulty party
FAULTY_KINDS = frozenset({"crash", "compromise"})


def format_directive(d: Directive) -> str:
    """Render a directive as a ``--extra`` spec (``slow-link:0,1,5.0``).

    Inverse of :func:`parse_directive`; partition sides join their party
    ids with ``+`` (``partition:0+1,2.0``) so the spec stays one
    shell-safe token.
    """
    parts = [
        "+".join(map(str, p)) if isinstance(p, (tuple, list)) else str(p)
        for p in d.params
    ]
    return f"{d.kind}:{','.join(parts)}"


def parse_directive(spec: str) -> Directive:
    """Parse a ``--extra`` spec back into a :class:`Directive`."""
    kind, _, rest = spec.partition(":")
    parsers = DIRECTIVE_PARAMS.get(kind)
    if parsers is None:
        raise ValueError(
            f"unknown directive kind {kind!r} in {spec!r}; "
            f"expected one of {sorted(DIRECTIVE_PARAMS)}"
        )
    parts = rest.split(",")
    try:
        if len(parts) != len(parsers):
            raise ValueError(f"expected {len(parsers)} parameters")
        return Directive(kind, tuple(parse(p) for parse, p in zip(parsers, parts)))
    except ValueError as exc:
        raise ValueError(f"malformed directive spec {spec!r}: {exc}") from None


def plan_from_seed(case_seed: int, n: int, t: int) -> List[Directive]:
    """The deterministic fault plan of one fuzz case.

    Scheduler directives (spikes, slow links, one healing partition) are
    always in the model's envelope; crashes plus compromises never exceed
    ``t`` parties in total.
    """
    r = rng_mod.derive(case_seed, "plan")
    plan: List[Directive] = []
    for _ in range(r.randint(1, 3)):
        plan.append(Directive("spike", (
            round(r.uniform(0.05, 0.35), 3),   # per-message probability
            round(r.uniform(0.05, 1.0), 3),    # max extra delay (s)
        )))
    for _ in range(r.randint(0, 2)):
        src, dst = r.randrange(n), r.randrange(n)
        plan.append(Directive("slow-link", (src, dst, round(r.uniform(0.05, 0.5), 3))))
    if r.random() < 0.4:
        side = tuple(sorted(r.sample(range(n), r.randint(1, max(1, n // 2)))))
        plan.append(Directive("partition", (side, round(r.uniform(0.5, 3.0), 2))))
    pool = list(range(n))
    r.shuffle(pool)
    budget = t
    crashes = r.randint(0, budget)
    for _ in range(crashes):
        plan.append(Directive("crash", (pool.pop(), round(r.uniform(0.0, 2.0), 2))))
    budget -= crashes
    for _ in range(r.randint(0, budget)):
        plan.append(Directive("compromise", (pool.pop(),)))
    return plan


def within_budget(
    plan: Sequence[Directive], keep: Iterable[int], pinned: Set[int], t: int
) -> List[int]:
    """The indices of ``keep`` whose directives fit the fault budget ``t``.

    ``pinned`` — the strategy adversaries and the victims of ``extra``
    directives — spend the budget first.  A seed-plan crash or compromise
    is dropped when it names a party that is already faulty or would make
    more than ``t`` parties faulty; scheduler directives always fit.
    Indices are never renumbered, so a ``--keep`` list means the same
    directives whatever the adversary set.
    """
    faulty = set(pinned)
    kept: List[int] = []
    for i in keep:
        if plan[i].kind in FAULTY_KINDS:
            victim = plan[i].params[0]
            if victim in faulty or len(faulty) >= t:
                continue
            faulty.add(victim)
        kept.append(i)
    return kept


def build_fault_plan(
    directives: Sequence[Directive],
) -> Tuple[FaultPlan, Set[int]]:
    """Materialize directives into a :class:`FaultPlan` + compromised set."""
    adversaries: List[NetworkAdversary] = []
    crashes: List[CrashFault] = []
    compromised: Set[int] = set()
    for d in directives:
        if d.kind == "spike":
            prob, max_delay = d.params
            adversaries.append(DelaySpikeAdversary(prob=prob, max_delay=max_delay))
        elif d.kind == "slow-link":
            src, dst, delay = d.params
            adversaries.append(SlowLinkAdversary({(src, dst): delay}))
        elif d.kind == "partition":
            side, heal_at = d.params
            adversaries.append(
                HealingPartitionAdversary(group_a=set(side), heal_at=heal_at)
            )
        elif d.kind == "crash":
            victim, crash_at = d.params
            crashes.append(CrashFault(victim=victim, crash_at=crash_at))
        elif d.kind == "compromise":
            compromised.add(d.params[0])
        else:
            raise ValueError(f"unknown directive kind {d.kind!r}")
    adversary = CompositeAdversary(adversaries) if adversaries else None
    return FaultPlan(adversary=adversary, crashes=tuple(crashes)), compromised


# --- scenarios ------------------------------------------------------------------


@dataclass
class CaseSetup:
    """What a scenario hands back to the driver for one run."""

    suite: InvariantSuite
    #: futures the driver must run to completion, in order
    futures: List[Any]
    #: party id -> the protocol instance whose progress defines liveness;
    #: the liveness watchdog derives its sentinels from these
    probes: Dict[int, Any] = field(default_factory=dict)
    #: the case's one watchdog, attached and armed, when the scenario
    #: brings its own (the driver then builds none)
    watchdog: Optional[LivenessWatchdog] = None
    #: what the scenario reports about the run, filled in by the time
    #: ``futures`` resolve; lands on :attr:`CaseResult.facts`
    facts: Dict[str, Any] = field(default_factory=dict)


class Scenario:
    """A protocol workload the fuzzer can drive.

    ``setup`` builds all protocol instances on ``runtime``, injects the
    workload (parties in ``crashed`` stay passive; parties in
    ``compromised`` run the honest stack too, behind an intrusion
    strategy that mediates their traffic, and are outside every
    invariant), and returns the invariant suite plus the futures
    whose resolution defines a live run.  ``deadline`` and ``time_limit``
    are the case's budgets, for a scenario that paces its own workload.
    """

    name = "scenario"

    #: the budgets (simulated seconds) a case of this scenario runs under
    #: unless told otherwise: the liveness-watchdog deadline and the
    #: whole run's limit
    deadline = 30.0
    time_limit = 300.0

    def setup(
        self,
        runtime: SimRuntime,
        group: GroupConfig,
        crashed: Set[int],
        compromised: Set[int],
        deadline: float,
        time_limit: float,
    ) -> CaseSetup:
        raise NotImplementedError


class ChannelScenario(Scenario):
    """Fuzz one of the broadcast channels end to end.

    Every non-crashed party sends ``messages_per_party`` payloads and
    closes; the run is live when every never-faulty party's channel
    terminates.  ``channel_overrides`` maps a party id to a replacement
    channel factory ``(party) -> Channel`` — the hook the planted-bug
    tests use to infect a single replica.
    """

    #: kind -> (factory attribute on Party, extra kwargs)
    KINDS: Dict[str, Tuple[str, Dict[str, Any]]] = {
        "atomic": ("atomic_channel", {}),
        "batched": ("atomic_channel", {"max_batch": 4, "pipeline_depth": 2}),
        "secure": ("secure_atomic_channel", {}),
        "consistent": ("consistent_channel", {}),
    }

    def __init__(
        self,
        kind: str,
        messages_per_party: int = 2,
        channel_overrides: Optional[Dict[int, Callable[[Party], Any]]] = None,
    ):
        if kind not in self.KINDS:
            raise ValueError(f"unknown channel kind {kind!r}")
        self.name = kind
        self.kind = kind
        self.messages_per_party = messages_per_party
        self.channel_overrides = channel_overrides or {}

    def _make_channel(self, party: Party) -> Any:
        override = self.channel_overrides.get(party.id)
        if override is not None:
            return override(party)
        factory_name, kwargs = self.KINDS[self.kind]
        return getattr(party, factory_name)(self.name, **kwargs)

    def setup(
        self, runtime, group, crashed, compromised, deadline, time_limit
    ) -> CaseSetup:
        channels = {p.id: self._make_channel(p) for p in make_parties(runtime)}
        for i, ch in channels.items():
            if i in crashed:
                continue  # crashed parties never join the workload
            for k in range(self.messages_per_party):
                ch.send(encode(("payload", i, k)))
            ch.close()
        honest = set(channels) - compromised
        live = honest - crashed
        suite = InvariantSuite()
        if self.kind == "consistent":
            # The consistent channel orders per sender only, and some
            # honest parties may deliver less than others.
            suite.add(ConsistencyInvariant(channels, honest))
        else:
            suite.add(TotalOrderInvariant(channels, honest, live=live))
        if self.kind == "secure":
            suite.add(SecureCausalityInvariant(channels, honest))
        return CaseSetup(
            suite=suite,
            futures=[channels[i].closed for i in sorted(live)],
            probes=dict(channels),
        )


class AgreementScenario(Scenario):
    """Fuzz binary or multi-valued agreement.

    All non-crashed parties propose seed-derived values; the run is live
    when every never-faulty party decides.
    """

    def __init__(self, kind: str):
        if kind not in ("binary", "mvba"):
            raise ValueError(f"unknown agreement kind {kind!r}")
        self.name = kind
        self.kind = kind

    def setup(
        self, runtime, group, crashed, compromised, deadline, time_limit
    ) -> CaseSetup:
        parties = make_parties(runtime)
        r = runtime.sim.derive("workload", self.kind)
        honest = set(range(group.n)) - compromised
        live = honest - crashed
        if self.kind == "binary":
            instances = {p.id: p.binary_agreement(self.name) for p in parties}
            proposals = {i: r.randrange(2) for i in instances}
            # CKS validity: a unanimous honest proposal must win.
            honest_props = {proposals[i] for i in live}
            valid = list(honest_props) if len(honest_props) == 1 else None
        else:
            instances = {p.id: p.array_agreement(self.name) for p in parties}
            proposals = {i: encode(("proposal", i)) for i in instances}
            # External validity is trivial here, so the decided value can
            # be anything a (possibly mutated) proposer put forward; only a
            # fully honest run pins it to the proposal set.
            valid = list(proposals.values()) if not compromised else None
        for i, inst in instances.items():
            if i not in crashed:
                inst.propose(proposals[i])
        suite = InvariantSuite().add(
            AgreementInvariant(instances, live, valid_values=valid)
        )
        return CaseSetup(
            suite=suite,
            futures=[instances[i].decided for i in sorted(live)],
            probes=dict(instances),
        )


class LedgerScenario(Scenario):
    """Fuzz the replicated payment ledger over atomic broadcast."""

    name = "ledger"

    def __init__(self, opens_per_party: int = 1, transfers_per_party: int = 1):
        self.opens_per_party = opens_per_party
        self.transfers_per_party = transfers_per_party

    def setup(
        self, runtime, group, crashed, compromised, deadline, time_limit
    ) -> CaseSetup:
        from repro.app.ledger import ReplicatedLedger

        keys = _ledger_keys(group.n)
        replicas = {p.id: ReplicatedLedger(p, "ledger") for p in make_parties(runtime)}
        for i, rep in replicas.items():
            if i in crashed:
                continue
            account = encode(("acct", i))
            rep.open(account, keys[i].public, 100 * (i + 1))
            for k in range(self.transfers_per_party):
                dst = encode(("acct", (i + 1) % group.n))
                rep.transfer(account, dst, 10, k, keys[i])
            rep.close()
        honest = set(replicas) - compromised
        live = honest - crashed
        suite = (
            InvariantSuite()
            .add(LedgerInvariant(replicas, honest))
            .add(
                TotalOrderInvariant(
                    {i: rep.channel for i, rep in replicas.items()}, honest, live=live
                )
            )
        )
        return CaseSetup(
            suite=suite,
            futures=[replicas[i].channel.closed for i in sorted(live)],
            probes={i: rep.channel for i, rep in replicas.items()},
        )


_LEDGER_KEYS: Dict[int, Any] = {}


def _ledger_keys(n: int):
    """Small cached client RSA keys (keygen is the slow part)."""
    import random as _random

    from repro.crypto.rsa import generate_keypair

    for i in range(n):
        if i not in _LEDGER_KEYS:
            _LEDGER_KEYS[i] = generate_keypair(256, _random.Random(1000 + i))
    return _LEDGER_KEYS


def _heal_scenario() -> Scenario:
    """The closed-loop repair scenario (imported on first use: it pulls in
    the recovery, membership and orchestrator layers)."""
    from repro.heal.scenario import HealScenario

    return HealScenario()


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "atomic": lambda: ChannelScenario("atomic"),
    "batched": lambda: ChannelScenario("batched", messages_per_party=4),
    "secure": lambda: ChannelScenario("secure"),
    "consistent": lambda: ChannelScenario("consistent"),
    "binary": lambda: AgreementScenario("binary"),
    "mvba": lambda: AgreementScenario("mvba"),
    "ledger": lambda: LedgerScenario(),
    "heal": _heal_scenario,
}


def make_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None


# --- running one case ---------------------------------------------------------------


@dataclass
class CaseResult:
    """Outcome of one case, carrying everything needed to replay it."""

    ok: bool
    scenario: str
    n: int
    t: int
    case_seed: int
    plan_size: int
    #: the plan indices whose directives ran (after ``keep`` and the budget)
    kept: List[int]
    directives: List[Directive] = field(default_factory=list)
    #: the intrusion strategy and the replicas running it, if any
    strategy: Optional[str] = None
    adversaries: List[int] = field(default_factory=list)
    #: pinned directives appended outside the seed-derived plan — part of
    #: the case's identity, so the replay command must carry them
    extra: List[Directive] = field(default_factory=list)
    error: Optional[str] = None
    #: ``"safety"`` (invariant violation), ``"liveness"`` or ``"error"``
    #: (an exception out of the run: a bug, since the router refuses
    #: malformed input before any handler sees it)
    kind: Optional[str] = None
    checks_run: int = 0
    shrink_runs: int = 0
    #: merged per-strategy action counters, e.g. ``{"split-pre-vote": 12}``
    actions: Dict[str, int] = field(default_factory=dict)
    #: messages the routers refused as malformed, by message type
    malformed: Dict[str, int] = field(default_factory=dict)
    #: the protocol-state dump of a liveness failure (the watchdog's, or
    #: the scenario's own)
    dump: Dict[str, Any] = field(default_factory=dict)
    #: the budgets the case ran under (simulated seconds)
    deadline: float = Scenario.deadline
    time_limit: float = Scenario.time_limit
    #: what the scenario reported about the run (:attr:`CaseSetup.facts`)
    facts: Dict[str, Any] = field(default_factory=dict)

    @property
    def minimized(self) -> bool:
        """Whether ``keep`` or the fault budget left part of the plan out."""
        return len(self.kept) < self.plan_size

    def replay_command(self) -> str:
        cmd = (
            f"PYTHONPATH=src python -m repro.testing.schedule"
            f" --scenario {self.scenario}"
        )
        if self.strategy is not None:
            cmd += f" --strategy {self.strategy}"
        cmd += f" --n {self.n} --t {self.t} --case {hex(self.case_seed)}"
        if self.strategy is not None:
            cmd += f" --adversaries {','.join(map(str, self.adversaries)) or 'none'}"
        if self.minimized:
            cmd += f" --keep {','.join(map(str, self.kept)) or 'none'}"
        for d in self.extra:
            cmd += f" --extra {format_directive(d)}"
        if len(pinned_faulty(self.adversaries, self.extra)) > self.t:
            cmd += " --allow-excess"
        # the replay resolves unset budgets from the registered scenario
        defaults = SCENARIOS.get(self.scenario, Scenario)()
        if self.deadline != defaults.deadline:
            cmd += f" --deadline {self.deadline:g}"
        if self.time_limit != defaults.time_limit:
            cmd += f" --time-limit {self.time_limit:g}"
        return cmd

    def describe(self) -> str:
        """The case's identity, as the OK and ``REPRO:`` lines print it."""
        text = f"scenario={self.scenario}"
        if self.strategy is not None:
            text += f" strategy={self.strategy}"
        text += f" n={self.n} t={self.t} case={hex(self.case_seed)}"
        if self.strategy is not None:
            text += f" adversaries={self.adversaries}"
        faults = "; ".join(map(str, self.directives)) or "none"
        return f"{text} faults=[{faults}]"

    def repro_line(self) -> str:
        return (
            f"REPRO: {self.describe()} kind={self.kind} error={self.error!r}"
            f"\n  replay: {self.replay_command()}"
        )


def parse_int_list(text: Optional[str]) -> Optional[List[int]]:
    """Parse a ``--keep`` / ``--adversaries`` list (``"0,3,5"``).

    ``None`` stays ``None`` (keep everything / derive the adversaries from
    the case seed); ``"none"`` or the empty string is the empty list.
    """
    if text is None:
        return None
    text = text.strip()
    if text in ("", "none"):
        return []
    return [int(part) for part in text.split(",")]


_GROUP_CACHE: Dict[Tuple[int, int], GroupConfig] = {}


def default_group(n: int, t: int) -> GroupConfig:
    """Deal (or reuse) the toy-parameter group the simulator cases run on."""
    key = (n, t)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = fast_group(
            n, t, SecurityParams.toy(), sig_mode="multi", seed=1
        )
    return _GROUP_CACHE[key]


def pick_adversaries(case_seed: int, n: int, t: int) -> List[int]:
    """The case's seed-derived colluding set (size ``t``)."""
    r = rng_mod.derive(case_seed, "adversaries")
    return sorted(r.sample(range(n), t)) if t > 0 else []


def pinned_faulty(adversaries: Iterable[int], extra: Iterable[Directive]) -> Set[int]:
    """The parties a case makes faulty before its seed plan is consulted."""
    return set(adversaries) | {
        d.params[0] for d in extra if d.kind in FAULTY_KINDS
    }


def run_case(
    scenario: Scenario,
    n: int,
    t: int,
    case_seed: int,
    keep: Optional[Sequence[int]] = None,
    group: Optional[GroupConfig] = None,
    time_limit: Optional[float] = None,
    *,
    strategy: Optional[str] = None,
    adversaries: Optional[Sequence[int]] = None,
    extra: Sequence[Directive] = (),
    allow_excess: bool = False,
    deadline: Optional[float] = None,
    recorder: Optional[Recorder] = None,
) -> CaseResult:
    """Execute one case; deterministic in all arguments.

    ``keep`` restricts the generated fault plan to the given directive
    indices (``None`` keeps everything) — the shrinker's replay knob;
    ``extra`` appends fixed, pinned directives (e.g. the slow links a
    bound-tightness demonstration relies on).  ``strategy`` puts
    ``adversaries`` (default: ``t`` seed-derived parties) behind that
    intrusion strategy; every ``compromise`` directive puts its party
    behind ``mutate``, and one party runs one strategy.  Every case arms
    a liveness watchdog with ``deadline`` simulated seconds — the
    scenario's own, if it brings one: a case has exactly one.
    ``deadline`` and ``time_limit`` default to the scenario's.
    ``allow_excess`` permits more than ``t`` pinned faulty parties — only
    ever set by tests that *want* to watch the protocol break past its
    fault bound.
    """
    group = group or default_group(n, t)
    if deadline is None:
        deadline = scenario.deadline
    if time_limit is None:
        time_limit = scenario.time_limit
    if strategy is None:
        if adversaries:
            raise ValueError("adversaries need a strategy to run")
        advs: List[int] = []
    elif adversaries is None:
        advs = pick_adversaries(case_seed, n, t)
    else:
        advs = sorted(set(adversaries))
    extra = list(extra)
    doubled = set(advs) & {d.params[0] for d in extra if d.kind == "compromise"}
    if doubled:
        raise ValueError(
            f"parties {sorted(doubled)} run {strategy!r} and cannot also be "
            "compromised: one party runs one strategy"
        )
    pinned = pinned_faulty(advs, extra)
    if any(not 0 <= p < n for p in pinned):
        raise ValueError(f"faulty party ids {sorted(pinned)} out of range for n={n}")
    if len(pinned) > t and not allow_excess:
        raise ValueError(
            f"{len(pinned)} pinned faulty parties exceeds t={t}; pass "
            "allow_excess=True only to demonstrate bound tightness"
        )
    plan = plan_from_seed(case_seed, n, t)
    requested = range(len(plan)) if keep is None else keep
    bad = [i for i in requested if not 0 <= i < len(plan)]
    if bad:
        raise ValueError(
            f"keep indices {bad} out of range: case {hex(case_seed)} plans "
            f"{len(plan)} fault directives"
        )
    kept = within_budget(plan, requested, pinned, t)
    directives = [plan[i] for i in kept] + extra
    faults, compromised = build_fault_plan(directives)
    crashed = {c.victim for c in faults.crashes}
    colluders = frozenset(advs) | compromised
    # The "adv" label (and "adv-case" in case_seed_for) is the one the
    # strategy cases always used, so every pinned strategy case — the
    # bound-tightness and heal tests, ROADMAP item 6's replays — still
    # replays bit-identically.
    runtime = SimRuntime(
        group,
        latency=lan_latency(),
        seed=("adv", case_seed),
        faults=faults,
        recorder=recorder,
    )
    strategies = [
        infect(runtime, i, name, case_seed, colluders)
        for name, parties in ((strategy, advs), ("mutate", sorted(compromised)))
        for i in parties
    ]
    setup = scenario.setup(
        runtime, group, crashed=crashed, compromised=set(colluders),
        deadline=deadline, time_limit=time_limit,
    )
    setup.suite.attach(runtime)
    watchdog = setup.watchdog
    if watchdog is None:
        watchdog = LivenessWatchdog(deadline=deadline, recorder=runtime.obs)
        for i in sorted(set(setup.probes) - colluders - crashed):
            watchdog.watch(sentinel_for(f"{scenario.name}[{i}]", i, setup.probes[i]))
        watchdog.attach(runtime)
        watchdog.arm()
    result = CaseResult(
        ok=True,
        scenario=scenario.name,
        n=n,
        t=t,
        case_seed=case_seed,
        plan_size=len(plan),
        kept=kept,
        directives=directives,
        strategy=strategy,
        adversaries=advs,
        extra=extra,
        deadline=deadline,
        time_limit=time_limit,
        facts=setup.facts,
    )

    def fail(kind: str, error: str, dump: Optional[Dict[str, Any]] = None) -> None:
        result.ok = False
        result.kind = kind
        result.error = error
        result.dump = dump or {}

    try:
        for fut in setup.futures:
            runtime.run_until(fut, limit=time_limit)
        setup.suite.finalize()
    except InvariantViolation as exc:
        fail("safety", f"invariant violated: {exc}")
    except LivenessViolation as exc:
        fail("liveness", f"liveness violated: {exc.detail}", exc.dump)
    except SimError as exc:
        # The simulator went idle or over the time limit: the same bug
        # caught before a deadline fired, wrapped so it still carries the
        # watchdog's protocol-state dump.
        violation = watchdog.diagnose(str(exc))
        fail("liveness", f"liveness violated: {violation.detail}", violation.dump)
    except Exception as exc:
        # A handler or a party raised: a bug wherever it sits (a pid
        # collision, a handler tripping over a well-formed message).
        fail("error", f"{type(exc).__name__}: {exc}")
    # Every refused message is counted; one from an honest sender is an
    # honest party's bug.
    for pid, sender, exc in runtime.router_errors():
        result.malformed[exc.mtype] = result.malformed.get(exc.mtype, 0) + 1
        if result.ok and sender not in colluders:
            fail("safety", f"invariant violated: {exc} from honest party {sender} at {pid}")
    result.checks_run = setup.suite.checks_run
    for s in strategies:
        for action, count in s.actions.items():
            result.actions[action] = result.actions.get(action, 0) + count
    return result


# --- campaigns ------------------------------------------------------------------------


def case_seed_for(
    root_seed: int,
    scenario_name: str,
    n: int,
    t: int,
    i: int,
    strategy: Optional[str] = None,
) -> int:
    """The i-th case seed of a campaign (stable across versions)."""
    return rng_mod.derive_int(
        root_seed, "adv-case", scenario_name, strategy, n, t, i
    )


def fuzz(
    scenario: Scenario,
    n: int,
    t: int,
    root_seed: int,
    iterations: int,
    *,
    shrink_failures: bool = True,
    strategy: Optional[str] = None,
    malformed: Optional[Dict[str, int]] = None,
    **case_kwargs: Any,
) -> List[CaseResult]:
    """Run up to ``iterations`` seeded cases, stopping at the first failure.

    Returns that failure (shrunk if ``shrink_failures``) as a one-element
    list, or ``[]``.  ``malformed``, if given, sums every case's
    :attr:`CaseResult.malformed`.
    ``case_kwargs`` (group, time_limit, adversaries, extra, ...) go to
    :func:`run_case` unchanged, for the first run and for the shrinker's.
    """
    from repro.testing.shrink import shrink_case

    case_kwargs.setdefault("group", default_group(n, t))
    for i in range(iterations):
        case_seed = case_seed_for(root_seed, scenario.name, n, t, i, strategy)
        result = run_case(
            scenario, n, t, case_seed, strategy=strategy, **case_kwargs
        )
        if malformed is not None:
            for mtype, count in result.malformed.items():
                malformed[mtype] = malformed.get(mtype, 0) + count
        if result.ok:
            continue
        if shrink_failures:
            result = shrink_case(
                scenario, n, t, case_seed,
                first_failure=result, strategy=strategy, **case_kwargs,
            )
        return [result]
    return []


def dump_artifact_path(dump_dir: str, result: CaseResult) -> str:
    """A unique, timestamped artifact path for one failure's state dump."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = (
        f"liveness-{stamp}-{result.scenario}-{result.strategy}"
        f"-{hex(result.case_seed)}"
    )
    path = os.path.join(dump_dir, f"{base}.json")
    serial = 1
    while os.path.exists(path):
        path = os.path.join(dump_dir, f"{base}-{serial}.json")
        serial += 1
    return path


def write_failure_dumps(failures: Sequence[CaseResult]) -> List[str]:
    """Write each failure's protocol-state dump to ``ADV_DUMP_DIR``.

    A ``REPRO:`` line names a failing case; it cannot hold what the
    watchdog saw when the run stalled — sentinel fingerprints, stall
    ages, failure-detector suspects — or what a scenario knows about a
    run that never got there.  That goes into one timestamped JSON file
    per failure.  Failures without a dump (safety failures) are
    skipped.  Returns the written paths — empty
    when the variable is unset or nothing carried a dump.
    """
    dump_dir = os.environ.get("ADV_DUMP_DIR")
    if not dump_dir:
        return []
    os.makedirs(dump_dir, exist_ok=True)
    written: List[str] = []
    for result in failures:
        if not result.dump:
            continue
        path = dump_artifact_path(dump_dir, result)
        artifact = {
            "written_at": datetime.now(timezone.utc).isoformat(),
            "scenario": result.scenario,
            "strategy": result.strategy,
            "n": result.n,
            "t": result.t,
            "case": hex(result.case_seed),
            "adversaries": result.adversaries,
            "kind": result.kind,
            "error": result.error,
            "replay": result.replay_command(),
            "dump": result.dump,
        }
        with open(path, "w") as f:
            json.dump(artifact, f, indent=2, sort_keys=True, default=repr)
            f.write("\n")
        written.append(path)
    return written


def report_failures(failures: Sequence[CaseResult]) -> str:
    """Human-readable failure report; also honors ``REPRO_FILE``.

    When the environment variable ``REPRO_FILE`` names a file, every
    repro line is appended there as well — CI uploads that file as the
    artifact of a failing job.  ``ADV_DUMP_DIR`` additionally collects
    the protocol-state dump of each liveness failure, one timestamped
    JSON file each (:func:`write_failure_dumps`).
    """
    lines = [f.repro_line() for f in failures]
    for path in write_failure_dumps(failures):
        lines.append(f"  state dump: {path}")
    text = "\n".join(lines)
    path = os.environ.get("REPRO_FILE")
    if path and lines:
        with open(path, "a") as f:
            f.write(text + "\n")
    return text


# --- CLI: replay and ad-hoc campaigns ------------------------------------------------


def malformed_note(malformed: Dict[str, int]) -> str:
    """``", malformed <mtype>=<count>"`` per refused message type."""
    return "".join(f", malformed {m}={c}" for m, c in sorted(malformed.items()))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.schedule",
        description="Seeded schedule, fault and Byzantine-strategy cases "
        "for the SINTRA stack.",
    )
    parser.add_argument(
        "--scenario", required=True, choices=sorted(SCENARIOS),
        help="protocol workload to drive",
    )
    parser.add_argument(
        "--strategy", default=None, choices=sorted(STRATEGIES),
        help="intrusion strategy run by the adversaries (default: none)",
    )
    parser.add_argument("--n", type=int, default=4, help="group size")
    parser.add_argument("--t", type=int, default=1, help="fault threshold")
    parser.add_argument(
        "--case", default=None,
        help="replay exactly this case seed (int, hex, or arbitrary string)",
    )
    parser.add_argument(
        "--adversaries", default=None,
        help="comma-separated party ids running --strategy "
        "(default: t seed-derived parties)",
    )
    parser.add_argument(
        "--keep", default=None,
        help="with --case: comma-separated fault-directive indices to keep "
        "('none' = all off)",
    )
    parser.add_argument(
        "--extra", action="append", default=[], metavar="KIND:PARAMS",
        help="pinned directive outside the seed-derived plan, e.g. "
        "slow-link:0,1,5.0 spike:0.2,0.5 partition:0+1,2.0 crash:3,0.5 "
        "compromise:3 (repeatable)",
    )
    parser.add_argument(
        "--allow-excess", action="store_true",
        help="permit more than t faulty parties (bound-tightness replays)",
    )
    parser.add_argument(
        "--seed", default="0", help="campaign root seed (with --iterations)"
    )
    parser.add_argument(
        "--iterations", type=int, default=10, help="cases per campaign"
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="report failures unshrunk"
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="liveness-watchdog deadline (simulated seconds without "
        "progress; default: the scenario's)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None,
        help="simulated-seconds budget per case (default: the scenario's)",
    )
    args = parser.parse_args(argv)
    if not args.n > 3 * args.t:
        parser.error(f"SINTRA requires n > 3t (got n={args.n}, t={args.t})")

    scenario = make_scenario(args.scenario)
    bench_dir = bench_dir_from_env()
    recorder = MemoryRecorder() if bench_dir else None
    try:
        case_kwargs: Dict[str, Any] = dict(
            strategy=args.strategy,
            adversaries=parse_int_list(args.adversaries),
            extra=[parse_directive(spec) for spec in args.extra],
            allow_excess=args.allow_excess,
            deadline=args.deadline,
            time_limit=args.time_limit,
            recorder=recorder,
        )
        if args.case is not None:
            result = run_case(
                scenario, args.n, args.t, rng_mod.parse_seed(args.case),
                keep=parse_int_list(args.keep), **case_kwargs,
            )
            failures = [] if result.ok else [result]
            ran = f"{result.describe()} ({result.checks_run} invariant sweeps"
            for action, count in sorted(result.actions.items()):
                ran += f", {action}={count}"
            ran += f"{malformed_note(result.malformed)})"
        else:
            root_seed = rng_mod.parse_seed(args.seed)
            malformed: Dict[str, int] = {}
            failures = fuzz(
                scenario, args.n, args.t, root_seed, args.iterations,
                shrink_failures=not args.no_shrink, malformed=malformed,
                **case_kwargs,
            )
            ran = f"{args.iterations} cases of scenario={args.scenario}"
            if args.strategy is not None:
                ran += f" strategy={args.strategy}"
            ran += f" n={args.n} t={args.t} seed={hex(root_seed)}"
            if malformed:
                ran += f" ({malformed_note(malformed)[2:]})"
    except ValueError as exc:
        parser.error(str(exc))
    if bench_dir:
        # one record per invocation: the run's counters and phase timings
        # (a heal campaign's ``heal.*`` story), under REPRO_BENCH_DIR
        record = make_record(
            f"{args.scenario}-{args.strategy or 'fuzz'}-n{args.n}t{args.t}",
            experiment=f"{args.scenario}-campaign",
            meta={"strategy": args.strategy, "n": args.n, "t": args.t, "ran": ran},
            metrics={"failures": float(len(failures))},
            recorder=recorder,
            outcome="fail" if failures else "ok",
        )
        print(f"bench record: {write_record(bench_dir, record)}")
    if not failures:
        print(f"OK: {ran}")
        return 0
    print(report_failures(failures))
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
