"""Protocol invariant checkers, evaluated live after every delivery.

Each checker watches a set of protocol instances (one per party) through
their public inspection state and the outputs it taps (:func:`tap`,
:func:`tap_applies`) and raises :class:`InvariantViolation` the moment the
paper's safety properties stop holding:

* :class:`AgreementInvariant` — binary/multi-valued agreement and
  validity (paper Secs. 2.3, 2.4);
* :class:`TotalOrderInvariant` — atomic-channel agreement on the delivery
  *sequence* plus at-most-once (origin, seq) delivery (Sec. 2.5);
* :class:`SecureCausalityInvariant` — the secure channel releases
  cleartexts only for already-ordered ciphertexts, strictly in order
  (Sec. 2.6);
* :class:`ConsistencyInvariant` — per sender, the consistent channel's
  honest delivery streams are prefixes of one another (Sec. 2.7);
* :class:`LedgerInvariant` — replicas at equal command counts have equal
  state, and the total supply changes only by minting.

Checkers are *incremental*: each call inspects only state appended since
the previous call, so running them after every single delivery stays
cheap.  :class:`InvariantSuite` bundles checkers and attaches them to a
:class:`~repro.net.runtime.SimRuntime` via ``delivery_listeners``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.encoding import decode
from repro.common.errors import EncodingError


class InvariantViolation(AssertionError):
    """A protocol safety property was observed broken.

    Derives from :class:`AssertionError` so the router's error containment
    (which swallows protocol-level exceptions) never hides it.
    """

    def __init__(self, invariant: str, detail: str):
        super().__init__(f"[{invariant}] {detail}")
        self.invariant = invariant
        self.detail = detail


class Invariant:
    """Base checker; subclasses override :meth:`check`."""

    name = "invariant"

    def check(self) -> None:
        """Raise :class:`InvariantViolation` if the property is broken."""

    def final_check(self) -> None:
        """End-of-run check (defaults to a last :meth:`check`)."""
        self.check()

    def fail(self, detail: str) -> None:
        raise InvariantViolation(self.name, detail)


class InvariantSuite:
    """A bundle of checkers driven by the runtime's delivery hook."""

    def __init__(self, invariants: Optional[Iterable[Invariant]] = None):
        self.invariants: List[Invariant] = list(invariants or ())
        self.checks_run = 0

    def add(self, invariant: Invariant) -> "InvariantSuite":
        self.invariants.append(invariant)
        return self

    def attach(self, runtime) -> "InvariantSuite":
        """Re-check every invariant after each delivery on ``runtime``."""
        runtime.delivery_listeners.append(self._on_delivery)
        return self

    def _on_delivery(self, dst: int) -> None:
        self.check_all()

    def check_all(self) -> None:
        self.checks_run += 1
        for inv in self.invariants:
            inv.check()

    def finalize(self) -> None:
        """Run end-of-run checks (e.g. equal final delivery sequences)."""
        for inv in self.invariants:
            inv.final_check()


def tap(channel: Any) -> List[Tuple[int, int, bytes]]:
    """The deliveries of ``channel`` from now on: a listener chained in
    front of the channel's own (or of its ``outputs`` queue if it has none)."""
    log: List[Tuple[int, int, bytes]] = []
    downstream = channel.on_output

    def tapped(origin: int, seq: int, data: bytes) -> None:
        log.append((origin, seq, data))
        if downstream is not None:
            downstream(origin, seq, data)
        else:
            channel.outputs.put(data)

    channel.on_output = tapped
    return log


def tap_applies(service: Any) -> List[Tuple[bytes, bytes]]:
    """The ``(command, result)`` pairs ``service.state`` applies from now on."""
    log: List[Tuple[bytes, bytes]] = []
    apply = service.state.apply

    def tapped(command: bytes) -> bytes:
        log.append((command, apply(command)))
        return log[-1][1]

    service.state.apply = tapped
    return log


def _prefix_consistent(name: str, inv: Invariant, seqs: Mapping[int, Sequence]) -> None:
    """Every pair of parties' sequences must agree on the common prefix."""
    if not seqs:
        return
    longest_party = max(seqs, key=lambda i: len(seqs[i]))
    master = seqs[longest_party]
    for i, seq in seqs.items():
        for k in range(len(seq)):
            if seq[k] != master[k]:
                inv.fail(
                    f"{name}: party {i} position {k} = {seq[k]!r} but "
                    f"party {longest_party} delivered {master[k]!r}"
                )


class TotalOrderInvariant(Invariant):
    """Atomic broadcast: same sequence everywhere, (origin, seq) dedup.

    ``channels`` maps party id to a channel; ``honest`` parties' deliveries
    (:attr:`logs`) are prefix- and dedup-checked.  ``live``
    (default: all of ``honest``) is the subset that stayed up for the
    whole run — only those must agree on the *complete* final sequence,
    since a crashed-but-honest party legitimately stops mid-prefix.
    """

    name = "total-order"

    def __init__(
        self,
        channels: Dict[int, Any],
        honest: Iterable[int],
        live: Optional[Iterable[int]] = None,
    ):
        #: party -> its deliveries as ``(origin, seq, data)``
        self.logs = {i: tap(channels[i]) for i in sorted(honest) if i in channels}
        self.live = set(self.logs) if live is None else set(live)
        self._seen_keys: Dict[int, set] = {i: set() for i in self.logs}
        self._checked: Dict[int, int] = {i: 0 for i in self.logs}

    def check(self) -> None:
        for i, log in self.logs.items():
            for k in range(self._checked[i], len(log)):
                key = log[k][:2]  # (origin, seq)
                if key in self._seen_keys[i]:
                    self.fail(f"party {i} delivered {key} twice")
                self._seen_keys[i].add(key)
            self._checked[i] = len(log)
        _prefix_consistent("delivery sequence", self, self.logs)

    def final_check(self) -> None:
        self.check()
        lengths = {i: len(log) for i, log in self.logs.items() if i in self.live}
        if len(set(lengths.values())) > 1:
            self.fail(f"final delivery counts differ among live parties: {lengths}")


class AgreementInvariant(Invariant):
    """Agreement instances: all honest decisions equal (and valid).

    ``valid_values``, when given, is the set of values honest validity
    permits (e.g. the honest parties' proposals when no party is
    Byzantine).
    """

    name = "agreement"

    def __init__(
        self,
        instances: Dict[int, Any],
        honest: Iterable[int],
        valid_values: Optional[Iterable[Any]] = None,
    ):
        self.instances = {i: instances[i] for i in sorted(honest) if i in instances}
        self.valid_values = None if valid_values is None else list(valid_values)

    def _decisions(self) -> Dict[int, Any]:
        return {
            i: inst.decided.value[0]
            for i, inst in self.instances.items()
            if inst.decided.done
        }

    def check(self) -> None:
        decisions = self._decisions()
        if len(set(map(repr, decisions.values()))) > 1:
            self.fail(f"honest parties decided differently: {decisions}")
        if self.valid_values is not None:
            for i, v in decisions.items():
                if v not in self.valid_values:
                    self.fail(
                        f"party {i} decided {v!r}, not among the valid "
                        f"values {self.valid_values!r}"
                    )

    def final_check(self) -> None:
        self.check()
        undecided = [i for i, inst in self.instances.items() if not inst.decided.done]
        if undecided:
            self.fail(f"honest parties never decided: {undecided}")


class SecureCausalityInvariant(Invariant):
    """Secure channel: cleartext only after ordering, released in order."""

    name = "secure-causality"

    def __init__(self, channels: Dict[int, Any], honest: Iterable[int]):
        self.channels = {i: channels[i] for i in sorted(honest) if i in channels}
        self._last_release: Dict[int, int] = {i: 0 for i in self.channels}

    def check(self) -> None:
        for i, ch in self.channels.items():
            released, ordered = ch._next_release, ch._dec_order
            if released > ordered:
                self.fail(
                    f"party {i} released {released} cleartexts but only "
                    f"{ordered} ciphertexts are ordered"
                )
            if released < self._last_release[i]:
                self.fail(f"party {i} release counter went backwards")
            self._last_release[i] = released


class ConsistencyInvariant(Invariant):
    """Consistent channel: per sender, honest streams are prefix-related.

    Consistency gives one payload per broadcast instance ``(j, s)``, and
    the channel allocates ``(j, s + 1)`` only after ``(j, s)`` delivers,
    so for every sender ``j`` — Byzantine ones included — the payloads
    any two honest parties delivered from ``j`` are prefixes of one
    another.  Each party's new deliveries are compared against the
    longest stream seen so far for their sender.
    """

    name = "consistency"

    def __init__(self, channels: Dict[int, Any], honest: Iterable[int]):
        self._logs = {i: tap(channels[i]) for i in sorted(honest) if i in channels}
        self._checked: Dict[int, int] = {i: 0 for i in self._logs}
        #: party -> sender -> how many payloads it delivered from that sender
        self._counts: Dict[int, Dict[int, int]] = {i: {} for i in self._logs}
        #: sender -> the longest stream seen, as (payload, first deliverer)
        self._longest: Dict[int, List[Tuple[bytes, int]]] = {}

    def check(self) -> None:
        for i, log in self._logs.items():
            for sender, _seq, payload in log[self._checked[i]:]:
                k = self._counts[i].get(sender, 0)
                self._counts[i][sender] = k + 1
                longest = self._longest.setdefault(sender, [])
                if k == len(longest):
                    longest.append((payload, i))
                elif longest[k][0] != payload:
                    other, party = longest[k]
                    self.fail(
                        f"sender {sender} position {k}: party {i} delivered "
                        f"{payload!r} but party {party} delivered {other!r}"
                    )
            self._checked[i] = len(log)


class LedgerInvariant(Invariant):
    """Replicated ledger: replica equality and conservation.

    * any two honest replicas that applied the same number of commands
      have identical state digests and identical command logs;
    * at each replica, total supply changes exactly by the amounts of the
      successfully applied ``open`` (mint) commands — transfers conserve.
    """

    name = "ledger"

    def __init__(self, services: Dict[int, Any], honest: Iterable[int]):
        self.services = {i: services[i] for i in sorted(honest) if i in services}
        self.logs = {i: tap_applies(svc) for i, svc in self.services.items()}
        self._checked: Dict[int, int] = {i: 0 for i in self.services}
        self._expected_supply: Dict[int, int] = {i: 0 for i in self.services}

    def check(self) -> None:
        for i, svc in self.services.items():
            log = self.logs[i]
            for k in range(self._checked[i], len(log)):
                _, result = log[k]
                self._expected_supply[i] += _minted_amount(result)
            self._checked[i] = len(log)
            actual = svc.state.total_supply()
            if actual != self._expected_supply[i]:
                self.fail(
                    f"replica {i}: total supply {actual} != minted "
                    f"{self._expected_supply[i]} (conservation broken)"
                )
        _prefix_consistent(
            "command log", self,
            {i: [c for c, _ in log] for i, log in self.logs.items()},
        )
        by_applied: Dict[int, Tuple[int, bytes]] = {}
        for i, svc in self.services.items():
            digest = svc.state_digest()
            prev = by_applied.get(svc.applied_seq)
            if prev is not None and prev[1] != digest:
                self.fail(
                    f"replicas {prev[0]} and {i} both applied {svc.applied_seq} "
                    f"commands but their state digests differ"
                )
            by_applied[svc.applied_seq] = (i, digest)


def _minted_amount(result: bytes) -> int:
    """Amount minted by a command, given its recorded result (0 if none)."""
    try:
        parsed = decode(result)
    except EncodingError:
        return 0
    if isinstance(parsed, tuple) and len(parsed) == 3 and parsed[0] == "opened":
        return int(parsed[2])
    return 0
