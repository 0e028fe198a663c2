"""Intrusion strategies: what a compromised replica actually *does*.

Each strategy is a deterministic, seeded policy plugged into an
:class:`~repro.adversary.context.AdversarialContext`.  The compromised
party's genuine protocol stack keeps running; the strategy mediates its
outbound messages and observes its inbound ones, which is exactly the
power the paper grants an intruded server: full knowledge of its own key
shares and received traffic, freedom to send anything those keys can
sign.

The catalog covers the attack surface SINTRA's protocols are supposed to
absorb with up to ``t`` intrusions:

============  ==============================================================
``silence``   drop all traffic toward a targeted honest minority (<= t)
``withhold``  suppress every threshold share (coin / echo / decryption /
              vote) — starve quorums without lying
``badshare``  emit bit-flipped threshold shares — waste verifier work,
              trigger optimistic-combine eviction paths
``equivocate``broadcast different payloads of the same message type to the
              two halves of the honest parties (cross-instance splice)
``doublevote``the Cachin-Kursawe-Shoup-specific split-brain: pre-vote 0 to
              one honest half and 1 to the other with *forged but
              verifiable* justifications assembled from collected
              signature shares; with t+1 colluders this provably breaks
              agreement (see ``tests/adversary/test_bound_tightness.py``)
``replay``    re-send stale messages across rounds and protocol instances
``forgecert`` replace certificate-sized byte strings (threshold
              signatures, proofs) with garbage or transplanted bytes
``mutate``    blind structural fuzzing: drop, duplicate, corrupt, equivocate
              and replay the party's own messages, batch vectors included —
              the ``compromise:<p>`` fault of a seeded case
============  ==============================================================

All strategies are safe-by-construction *claims*, not guarantees — the
test suite's job is to demonstrate that with at most ``t`` compromised
parties no strategy violates a safety invariant or liveness deadline.

Strategies observe inbound traffic through the router observer hook,
where exceptions are **not** contained (an invariant violation must abort
the run) — so ``observe`` implementations are written defensively and
must never raise on malformed traffic.
"""

from __future__ import annotations

import random
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.common.errors import CryptoError, InvalidShare
from repro.core.agreement.binary import (
    MSG_DECIDE,
    MSG_MAINVOTE,
    MSG_PREVOTE,
    mainvote_string,
    prevote_string,
)
from repro.crypto.threshold_sig import combine_optimistically

#: ``(dst, pid, mtype, payload)`` — one concrete send decided by a strategy.
Action = Tuple[int, str, str, Any]

#: message types that carry a threshold share as (part of) their payload
SHARE_MTYPES = ("pre-vote", "main-vote", "coin", "echo", "dec")

#: Alphabet for generated strings (covers the protocols' mtype/pid space).
_CHARS = "abcdefghijklmnopqrstuvwxyz-0123456789"


def random_value(rng: random.Random, depth: int = 2) -> Any:
    """A random canonically-encodable value, for payload fabrication."""
    kinds = ["none", "bool", "int", "bytes", "str"]
    if depth > 0:
        kinds += ["tuple", "list"]
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice([0, 1, -1, rng.randrange(-(2 ** 40), 2 ** 40)])
    if kind == "bytes":
        return bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 24)))
    if kind == "str":
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(0, 12)))
    items = [random_value(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
    return tuple(items) if kind == "tuple" else items


def mutate_value(rng: random.Random, value: Any, depth: int = 3) -> Any:
    """A structural mutation of ``value`` (same shape, corrupted content).

    Prefers small, targeted edits — off-by-one on integers, truncated or
    bit-flipped byte strings, one corrupted element of a sequence — since
    those probe protocol validation more sharply than wholesale garbage.
    """
    if depth <= 0 or rng.random() < 0.15:
        return random_value(rng)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + rng.choice([-1, 1, 2 ** 16, -(2 ** 63)])
    if isinstance(value, bytes):
        if not value or rng.random() < 0.3:
            return value + b"\x00"
        data = bytearray(value)
        if rng.random() < 0.5:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            return bytes(data)
        return bytes(data[: rng.randrange(len(data))])
    if isinstance(value, str):
        return value + rng.choice(_CHARS) if rng.random() < 0.5 else value[:-1]
    if isinstance(value, (tuple, list)) and value:
        items = list(value)
        k = rng.randrange(len(items))
        items[k] = mutate_value(rng, items[k], depth - 1)
        return tuple(items) if isinstance(value, tuple) else items
    return random_value(rng)


class Strategy:
    """Base class: pass-through behavior plus bookkeeping and helpers.

    ``rng`` must be a seeded :class:`random.Random`; every probabilistic
    choice flows through it so campaigns replay bit-identically from a
    ``REPRO:`` line.  ``infect`` sets ``adversaries`` (the full
    colluding set, own party included) before the context is built, which
    lets strategies coordinate without any side channel: they all derive
    the same honest-half split from the same sorted membership.
    """

    name = "pass"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng if rng is not None else random.Random(0)
        self.ctx: Any = None
        self.adversaries: FrozenSet[int] = frozenset()
        self.actions: Dict[str, int] = {}

    def bind(self, ctx: Any) -> None:
        self.ctx = ctx

    def did(self, action: str, k: int = 1) -> None:
        """Count a strategy action (and surface it as an obs counter)."""
        self.actions[action] = self.actions.get(action, 0) + k
        if self.ctx is not None and self.ctx.obs.enabled:
            self.ctx.obs.count(f"adversary.{self.name}.{action}", k)

    # -- membership helpers ------------------------------------------------------

    def honest(self) -> List[int]:
        return [p for p in range(self.ctx.n) if p not in self.adversaries]

    def halves(self) -> Tuple[List[int], List[int]]:
        """The deterministic split every colluder agrees on."""
        h = self.honest()
        mid = (len(h) + 1) // 2
        return h[:mid], h[mid:]

    # -- the strategy surface ----------------------------------------------------

    def outbound(self, dst: int, pid: str, mtype: str, payload: Any) -> List[Action]:
        """Mediate one unicast copy; return the sends to perform instead."""
        return [(dst, pid, mtype, payload)]

    def outbound_broadcast(
        self, pid: str, mtype: str, payload: Any
    ) -> Optional[List[Action]]:
        """Mediate a whole broadcast at once; ``None`` defers to per-copy."""
        return None

    def observe(self, sender: int, pid: str, mtype: str, payload: Any) -> None:
        """Router-observer hook for inbound traffic.  Must never raise."""


class SilenceAdversary(Strategy):
    """Selective silence toward a targeted honest minority (<= ``t``).

    The untargeted ``n - t - |targets|`` honest parties still form quorums
    with the adversaries absent, and targeted parties catch up from honest
    relays (decide rebroadcast, ready amplification), so at ``t``
    intrusions this must cost latency, never liveness.
    """

    name = "silence"

    def targets(self) -> FrozenSet[int]:
        h = self.honest()
        keep = max(1, len(h) - self.ctx.t)
        return frozenset(h[keep:])

    def outbound(self, dst: int, pid: str, mtype: str, payload: Any) -> List[Action]:
        if dst in self.targets():
            self.did("dropped")
            return []
        return [(dst, pid, mtype, payload)]


class WithholdAdversary(Strategy):
    """Withhold every threshold share — starve quorums without lying.

    Equivalent to a crash for the sharing sub-protocols while remaining
    responsive elsewhere; ``n - t`` honest parties must still assemble
    every needed quorum.
    """

    name = "withhold"

    def outbound(self, dst: int, pid: str, mtype: str, payload: Any) -> List[Action]:
        if mtype in SHARE_MTYPES:
            self.did("withheld")
            return []
        return [(dst, pid, mtype, payload)]


class BadShareAdversary(Strategy):
    """Send bit-flipped threshold shares to honest parties.

    Exercises share verification and the optimistic-combine eviction path:
    honest parties must detect the corruption (individually, batched, or
    at combine time), ban the sender, and proceed on honest shares alone.
    """

    name = "badshare"

    def _flip(self, data: Any) -> Any:
        if not isinstance(data, bytes) or not data:
            return data
        i = self.rng.randrange(len(data))
        bit = 1 << self.rng.randrange(8)
        return data[:i] + bytes([data[i] ^ bit]) + data[i + 1 :]

    def _mutate(self, mtype: str, payload: Any) -> Optional[Any]:
        if mtype == "echo" and isinstance(payload, bytes):
            return self._flip(payload)
        if not isinstance(payload, tuple) or not payload:
            return None
        if mtype in ("pre-vote", "main-vote"):
            return payload[:-1] + (self._flip(payload[-1]),)
        if mtype in ("coin", "dec") and len(payload) == 2:
            return (payload[0], self._flip(payload[1]))
        return None

    def outbound(self, dst: int, pid: str, mtype: str, payload: Any) -> List[Action]:
        if dst not in self.adversaries:
            mutated = self._mutate(mtype, payload)
            if mutated is not None:
                self.did("flipped")
                return [(dst, pid, mtype, mutated)]
        return [(dst, pid, mtype, payload)]


class EquivocateAdversary(Strategy):
    """Cross-instance payload splice: tell the two honest halves different
    stories in the same broadcast.

    One honest half receives the genuine payload; the other receives the
    *previous* payload of the same message type — possibly from a different
    protocol instance — re-addressed under the current instance.  Both
    versions are internally well-formed (they were produced by a real
    stack), so receivers must reject the splice on cryptographic binding,
    not on shape.
    """

    name = "equivocate"

    def __init__(self, rng: Optional[random.Random] = None):
        super().__init__(rng)
        self._seen: Dict[str, Any] = {}

    def outbound_broadcast(
        self, pid: str, mtype: str, payload: Any
    ) -> Optional[List[Action]]:
        previous = self._seen.get(mtype)
        self._seen[mtype] = payload
        if previous is None or previous == payload:
            return None
        half_a, half_b = self.halves()
        self.did("spliced")
        acts: List[Action] = []
        for dst in range(self.ctx.n):
            alt = dst in half_b
            acts.append((dst, pid, mtype, previous if alt else payload))
        return acts


class ReplayAdversary(Strategy):
    """Stale-epoch and cross-round replay of the party's own traffic.

    Alongside every genuine send, occasionally re-emit an old message —
    both under its original instance (cross-round replay) and, when the
    message types match, re-addressed to the current instance
    (cross-instance splice).  Receivers must dedup / reject on round and
    instance binding.
    """

    name = "replay"
    history_limit = 64
    rate = 0.25

    def __init__(self, rng: Optional[random.Random] = None):
        super().__init__(rng)
        self._history: List[Tuple[str, str, Any]] = []

    def outbound(self, dst: int, pid: str, mtype: str, payload: Any) -> List[Action]:
        acts: List[Action] = [(dst, pid, mtype, payload)]
        if self._history and self.rng.random() < self.rate:
            old_pid, old_mtype, old_payload = self.rng.choice(self._history)
            acts.append((dst, old_pid, old_mtype, old_payload))
            self.did("replayed")
            if old_mtype == mtype and old_pid != pid:
                acts.append((dst, pid, mtype, old_payload))
                self.did("spliced")
        self._history.append((pid, mtype, payload))
        if len(self._history) > self.history_limit:
            del self._history[0]
        return acts


class ForgeCertAdversary(Strategy):
    """Forge certificate-sized byte strings in outgoing payloads.

    Threshold signatures, VCBC closing messages and checkpoint proofs
    all travel as opaque ``bytes``; this strategy replaces any such field
    with random garbage or bytes transplanted from observed traffic (a
    *real* certificate for the wrong statement).  Honest verifiers must
    reject both.
    """

    name = "forgecert"
    rate = 0.5
    min_len = 16
    pool_limit = 32

    def __init__(self, rng: Optional[random.Random] = None):
        super().__init__(rng)
        self._pool: List[bytes] = []

    def observe(self, sender: int, pid: str, mtype: str, payload: Any) -> None:
        try:
            self._harvest(payload, 0)
        except (TypeError, ValueError, KeyError, IndexError):
            pass

    def _harvest(self, obj: Any, depth: int) -> None:
        if depth > 3:
            return
        if isinstance(obj, bytes) and len(obj) >= self.min_len:
            self._pool.append(obj)
            if len(self._pool) > self.pool_limit:
                del self._pool[0]
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                self._harvest(item, depth + 1)

    def _forge(self, obj: Any, depth: int) -> Any:
        if isinstance(obj, bytes) and len(obj) >= self.min_len:
            if self._pool and self.rng.random() < 0.5:
                return self.rng.choice(self._pool)
            return self.rng.randbytes(len(obj))
        if isinstance(obj, tuple) and depth <= 2:
            return tuple(self._forge(item, depth + 1) for item in obj)
        return obj

    def outbound(self, dst: int, pid: str, mtype: str, payload: Any) -> List[Action]:
        if dst not in self.adversaries and self.rng.random() < self.rate:
            forged = self._forge(payload, 0)
            if forged != payload:
                self.did("forged")
                return [(dst, pid, mtype, forged)]
        return [(dst, pid, mtype, payload)]


class DoubleVoteAdversary(Strategy):
    """The CKS-specific split-brain: justified double pre-/main-votes.

    The honest parties are split into two deterministic halves; the
    colluders pre-vote 0 toward half A and 1 toward half B, each version
    carrying a *valid* self-signed share (round 1 needs no further
    justification).  Observed pre-vote shares are hoarded per
    ``(instance, round, value)``; whenever a quorum for the opposite value
    is in hand, the strategy forges the matching hard justification /
    main-vote threshold signature with :func:`combine_optimistically` and
    keeps both narratives alive across rounds.  Colluders send each other
    *both* versions so their share pools stay synchronized.

    With at most ``t`` colluders the honest ``n - t`` quorums intersect in
    ``>= t + 1`` honest parties and the protocol absorbs this; with
    ``t + 1`` the intersection argument collapses and the halves can be
    driven to decide differently — the bound-tightness demonstration.
    """

    name = "doublevote"

    def __init__(self, rng: Optional[random.Random] = None):
        super().__init__(rng)
        #: (pid, "pre"|"main", round, value) -> {1-based index: share}
        self._shares: Dict[Tuple[str, str, int, int], Dict[int, bytes]] = {}
        #: (pid, value) -> validation data seen for that value
        self._proofs: Dict[Tuple[str, int], bytes] = {}

    # -- share hoarding ----------------------------------------------------------

    def _record(self, pid: str, kind: str, r: int, b: int, share: Any) -> None:
        if not isinstance(share, bytes):
            return
        try:
            index = self.ctx.crypto.aba_scheme.share_index(share)
        except (InvalidShare, CryptoError):
            return
        self._shares.setdefault((pid, kind, r, b), {})[index] = share

    def observe(self, sender: int, pid: str, mtype: str, payload: Any) -> None:
        if mtype not in (MSG_PREVOTE, MSG_MAINVOTE):
            return
        try:
            r, v, _just, proof, share = payload
        except (TypeError, ValueError):
            return
        if not (isinstance(r, int) and r >= 1 and v in (0, 1)):
            return
        kind = "pre" if mtype == MSG_PREVOTE else "main"
        self._record(pid, kind, r, v, share)
        if isinstance(proof, bytes):
            self._proofs.setdefault((pid, v), proof)

    def _combine(self, pid: str, kind: str, r: int, b: int) -> Optional[bytes]:
        """Assemble the threshold signature on round-``r`` votes for ``b``."""
        shares = dict(self._shares.get((pid, kind, r, b), {}))
        scheme = self.ctx.crypto.aba_scheme
        if len(shares) < scheme.k:
            return None
        string = prevote_string if kind == "pre" else mainvote_string
        return combine_optimistically(
            scheme,
            string(pid, r, b),
            shares,
            verifier=self.ctx.crypto.verifier,
        )

    def _sign(self, pid: str, kind: str, r: int, b: int) -> bytes:
        string = prevote_string if kind == "pre" else mainvote_string
        share = self.ctx.crypto.aba_signer.sign_share(string(pid, r, b))
        self._record(pid, kind, r, b, share)
        return share

    # -- splitting ---------------------------------------------------------------

    def outbound_broadcast(
        self, pid: str, mtype: str, payload: Any
    ) -> Optional[List[Action]]:
        if mtype == MSG_PREVOTE and self._vote_shaped(payload):
            return self._split(pid, mtype, payload, self._prevote_version)
        if mtype == MSG_MAINVOTE and self._vote_shaped(payload):
            return self._split(pid, mtype, payload, self._mainvote_version)
        if mtype == MSG_DECIDE and isinstance(payload, tuple) and len(payload) == 4:
            return self._split(pid, mtype, payload, self._decide_version)
        return None

    @staticmethod
    def _vote_shaped(payload: Any) -> bool:
        return isinstance(payload, tuple) and len(payload) == 5

    def _split(self, pid: str, mtype: str, payload: Any, version: Any) -> List[Action]:
        half_a, half_b = self.halves()
        versions: Dict[int, Any] = {}
        for bit in (0, 1):
            versions[bit] = version(pid, bit, payload)
        acts: List[Action] = []
        for bit, half in ((0, half_a), (1, half_b)):
            if versions[bit] is None:
                continue  # no sustainable narrative for this half: withhold
            for dst in half:
                acts.append((dst, pid, mtype, versions[bit]))
        # Colluders (self included) receive both narratives, so every
        # strategy instance hoards shares for both values.  Main-votes
        # additionally gossip this party's shares for *both* bits as bare
        # unjustified votes: colluding observers harvest the shares (the
        # receiving instance discards the message), keeping every
        # colluder's decide-forgery pool at quorum strength.
        extra: List[Any] = []
        if mtype == MSG_MAINVOTE and self._vote_shaped(payload):
            r = payload[0]
            if isinstance(r, int) and r >= 1:
                extra = [
                    (r, bit, None, None, self._sign(pid, "main", r, bit))
                    for bit in (0, 1)
                ]
        for dst in sorted(self.adversaries):
            for bit in (0, 1):
                if versions[bit] is not None and (
                    bit == 0 or versions[1] != versions[0]
                ):
                    acts.append((dst, pid, mtype, versions[bit]))
            for carrier in extra:
                acts.append((dst, pid, mtype, carrier))
        self.did(f"split-{mtype}")
        return acts

    def _prevote_version(self, pid: str, bit: int, real: Tuple) -> Optional[Tuple]:
        r, b, _just, _proof, _share = real
        if b == bit:
            return real
        proof = self._proofs.get((pid, bit))
        if r == 1:
            return (r, bit, None, proof, self._sign(pid, "pre", r, bit))
        sig = self._combine(pid, "pre", r - 1, bit)
        if sig is None:
            return real  # cannot justify the opposite value this round
        return (r, bit, ("hard", sig), proof, self._sign(pid, "pre", r, bit))

    def _mainvote_version(self, pid: str, bit: int, real: Tuple) -> Optional[Tuple]:
        r, v, _just, _proof, _share = real
        # Contribute own main-vote shares for both values up front, so a
        # colluder quorum can later forge either decision certificate.
        self._sign(pid, "main", r, bit)
        if v == bit:
            return real
        sig = self._combine(pid, "pre", r, bit)
        if sig is None:
            return real
        share = self._sign(pid, "main", r, bit)
        return (r, bit, sig, self._proofs.get((pid, bit)), share)

    def _decide_version(self, pid: str, bit: int, real: Tuple) -> Optional[Tuple]:
        r, b, _sig, _proof, = real
        if b == bit:
            return real
        # Forge the opposite decision from hoarded main-vote shares; search
        # recent rounds, a quorum for ``bit`` may predate the real decide.
        if isinstance(r, int):
            for round_no in range(r, 0, -1):
                forged = self._combine(pid, "main", round_no, bit)
                if forged is not None:
                    return (round_no, bit, forged, self._proofs.get((pid, bit)))
        return None  # never relay the real decide to the opposite half


class MutateAdversary(Strategy):
    """Blind structural fuzzing of the party's own messages.

    The one strategy that knows nothing of the protocols it attacks.  Each
    outbound copy is, with small probabilities, dropped; corrupted (a
    structural mutation of the payload, or the message retargeted at
    another instance or message type); swapped for an earlier, different
    payload of the same ``(pid, mtype)`` (equivocation); sent twice; or
    followed by a replay of an earlier message.  What it emits is sealed
    with the party's own keys, so receivers see validly authenticated
    garbage — the hardest case for handlers.

    The atomic channel's ``queue`` candidates ``(round, vector, sig)``
    are corrupted in the batch shapes the channel's validator must reject,
    which generic mutation rarely hits: a record repeated inside the
    vector, two records swapped, records dropped down to the empty
    vector, one record corrupted, or the frame spliced onto a
    neighbouring round.
    """

    name = "mutate"
    #: per-copy probability of each action; the rest pass through
    drop_rate = 0.05
    corrupt_rate = 0.10
    equivocate_rate = 0.05
    duplicate_rate = 0.05
    replay_rate = 0.05
    history_limit = 64
    #: message types of the atomic channel whose payload carries a vector
    VECTOR_TYPES = frozenset({"queue"})

    def __init__(self, rng: Optional[random.Random] = None):
        super().__init__(rng)
        self._history: List[Tuple[str, str, Any]] = []
        self._by_type: Dict[Tuple[str, str], List[Any]] = {}

    def outbound(self, dst: int, pid: str, mtype: str, payload: Any) -> List[Action]:
        self._remember(pid, mtype, payload)
        r = self.rng
        if r.random() < self.drop_rate:
            self.did("drop")
            return []
        sent: Action = (dst, pid, mtype, payload)
        if r.random() < self.corrupt_rate:
            sent = (dst, *self._corrupt(pid, mtype, payload))
            self.did("mutate")
        elif r.random() < self.equivocate_rate:
            others = [p for p in self._by_type[(pid, mtype)] if p != payload]
            if others:
                sent = (dst, pid, mtype, r.choice(others))
                self.did("equivocate")
        acts = [sent]
        if r.random() < self.duplicate_rate:
            acts.append(sent)
            self.did("duplicate")
        if r.random() < self.replay_rate:
            acts.append((dst, *r.choice(self._history)))
            self.did("replay")
        return acts

    def _remember(self, pid: str, mtype: str, payload: Any) -> None:
        self._history.append((pid, mtype, payload))
        same_type = self._by_type.setdefault((pid, mtype), [])
        same_type.append(payload)
        for past in (self._history, same_type):
            if len(past) > self.history_limit:
                del past[0]

    def _corrupt(self, pid: str, mtype: str, payload: Any) -> Tuple[str, str, Any]:
        r = self.rng
        if mtype in self.VECTOR_TYPES:
            corrupted = self._corrupt_vector(payload)
            if corrupted is not None:
                self.did("batch-frame")
                return pid, mtype, corrupted
        # Mostly corrupt the payload; occasionally retarget the message at
        # another protocol instance or message type.
        if r.random() < 0.8:
            return pid, mtype, mutate_value(r, payload)
        if r.random() < 0.5:
            return pid, self._retarget(mtype), payload
        return self._retarget(pid), mtype, payload

    def _retarget(self, header: str) -> str:
        # a header that is no string is refused by the receiver's parser,
        # which is only a drop: keep it a string
        value = mutate_value(self.rng, header)
        return value if isinstance(value, str) else header[:-1]

    def _corrupt_vector(self, payload: Any) -> Optional[Tuple]:
        """A batch-specific corruption of one vector-carrying payload."""
        if not isinstance(payload, (tuple, list)) or not payload:
            return None
        parts = list(payload)
        vec_at = next(
            (k for k, v in enumerate(parts) if isinstance(v, (tuple, list))),
            None,
        )
        if vec_at is None:
            return None  # a malformed candidate: no vector to corrupt
        vector = list(parts[vec_at])
        r = self.rng
        action = r.choice(
            ["duplicate", "reorder", "truncate", "record", "round", "empty"]
        )
        if action == "duplicate" and vector:
            vector.insert(r.randrange(len(vector) + 1), r.choice(vector))
        elif action == "reorder" and len(vector) >= 2:
            i, j = r.sample(range(len(vector)), 2)
            vector[i], vector[j] = vector[j], vector[i]
        elif action == "truncate" and len(vector) >= 2:
            vector = vector[: r.randrange(1, len(vector))]
        elif action == "record" and vector:
            k = r.randrange(len(vector))
            vector[k] = mutate_value(r, vector[k])
        elif action == "round" and isinstance(parts[0], int):
            parts[0] = parts[0] + r.choice([-1, 1, 7])
        else:
            vector = []
        parts[vec_at] = vector
        return tuple(parts)


STRATEGIES: Dict[str, type] = {
    cls.name: cls
    for cls in (
        SilenceAdversary,
        WithholdAdversary,
        BadShareAdversary,
        EquivocateAdversary,
        ReplayAdversary,
        ForgeCertAdversary,
        DoubleVoteAdversary,
        MutateAdversary,
    )
}


def make_strategy(name: str, rng: Optional[random.Random] = None) -> Strategy:
    """Instantiate a cataloged strategy by name."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}"
        ) from None
    return cls(rng)
