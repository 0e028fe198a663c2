"""Randomized binary Byzantine agreement — Cachin-Kursawe-Shoup (Sec. 2.3).

The protocol proceeds in global rounds of three message exchanges:

1. every party relays a justified **pre-vote** for its current preference;
2. from ``n - t`` pre-votes it derives a **main-vote**: the common bit if
   they are unanimous, *abstain* otherwise;
3. from ``n - t`` main-votes it either **decides** (all main-votes carry
   the same bit) or releases a share of the round's **threshold coin**;
   the next preference is an observed non-abstain main-vote if any,
   otherwise the coin.

All votes are justified by non-interactively verifiable data and only
properly justified votes are accepted:

* a round-1 pre-vote for ``b`` is justified by external validation data
  (trivial for plain binary agreement);
* a *hard* pre-vote for ``b`` in round ``r`` is justified by the threshold
  signature on the round-``r-1`` pre-votes for ``b`` (carried by the
  main-vote the sender adopted ``b`` from);
* a *soft* pre-vote is justified by the threshold signature on abstaining
  round-``r-1`` main-votes plus ``t+1`` verified coin shares establishing
  the coin value (or the public bias for a biased round);
* a main-vote for ``b`` is justified by the threshold signature assembled
  from ``n - t`` pre-vote shares for ``b``;
* an *abstain* main-vote is justified by embedding one justified pre-vote
  for 0 and one for 1;
* a decision for ``b`` is justified by the threshold signature on
  round-``r`` main-votes for ``b``, which is broadcast so every party
  decides as soon as it sees it.

Every vote message also carries the sender's threshold-signature *share*
for the potential justification at the next level, and — in the validated
variant — the external validation data for the vote's value, so that any
party that decides a value also possesses its validation data (the paper's
external-validity property, Sec. 2.3; this is what lets multi-valued
agreement recover the decided proposal from the returned proof).

The protocol terminates within an expected constant number of rounds and a
quadratic expected number of messages dominated by threshold signatures,
exactly as the paper states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.encoding import encode
from repro.common.errors import InvalidShare, ProtocolError
from repro.core.agreement.base import Agreement
from repro.core.protocol import Context
from repro.core.schema import OneOf, Range, Seq
from repro.crypto.threshold_sig import combine_optimistically

ABSTAIN = 2

MSG_PREVOTE = "pre-vote"
MSG_MAINVOTE = "main-vote"
MSG_COIN = "coin"
MSG_DECIDE = "decide"

#: ``validator(value, proof) -> bool`` — the external-validity predicate.
BinaryValidator = Callable[[int, Optional[bytes]], bool]

# Message schemas (repro.core.schema); a vote is (r, value, just, proof, share)
BIT, ROUND, PROOF = {0, 1}, Range(1), OneOf(None, bytes)
PREVOTE_JUST = OneOf(None, ({"hard"}, bytes), ({"soft"}, bytes, Seq(bytes)))
EXAMPLE = (BIT, PREVOTE_JUST, PROOF, bytes)  # an embedded justified pre-vote
Vote = Tuple[int, int, Any, Optional[bytes], bytes]


def _always_valid(value: int, proof: Optional[bytes]) -> bool:
    return True


def prevote_string(pid: str, r: int, b: int) -> bytes:
    """The string whose threshold signature justifies main-votes for ``b``."""
    return encode(("aba-pre", pid, r, b))


def mainvote_string(pid: str, r: int, v: int) -> bytes:
    """The string whose threshold signature justifies decisions/abstains."""
    return encode(("aba-main", pid, r, v))


def coin_name(pid: str, r: int) -> bytes:
    """The name of round ``r``'s threshold coin."""
    return encode(("aba-coin", pid, r))


@dataclass
class _RoundState:
    """Per-round bookkeeping (created lazily; rounds are 1-based)."""

    prevotes: Dict[int, int] = field(default_factory=dict)  # sender -> b
    prevote_shares: Dict[int, Dict[int, bytes]] = field(
        default_factory=lambda: {0: {}, 1: {}}
    )
    #: one example justified pre-vote per value, for abstain justifications:
    #: value -> (b, just, proof, share)
    example_prevote: Dict[int, tuple] = field(default_factory=dict)
    mainvotes: Dict[int, int] = field(default_factory=dict)  # sender -> v
    mainvote_shares: Dict[int, Dict[int, bytes]] = field(
        default_factory=lambda: {0: {}, 1: {}, ABSTAIN: {}}
    )
    #: first observed non-abstain main-vote: (b, prevote_sig)
    hard: Optional[Tuple[int, bytes]] = None
    coin_shares: Dict[int, bytes] = field(default_factory=dict)
    coin_value: Optional[int] = None
    mainvote_sent: bool = False
    coin_share_sent: bool = False
    #: senders evicted after contributing an invalid signature share
    banned: Set[int] = field(default_factory=set)


class BinaryAgreement(Agreement):
    """One instance of (optionally validated, optionally biased) ABBA.

    ``validator`` is the external-validity predicate (default: accept
    everything, i.e. plain binary agreement).  ``bias``, if given, replaces
    the round-1 coin by the constant ``bias`` (paper Sec. 2.3: a biased
    protocol always decides the preferred value when it detects that an
    honest party proposed it).
    """

    MESSAGES = {
        MSG_PREVOTE: (ROUND, BIT, PREVOTE_JUST, PROOF, bytes),
        MSG_MAINVOTE: OneOf(  # justified by the pre-votes' signature, or abstain
            (ROUND, BIT, bytes, PROOF, bytes),
            (ROUND, {ABSTAIN}, (EXAMPLE, EXAMPLE), None, bytes),
        ),
        MSG_COIN: (ROUND, bytes),
        MSG_DECIDE: (ROUND, BIT, bytes, PROOF),
    }

    def __init__(
        self,
        ctx: Context,
        pid: str,
        validator: Optional[BinaryValidator] = None,
        bias: Optional[int] = None,
    ):
        super().__init__(ctx, pid)
        if bias not in (None, 0, 1):
            raise ProtocolError(f"bias must be 0, 1 or None, got {bias!r}")
        self.validator: BinaryValidator = validator or _always_valid
        self.bias = bias
        self.round = 0  # 0 = not started; rounds are 1-based
        self._rounds: Dict[int, _RoundState] = {}
        self._preference = 0  # set by _start
        self._pref_just: Any = None
        self._proofs: Dict[int, Optional[bytes]] = {}
        self._prevote_sent_for: Set[int] = set()
        self._decide_rebroadcast = False
        #: coin shares already verified, keyed (round, share bytes) — the
        #: same shares recur in many soft-pre-vote justifications.
        self._coin_ok: Set[Tuple[int, bytes]] = set()

    # -- convenience accessors ---------------------------------------------------

    @property
    def _quorum(self) -> int:
        return self.ctx.n - self.ctx.t

    def _state(self, r: int) -> _RoundState:
        return self._rounds.setdefault(r, _RoundState())

    def _scheme(self):
        return self.ctx.crypto.aba_scheme

    # -- paper API ------------------------------------------------------------------

    def propose(self, value: Any, proof: Optional[bytes] = None) -> None:
        value = int(bool(value))
        if not self.validator(value, proof):
            raise ProtocolError("own proposal fails the validity predicate")
        super().propose(value, proof)

    def get_proof(self) -> Optional[bytes]:
        """Validation data for the decided value (after decision)."""
        if not self.decided.done:
            raise ProtocolError("agreement has not decided yet")
        return self.decided.value[1]

    # -- protocol start ------------------------------------------------------------

    def _start(self, value: int, proof: Optional[bytes]) -> None:
        self._proofs[value] = proof
        self._preference = value
        self._pref_just = None
        self.round = 1
        self._send_prevote()
        self._replay_round()

    # -- sending --------------------------------------------------------------------

    def _send_prevote(self) -> None:
        r, b = self.round, self._preference
        if r in self._prevote_sent_for:
            return
        self._prevote_sent_for.add(r)
        share = self.ctx.crypto.aba_signer.sign_share(prevote_string(self.pid, r, b))
        self.send_all(
            MSG_PREVOTE, (r, b, self._pref_just, self._proofs.get(b), share)
        )

    # -- message handling -------------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if mtype == MSG_PREVOTE:
            self._on_prevote(sender, payload)
        elif mtype == MSG_MAINVOTE:
            self._on_mainvote(sender, payload)
        elif mtype == MSG_COIN:
            self._on_coin(sender, payload)
        else:
            self._on_decide(sender, payload)

    # -- pre-votes -----------------------------------------------------------------------

    def _on_prevote(self, sender: int, payload: Vote) -> None:
        r, b, just, proof, share = payload
        state = self._state(r)
        if sender in state.prevotes or sender in state.banned:
            return  # only the first pre-vote per sender counts
        if not self._valid_prevote(r, b, just, proof):
            return
        scheme = self._scheme()
        try:
            if scheme.share_index(share) != sender + 1:
                return
        except InvalidShare:
            return
        # Shares are accepted optimistically (verified en bloc at combine
        # time) — except the one kept as the per-value example, which may
        # be embedded in an abstain justification and must be sound.
        if b not in state.example_prevote:
            if not self.ctx.crypto.verifier.sig_share_ok(
                scheme, prevote_string(self.pid, r, b), share
            ):
                state.banned.add(sender)
                return
            state.example_prevote[b] = (b, just, proof, share)
        state.prevotes[sender] = b
        state.prevote_shares[b][sender + 1] = share
        self._store_proof(b, proof)
        if r == self.round:
            self._check_prevotes()

    def _valid_prevote(self, r: int, b: int, just: Any, proof: Optional[bytes]) -> bool:
        """Check a pre-vote's justification (and external validity)."""
        if not self.validator(b, proof):
            return False
        if r == 1:
            return just is None
        if just is None:
            return False  # a later round's pre-vote needs a justification
        scheme = self._scheme()
        verifier = self.ctx.crypto.verifier
        if just[0] == "hard":
            return verifier.sig_ok(scheme, prevote_string(self.pid, r - 1, b), just[1])
        _, abstain_sig, coin_shares = just
        if not verifier.sig_ok(
            scheme, mainvote_string(self.pid, r - 1, ABSTAIN), abstain_sig
        ):
            return False
        return self._coin_matches(r - 1, b, coin_shares)

    def _coin_matches(self, r: int, b: int, coin_shares: List[bytes]) -> bool:
        """Does round ``r``'s coin, established by ``coin_shares``, equal ``b``?"""
        if self.bias is not None and r == 1:
            return b == self.bias  # the biased round needs no coin at all
        coin = self.ctx.crypto.coin
        name = coin_name(self.pid, r)
        valid: Dict[int, bytes] = {}
        for cs in coin_shares:
            index = coin.share_index(cs)
            if index is not None and self._coin_share_ok(r, name, cs):
                valid[index] = cs
            if len(valid) >= coin.k:
                break
        if len(valid) < coin.k:
            return False
        return coin.assemble_bit(name, valid) == b

    def _coin_share_ok(self, r: int, name: bytes, share: bytes) -> bool:
        """Verify a coin share with memoization."""
        key = (r, share)
        if key in self._coin_ok:
            return True
        if self.ctx.crypto.coin.verify_share(name, share):
            self._coin_ok.add(key)
            return True
        return False

    def _check_prevotes(self) -> None:
        r = self.round
        state = self._state(r)
        if state.mainvote_sent or len(state.prevotes) < self._quorum:
            return
        scheme = self._scheme()
        values = set(state.prevotes.values())
        just: Any  # the pre-votes' signature, or two example pre-votes
        if len(values) == 1:
            b = values.pop()
            sig = combine_optimistically(
                scheme,
                prevote_string(self.pid, r, b),
                state.prevote_shares[b],
                verifier=self.ctx.crypto.verifier,
            )
            if sig is None:
                self._evict(state.prevotes, state.prevote_shares[b], b, state)
                return  # wait for further (honest) pre-votes
            v, just, proof = b, sig, self._proofs.get(b)
        else:
            v = ABSTAIN
            just = (state.example_prevote[0], state.example_prevote[1])
            proof = None
        state.mainvote_sent = True
        share = self.ctx.crypto.aba_signer.sign_share(mainvote_string(self.pid, r, v))
        self.send_all(MSG_MAINVOTE, (r, v, just, proof, share))

    @staticmethod
    def _evict(
        votes: Dict[int, int],
        shares: Dict[int, bytes],
        value: int,
        state: _RoundState,
    ) -> None:
        """Drop votes whose shares were evicted by the optimistic combiner."""
        for sender in [s for s, v in votes.items() if v == value and s + 1 not in shares]:
            del votes[sender]
            state.banned.add(sender)

    # -- main-votes ------------------------------------------------------------------------

    def _on_mainvote(self, sender: int, payload: Vote) -> None:
        r, v, just, proof, share = payload
        state = self._state(r)
        if sender in state.mainvotes or sender in state.banned:
            return
        if not self._valid_mainvote(r, v, just, proof):
            return
        scheme = self._scheme()
        try:
            if scheme.share_index(share) != sender + 1:
                return
        except InvalidShare:
            return
        state.mainvotes[sender] = v
        state.mainvote_shares[v][sender + 1] = share
        if v != ABSTAIN:
            self._store_proof(v, proof)
            if state.hard is None:
                state.hard = (v, just)
        else:
            # Embedded justified pre-votes carry validation data for both
            # values — record it, so a later coin-based pre-vote is
            # externally justified.
            for b, _, embedded_proof, _ in just:
                self._store_proof(b, embedded_proof)
        if r == self.round:
            self._check_mainvotes()

    def _valid_mainvote(self, r: int, v: int, just: Any, proof: Optional[bytes]) -> bool:
        scheme = self._scheme()
        if v != ABSTAIN:
            if not self.validator(v, proof):
                return False
            return self.ctx.crypto.verifier.sig_ok(
                scheme, prevote_string(self.pid, r, v), just
            )
        # Abstain: embed one justified pre-vote for 0 and one for 1.
        if {entry[0] for entry in just} != {0, 1}:
            return False
        for b, pv_just, pv_proof, pv_share in just:
            if not self._valid_prevote(r, b, pv_just, pv_proof):
                return False
            if not self.ctx.crypto.verifier.sig_share_ok(
                scheme, prevote_string(self.pid, r, b), pv_share
            ):
                return False
        return True

    def _check_mainvotes(self) -> None:
        r = self.round
        state = self._state(r)
        if len(state.mainvotes) < self._quorum:
            return
        values = set(state.mainvotes.values())
        if len(values) == 1 and ABSTAIN not in values:
            b = values.pop()
            sig = combine_optimistically(
                self._scheme(),
                mainvote_string(self.pid, r, b),
                state.mainvote_shares[b],
                verifier=self.ctx.crypto.verifier,
            )
            if sig is None:
                self._evict(state.mainvotes, state.mainvote_shares[b], b, state)
                return
            self._decide(r, b, sig)
            return
        # No decision: release this round's coin share (step 3)...
        if not state.coin_share_sent:
            state.coin_share_sent = True
            if not (self.bias is not None and r == 1):
                cs = self.ctx.crypto.coin_holder.release(coin_name(self.pid, r))
                self.send_all(MSG_COIN, (r, cs))
            else:
                state.coin_value = self.bias
        # ... and move on (step 4): adopt a hard preference immediately,
        # otherwise wait for the coin.
        self._try_advance()

    # -- coin ---------------------------------------------------------------------------------

    def _on_coin(self, sender: int, payload: Tuple[int, bytes]) -> None:
        r, share = payload
        state = self._state(r)
        if sender + 1 in state.coin_shares:
            return
        coin = self.ctx.crypto.coin
        name = coin_name(self.pid, r)
        if coin.share_index(share) != sender + 1:
            return  # a share must come from its owner
        if not self._coin_share_ok(r, name, share):
            return
        state.coin_shares[sender + 1] = share
        if state.coin_value is None and len(state.coin_shares) >= coin.k:
            state.coin_value = coin.assemble_bit(name, state.coin_shares)
            if r == self.round:
                self._try_advance()

    # -- round advancement -------------------------------------------------------------------

    def _try_advance(self) -> None:
        r = self.round
        state = self._state(r)
        if not state.coin_share_sent:  # main-vote phase not finished
            return
        if state.hard is not None:
            b, sig = state.hard
            self._preference = b
            self._pref_just = ("hard", sig)
        elif state.coin_value is not None:
            c = state.coin_value
            abstain_sig = combine_optimistically(
                self._scheme(),
                mainvote_string(self.pid, r, ABSTAIN),
                state.mainvote_shares[ABSTAIN],
                verifier=self.ctx.crypto.verifier,
            )
            if abstain_sig is None:
                self._evict(
                    state.mainvotes, state.mainvote_shares[ABSTAIN], ABSTAIN, state
                )
                return  # wait for further honest abstain main-votes
            shares = list(state.coin_shares.values())
            self._preference = c
            self._pref_just = ("soft", abstain_sig, shares)
        else:
            return  # waiting for the coin
        self.round = r + 1
        self._send_prevote()
        self._replay_round()

    def _replay_round(self) -> None:
        """Re-evaluate already-buffered votes for the (new) current round."""
        self._check_prevotes()
        state = self._state(self.round)
        if state.mainvote_sent:
            self._check_mainvotes()

    # -- decision -------------------------------------------------------------------------------

    def _decide(self, r: int, b: int, sig: bytes) -> None:
        proof = self._proofs.get(b)
        self.send_all(MSG_DECIDE, (r, b, sig, proof))
        self._conclude(b, proof)

    def _on_decide(self, sender: int, payload: Tuple[int, int, bytes, Optional[bytes]]) -> None:
        r, b, sig, proof = payload
        if not self.validator(b, proof):
            return
        if not self.ctx.crypto.verifier.sig_ok(
            self._scheme(), mainvote_string(self.pid, r, b), sig
        ):
            return
        self._store_proof(b, proof)
        if not self._decide_rebroadcast:
            # Relay the transferable decision so every party terminates.
            self._decide_rebroadcast = True
            self.send_all(MSG_DECIDE, (r, b, sig, self._proofs.get(b)))
        self._conclude(b, self._proofs.get(b))

    # -- misc ----------------------------------------------------------------------------------

    def _store_proof(self, b: int, proof: Optional[bytes]) -> None:
        if self._proofs.get(b) is None and proof is not None:
            if self.validator(b, proof):
                self._proofs[b] = proof

