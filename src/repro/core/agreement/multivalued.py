"""Multi-valued Byzantine agreement — "array agreement" (paper Secs. 2.4, 3.3).

Agreement on values from arbitrary domains with *external validity*: a
global predicate ``validator(value) -> bool`` known to every party
determines which proposals are acceptable, so the group can only decide a
value acceptable to honest parties.

The protocol of Cachin, Kursawe, Petzold and Shoup, built from verifiable
consistent broadcast and biased validated binary agreement:

1. every party VCBC-broadcasts its proposal; a party waits for ``n - t``
   delivered proposals satisfying the predicate, then enters the loop;
2. candidates ``P_a`` are taken in the order of a permutation ``Pi``
   (fixed, or derived from locally available common information — both
   variants the paper implements); for each candidate every party

   a. sends a *yes-vote* carrying the VCBC closing message if it has
      accepted ``P_a``'s proposal, a *no-vote* otherwise (a received
      yes-vote hands over the proposal, closing the VCBC);
   b. waits for ``n - t`` proper vote messages;
   c. runs a 1-biased validated binary agreement, proposing 1 iff it has
      ``P_a``'s proposal, with the closing message's threshold signature
      as the external proof;
   d. on decision 1 proceeds to deliver, otherwise moves to the next
      candidate;

3. a party missing the winning proposal obtains it from the validation
   data returned by the binary agreement.

The loop takes ``O(t)`` iterations in expectation and ``O(t n^2)``
messages, as stated in the paper.  Of the three candidate-order variants
of Sec. 2.4, the two SINTRA implements are provided: fixed, and randomized
from local information.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.encoding import encode
from repro.common.errors import ProtocolError
from repro.core.agreement.base import Agreement
from repro.core.agreement.validated import ValidatedAgreement
from repro.core.broadcast.verifiable import (
    VerifiableConsistentBroadcast,
    parse_closing,
)
from repro.core.protocol import Context
from repro.core.schema import OneOf, Range

MSG_VOTE = "vote"

ORDER_FIXED = "fixed"
ORDER_RANDOM = "random"

#: ``validator(value) -> bool`` — the global external-validity predicate.
ArrayValidator = Callable[[bytes], bool]


def _accept_all(value: bytes) -> bool:
    return True


def candidate_order(pid: str, n: int, order: str) -> List[int]:
    """The candidate permutation ``Pi`` (common to all parties).

    The two variants SINTRA implements (Sec. 2.4):

    * ``fixed`` — the identity permutation;
    * ``random`` — derived from the protocol identifier, i.e. from
      information locally available to every party; balances load but
      offers no more security than a fixed order.
    """
    if order == ORDER_FIXED:
        return list(range(n))
    if order == ORDER_RANDOM:
        return permutation_from_seed(encode(("mvba-order", pid)), n)
    raise ProtocolError(f"unknown candidate order {order!r}")


def permutation_from_seed(seed: bytes, n: int) -> List[int]:
    """A permutation of ``0..n-1`` derived deterministically from bytes."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class ArrayAgreement(Agreement):
    """One instance of multi-valued Byzantine agreement.

    ``decide()`` resolves with ``(payload, closing)`` where ``closing`` is
    the winning proposal's VCBC closing message.
    """

    #: (iteration, has, closing): a yes-vote hands over the closing
    MESSAGES = {MSG_VOTE: OneOf((Range(0), {True}, bytes), (Range(0), {False}, None))}

    def __init__(
        self,
        ctx: Context,
        pid: str,
        validator: Optional[ArrayValidator] = None,
        order: str = ORDER_RANDOM,
    ):
        super().__init__(ctx, pid)
        self.validator: ArrayValidator = validator or _accept_all
        self.order = candidate_order(pid, ctx.n, order)
        self._vcbc: List[VerifiableConsistentBroadcast] = []
        for j in range(ctx.n):
            bc = VerifiableConsistentBroadcast(ctx, f"{pid}/vcbc", j)
            bc.on_deliver = self._on_proposal_delivered
            self._vcbc.append(bc)
        #: candidate -> (payload, closing) for predicate-valid proposals
        self._proposals: Dict[int, Tuple[bytes, bytes]] = {}
        #: candidate -> {sender: yes/no}
        self._votes: Dict[int, Dict[int, bool]] = {}
        self._iteration = -1  # index into the (cyclic) candidate sequence
        self._vba: Optional[ValidatedAgreement] = None
        self._vba_proposed = False
        self.rounds_used = 0  # candidate iterations consumed (for metrics)

    # -- stage 1: proposals via VCBC ----------------------------------------------

    def propose(self, value: bytes, proof: Optional[bytes] = None) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise ProtocolError("array agreement negotiates byte strings")
        value = bytes(value)
        if not self.validator(value):
            raise ProtocolError("own proposal fails the validity predicate")
        super().propose(value, proof)

    def _start(self, value: bytes, proof: Optional[bytes]) -> None:
        self._vcbc[self.ctx.node_id].send(value)

    def _on_proposal_delivered(
        self, bc: VerifiableConsistentBroadcast, payload: bytes
    ) -> None:
        if self.halted:
            return
        j = bc.sender
        if j in self._proposals or not self.validator(payload):
            return
        self._proposals[j] = (payload, bc.get_closing())
        if self._iteration < 0 and len(self._proposals) >= self.ctx.n - self.ctx.t:
            self._next_candidate()

    # -- stage 2: the candidate loop --------------------------------------------------

    @property
    def _candidate(self) -> int:
        return self.order[self._iteration % self.ctx.n]

    def _next_candidate(self) -> None:
        self._iteration += 1
        self.rounds_used += 1
        a = self._candidate
        has = a in self._proposals
        closing = self._proposals[a][1] if has else None
        self.send_all(MSG_VOTE, (self._iteration, has, closing))
        validator = self._make_bin_validator(a)
        self._vba = ValidatedAgreement(
            self.ctx, f"{self.pid}/vba.{self._iteration}", validator, bias=1
        )
        self._vba.on_decide = self._on_vba_decided
        self._vba_proposed = False
        self._check_votes()

    def _make_bin_validator(self, a: int):
        vcbc_pid = f"{self.pid}/vcbc.{a}"

        def is_valid(value: int, proof: Optional[bytes]) -> bool:
            if value == 0:
                return True
            if proof is None:
                return False
            parsed = parse_closing(self.ctx.crypto, vcbc_pid, proof)
            if parsed is None:
                return False
            return self.validator(parsed[0])

        return is_valid

    # -- votes ---------------------------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        iteration, has, closing = payload
        votes = self._votes.setdefault(iteration, {})
        if sender in votes:
            return
        a = self.order[iteration % self.ctx.n]
        if has:
            # A proper yes-vote hands over the proposal via its closing
            # message; an unverifiable yes-vote is improper and ignored.
            if a not in self._proposals:
                if not self._vcbc[a].deliver_closing(closing):
                    return
                # deliver_closing triggers _on_proposal_delivered, which
                # records the proposal if the predicate accepts it.
                if a not in self._proposals:
                    return
            votes[sender] = True
        else:
            votes[sender] = False
        if iteration == self._iteration:
            self._check_votes()

    def _check_votes(self) -> None:
        if self._vba is None or self._vba_proposed or self.halted:
            return
        votes = self._votes.setdefault(self._iteration, {})
        a = self._candidate
        # Own vote is included via the self-delivered vote message; count
        # n - t proper votes before starting the binary agreement.
        if len(votes) < self.ctx.n - self.ctx.t:
            return
        self._vba_proposed = True
        if a in self._proposals:
            self._vba.propose(1, self._proposals[a][1])
        else:
            self._vba.propose(0, None)

    # -- teardown ---------------------------------------------------------------------------

    def abort(self) -> None:
        """Abort this instance and its live sub-protocols.

        Used by the pipelined atomic channel to tear down agreements for
        rounds past the closing round: the constituent broadcasts and the
        current binary agreement are aborted so they release their routing
        state along with the instance itself.
        """
        for bc in self._vcbc:
            if not bc.halted:
                bc.abort()
        if self._vba is not None and not self._vba.halted:
            self._vba.abort()
        super().abort()

    # -- binary agreement outcome ----------------------------------------------------------

    def _on_vba_decided(
        self, vba: ValidatedAgreement, bit: int, proof: Optional[bytes]
    ) -> None:
        if self.halted:
            return
        a = self.order[int(vba.pid.rsplit(".", 1)[1]) % self.ctx.n]
        if bit != 1:
            self._next_candidate()
            return
        if a not in self._proposals and proof is not None:
            # Step 3: obtain the proposal from the agreement's validation
            # data (a valid closing message for P_a's broadcast).
            self._vcbc[a].deliver_closing(proof)
        if a not in self._proposals:
            # Cannot happen for a correctly validated decision: a bug.
            raise ProtocolError(f"decided candidate {a} without its proposal")
        payload, closing = self._proposals[a]
        for bc in self._vcbc:
            if not bc.halted:
                bc.abort()
        self._conclude(payload, closing)
