"""Atomic broadcast channel (paper Sec. 2.5) with batching and pipelining.

Guarantees that all honest parties deliver the same *sequence* of payload
messages (agreement + total order) and that a payload known to at least
``f`` parties is delivered after a bounded delay (fairness).  Built, like
the Chandra-Toueg protocol for the crash model, from rounds of multi-valued
Byzantine agreement on message batches:

* in every round each party digitally signs a *vector* of up to
  ``max_batch`` pending messages together with the round number and sends
  it to all; with nothing of its own to send, it adopts and signs messages
  first signed by another party.  ``max_batch = 1`` is the paper's
  configuration (one record per signer);
* each party proposes a batch of ``n - f + 1`` properly signed round-``r``
  vectors from distinct signers to multi-valued agreement (batch size is
  the configurable parameter; the paper's experiments use ``t + 1``, i.e.
  ``f = n - t``);
* all vectors of the agreed batch are delivered in a fixed order — by the
  index of the signing party, then by position inside the vector — which
  is what produces the two "bands" of Figures 4 and 5;
* payloads are identified by (origin, per-origin sequence number), the
  paper's deliberate relaxation of ideal integrity (Sec. 2.5): a bit
  string is delivered at most once per time an honest party sent it, and
  duplicate filtering beyond that is the application's business;
* a party closes the channel by sending a termination request as a regular
  payload; the channel terminates after the round in which ``t + 1``
  parties' requests have been delivered.

Two throughput extensions beyond the paper's strictly sequential rounds
(see ``docs/THROUGHPUT.md``):

**Pipelining** (``pipeline_depth``): candidates are emitted and agreement
instances run for every round in the window ``[r, r + depth)`` where ``r``
is the lowest undelivered round.  Decisions for later rounds are buffered
and *delivery stays strictly in round order*, so the total order is
unchanged — only the collect/propose phase of round ``r + 1`` overlaps the
agreement phase of round ``r``.  A party signs a candidate for a round
*above* ``r`` only when its vector is full (``max_batch`` records): a
partial vector waits until its round is the lowest and then takes
whatever has arrived, as at depth 1, so a window of rounds does not cut a
backlog into many small vectors, and with ``max_batch = 1`` every vector
is full and the rule is vacuous.  Because a round can be validated before
an earlier round has delivered locally, the batch validity predicate must
not depend on the local delivery frontier: instead of the paper's "none
already delivered before round r" clause, duplicates are filtered
deterministically at delivery time (every honest party delivers rounds in
the same order, so the filter is identical everywhere).  A Byzantine
signer can waste its own batch slot on stale records, but each batch
carries at least ``batch_size - t >= 1`` honest vectors, so liveness and
fairness are preserved.

A candidate entry is ``(signer, vector, sig)``: the vector under its
signer's RSA signature over ``(channel, round, digest)``, sent inline
(``MSG_QUEUE``, the channel's one message type), its shape declared once
(``VECTOR``).  One ``_check`` judges an entry, on arrival *and* inside
the agreement's external-validity predicate, so the two cannot drift
apart.  It is two halves, also called apart: ``_parse`` is codec only
(distinct record keys, the statement the signature must cover) and
``_verify`` is the one crypto call on that statement.  The agreement
evaluates its predicate many times per round on a handful of distinct
proposals, so each round keeps its ``_parse`` results and calls
``_verify`` again on every evaluation: a signature is never taken on
trust from an earlier verdict.
The round loop — pick, announce, collect, agree, deliver in order, close
— holds one :class:`_Round` record per round in flight.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, ProtocolError
from repro.common.runs import Runs
from repro.core.agreement.multivalued import ORDER_RANDOM, ArrayAgreement
from repro.core.channel.base import Channel
from repro.core.protocol import Context
from repro.core.schema import Range, Seq, conforms

MSG_QUEUE = "queue"  # candidate announcement: (r, vector, sig)

SIGN_DOMAIN = "sintra.atomic"

KIND_APP = 0
KIND_CLOSE = 1
KIND_CIPHER = 2  # used by the secure causal channel subclass

#: hard upper bound on records per candidate vector — a protocol constant
#: (not the local ``max_batch`` knob) so the batch validity predicate stays
#: a pure function every party evaluates identically
VECTOR_LIMIT = 1024

#: why ordering stopped (``AtomicChannel._stopped``, ``None`` while it has
#: not): CLOSED by ``t + 1`` delivered close requests — decryptions may
#: still drain; FROZEN by an epoch barrier or ``abort()`` — superseded,
#: answers nothing
CLOSED = "closed"
FROZEN = "frozen"

#: a candidate record: (origin, seq, kind, data)
Record = Tuple[int, int, int, bytes]
#: a candidate vector: 1..VECTOR_LIMIT records (repro.core.schema)
VECTOR = Seq((int, Range(0), {KIND_APP, KIND_CLOSE, KIND_CIPHER}, bytes), 1, VECTOR_LIMIT)
#: an agreed batch: candidate entries (signer, vector, sig)
BATCH = Seq((Range(0), VECTOR, int))
#: one candidate entry: (signer, vector, sig)
Entry = Tuple[int, List[Record], int]
#: a parsed entry: (signer, vector, sig, the statement ``sig`` covers)
Parsed = Tuple[int, List[Record], int, bytes]


def vector_digest(vector: List[Record]) -> bytes:
    """Collision-resistant digest of a candidate vector."""
    return hashlib.sha256(encode(list(vector))).digest()


def sign_string(pid: str, r: int, digest: bytes) -> bytes:
    """The string a party signs to put a vector forward in round ``r``."""
    return encode(("atomic-batch", pid, r, digest))


@dataclass
class _Round:
    """What one round in flight holds; dropped whole when it delivers."""

    #: signer -> (vector, sig), checked, in arrival order
    candidates: Dict[int, Tuple[List[Record], int]] = field(default_factory=dict)
    #: keys riding this party's own candidate; empty until it is out
    own_keys: Set[Tuple[int, int]] = field(default_factory=set)
    #: the round's agreement instance while it runs
    mvba: Optional[ArrayAgreement] = None
    #: the agreed batch, awaiting strictly in-order delivery
    decided: Optional[List[Entry]] = None
    #: proposal bytes -> its parsed entries, once it fully validated; at
    #: most ``n`` (VCBC consistency: one valid proposal per sender)
    parsed: Dict[bytes, List[Parsed]] = field(default_factory=dict)


@dataclass(frozen=True)
class ChannelResume:
    """Where a channel continues a predecessor: recovery builds one from
    durable history, :meth:`AtomicChannel.harvest_resume` from a channel
    frozen at an epoch barrier.  ``delivered`` carries duplicate
    suppression over (per-origin sequence numbers continue at
    ``next_seq``) and is copied, never kept, by the channel that takes
    it; ``own_records`` and ``pending`` re-enter agreement with no
    ``send()`` — from the own queue and the adoption pool, so fairness
    carries over too."""

    round: int = 1
    delivered: Runs = field(default_factory=Runs)
    close_origins: Tuple[int, ...] = ()
    next_seq: int = 0
    own_records: Tuple[Record, ...] = ()
    pending: Tuple[Record, ...] = ()

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ProtocolError(f"resume round must be >= 1, got {self.round}")


class AtomicChannel(Channel):
    """One party's endpoint of the atomic broadcast channel."""

    kind = "atomic"
    MESSAGES = {MSG_QUEUE: (Range(1), VECTOR, int)}

    def __init__(
        self,
        ctx: Context,
        pid: str,
        fairness_f: Optional[int] = None,
        order: str = ORDER_RANDOM,
        max_pending: Optional[int] = None,
        max_batch: int = 1,
        pipeline_depth: int = 1,
        resume: ChannelResume = ChannelResume(),
    ):
        super().__init__(ctx, pid, max_pending=max_pending)
        n, t = ctx.n, ctx.t
        f = fairness_f if fairness_f is not None else n - t
        if not t + 1 <= f <= n - t:
            raise ProtocolError(f"fairness parameter must be in [t+1, n-t], got {f}")
        self.fairness_f = f
        self.batch_size = n - f + 1
        if not 1 <= max_batch <= VECTOR_LIMIT:
            raise ProtocolError(
                f"max_batch must be in [1, {VECTOR_LIMIT}], got {max_batch}"
            )
        self.max_batch = max_batch
        if pipeline_depth < 1:
            raise ProtocolError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        self.pipeline_depth = pipeline_depth
        self.order = order
        self.round = resume.round
        #: messages this party has sent but that are not yet delivered
        self._own_queue: List[Record] = []
        self._own_next_seq = resume.next_seq
        #: the rounds in flight, ``self.round`` and later
        self._rounds: Dict[int, _Round] = {}
        #: adoption pool: (origin, seq) -> record, in arrival order
        self._pending: Dict[Tuple[int, int], Record] = {}
        #: every key delivered since genesis, as per-origin runs
        self._delivered: Runs = resume.delivered.copy()
        self._close_origins: Set[int] = set(int(o) for o in resume.close_origins)
        for record in resume.own_records:
            if (record[0], record[1]) not in self._delivered:
                self._own_queue.append(record)
        for record in resume.pending:
            if (record[0], record[1]) not in self._delivered:
                self._pending.setdefault((record[0], record[1]), record)
        if self._own_queue or self._pending:
            # Carried-over records must re-enter agreement without waiting
            # for a fresh send; pump once construction has finished.
            ctx.defer(self._pump)
        #: keys inside decided-but-undelivered batches (will deliver soon)
        self._reserved: Set[Tuple[int, int]] = set()
        self._stopped: Optional[str] = None  # or CLOSED / FROZEN
        self.rounds_completed = 0
        #: count of slots delivered by *this instance* plus any resumed prefix
        self.slots_delivered = len(self._delivered)
        #: recovery hook: called at delivery of every slot (before the
        #: payload reaches the application) with
        #: (index, origin, seq, kind, data, round) — the write-ahead point
        #: for a durable delivery log.  Batched slots of one round share the
        #: round number; ``index`` is the stable per-payload sub-sequence.
        self.on_slot: Optional[Callable[[int, int, int, int, bytes, int], None]] = None
        #: recovery hook: called when a per-origin sequence number is
        #: allocated for an own send, with the *next* unused sequence number
        #: (persist it before the signed record can reach any peer).
        self.on_own_enqueue: Optional[Callable[[int], None]] = None
        #: recovery hook: the durability barrier for what the two hooks
        #: above appended.  Called once at the end of a round's delivery
        #: (before any of its payloads is applied, answered or acted on)
        #: and just before an own candidate is announced.
        self.on_sync: Optional[Callable[[], None]] = None
        #: membership hook: a *pure* predicate on delivered application
        #: payloads (every honest party evaluates it identically at the
        #: same slot).  When it fires, the record just delivered is the
        #: final slot of this channel's epoch: delivery stops mid-batch,
        #: in-flight agreements abort, the channel freezes, and
        #: ``on_barrier(round)`` is invoked.  Undelivered records are
        #: harvested with :meth:`harvest_resume` and carried into the
        #: successor channel.
        self.barrier_predicate: Optional[Callable[[bytes], bool]] = None
        #: membership hook: called once, synchronously, when the barrier
        #: freezes the channel, with the barrier round number.
        self.on_barrier: Optional[Callable[[int], None]] = None
        #: set at epoch cutover: a frozen channel forwards late own
        #: submissions here (``send()`` defers ``_submit`` through the
        #: scheduler, so one may land after the harvest — without the
        #: forward it would be silently lost).
        self.successor: Optional["AtomicChannel"] = None

    def _ordering(self) -> bool:
        """Whether rounds still run (``_stopped`` says why not)."""
        return self._stopped is None

    # -- submitting payloads ---------------------------------------------------------

    def _pending_count(self) -> int:
        return len(self._own_queue)

    def _submit(self, data: bytes) -> None:
        self._enqueue_own(KIND_APP, data)

    def _submit_close(self) -> None:
        self._enqueue_own(KIND_CLOSE, b"")

    def _enqueue_own(self, kind: int, data: bytes) -> None:
        if self._stopped == FROZEN and self.successor is not None:
            self.successor._enqueue_own(kind, data)
            return
        record: Record = (self.ctx.node_id, self._own_next_seq, kind, data)
        self._own_next_seq += 1
        if self.on_own_enqueue is not None:
            # The allocated sequence number must hit the log (and, through
            # ``on_sync`` in ``_try_emit``, the disk) before the signed
            # record can leave this process, or a restarted replica could
            # reuse it for a different payload.
            self.on_own_enqueue(self._own_next_seq)
        self._own_queue.append(record)
        self._pump()

    # -- the pipeline window ----------------------------------------------------------

    def _pump(self) -> None:
        """Emit candidates and start agreements across the pipeline window."""
        if not self._ordering():
            return
        for r in range(self.round, self.round + self.pipeline_depth):
            rnd = self._rounds.get(r)
            if rnd is None or rnd.decided is None:
                self._try_emit(r)
                self._maybe_propose(r)
        if self.obs.enabled:
            self.obs.set_gauge("atomic.pipeline.inflight", self._inflight())

    def _inflight(self) -> float:
        """Agreement instances running (the ``atomic.pipeline.inflight`` gauge)."""
        return float(sum(rnd.mvba is not None for rnd in self._rounds.values()))

    # -- per-round candidate emission ----------------------------------------------------

    def _try_emit(self, r: int) -> None:
        """Sign and circulate this party's round-``r`` candidate vector."""
        rnd = self._rounds.get(r)
        if rnd is not None and rnd.own_keys:
            return
        if r > self.round and (
            len(self._own_queue) + len(self._pending) < self.max_batch
        ):
            return  # at most a partial vector, which would wait (below)
        vector = self._pick_vector()
        if vector is None:
            return
        if r > self.round and len(vector) < self.max_batch:
            # A partial vector waits for the lowest round: it goes out
            # when ``r`` gets there, as it would at depth 1, with whatever
            # has arrived by then.
            return
        if rnd is None:
            rnd = self._rounds[r] = _Round()
        rnd.own_keys = {(rec[0], rec[1]) for rec in vector}
        if self.obs.enabled:
            # Phase 1 of a round: collecting signed candidates from peers.
            self.obs.phase((self.obs_scope, r), "atomic.collect")
        if self.on_sync is not None:
            self.on_sync()  # the own-send mark is durable before this leaves
        self._announce(r, vector)

    def _announce(self, r: int, vector: List[Record]) -> None:
        """Sign ``vector`` as this party's round-``r`` candidate and send it."""
        sig = self.ctx.crypto.sign(SIGN_DOMAIN, sign_string(self.pid, r, vector_digest(vector)))
        self.send_all(MSG_QUEUE, (r, vector, sig))

    def _pick_vector(self) -> Optional[List[Record]]:
        """Up to ``max_batch`` undelivered records: own queue first, then
        adoption of records first signed by other parties (fairness)."""
        out: List[Record] = []
        # keys already riding one of our in-flight candidates, then the
        # keys taken into ``out``
        taken: Set[Tuple[int, int]] = set()
        for rnd in self._rounds.values():
            taken |= rnd.own_keys

        def eligible(key: Tuple[int, int]) -> bool:
            return not (
                key in taken or key in self._delivered or key in self._reserved
            )

        for record in self._own_queue:
            key = (record[0], record[1])
            if eligible(key):
                taken.add(key)
                out.append(record)
                if len(out) == self.max_batch:
                    return out
        for key, record in self._pending.items():
            if eligible(key):
                taken.add(key)
                out.append(record)
                if len(out) == self.max_batch:
                    return out
        return out or None

    # -- candidate handling ------------------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if self._stopped != FROZEN:  # a frozen channel answers nothing
            self._on_candidate(sender, payload)

    def _on_candidate(self, sender: int, payload: Tuple[int, List[Record], int]) -> None:
        r, body, sig = payload
        if r < self.round:
            return  # stale
        rnd = self._rounds.get(r)
        if rnd is not None and (rnd.decided is not None or sender in rnd.candidates):
            return  # already agreed, or one candidate per signer per round
        vector = self._check(r, sender, body, sig)
        if vector is None:
            return
        if rnd is None:
            rnd = self._rounds[r] = _Round()
        rnd.candidates[sender] = (vector, sig)
        self._absorb(vector)
        self._pump()

    def _check(self, r: int, signer: int, body: List[Record], sig: int) -> Optional[List[Record]]:
        """The vector if ``(signer, body, sig)`` is a valid round-``r``
        entry, else ``None``.  Pure: reads no channel state."""
        statement = self._parse(r, body)
        if statement is None or not self._verify(signer, statement, sig):
            return None
        return body

    def _parse(self, r: int, vector: List[Record]) -> Optional[bytes]:
        """The statement ``vector``'s signer must have signed, or ``None``
        if two of its records share a key.  Codec only."""
        if len({(rec[0], rec[1]) for rec in vector}) < len(vector):
            return None
        return sign_string(self.pid, r, vector_digest(vector))

    def _verify(self, signer: int, statement: bytes, sig: int) -> bool:
        """Whether ``sig`` is ``signer``'s signature on ``statement``."""
        return self.ctx.crypto.verify_party(signer, SIGN_DOMAIN, statement, sig)

    def _absorb(self, vector: List[Record]) -> None:
        """Merge a seen vector into the adoption pool (fairness)."""
        for record in vector:
            key = (record[0], record[1])
            if key not in self._delivered:
                self._pending.setdefault(key, record)

    # -- the round's multi-valued agreement -----------------------------------------------------

    def _maybe_propose(self, r: int) -> None:
        rnd = self._rounds.get(r)
        if (
            rnd is None
            or rnd.mvba is not None
            or rnd.decided is not None
            or not self._ordering()
            or len(rnd.candidates) < self.batch_size
        ):
            return
        batch = self._assemble(rnd.candidates)
        mvba = ArrayAgreement(
            self.ctx,
            f"{self.pid}/r.{r}",
            validator=lambda value, r=r: self._decode_batch(r, value) is not None,
            order=self.order,
        )
        mvba.on_decide = (
            lambda _mvba, value, closing, r=r: self._on_round_decided(r, value)
        )
        rnd.mvba = mvba
        if self.obs.enabled:
            # Phase 2: the batch is in multi-valued Byzantine agreement.
            self.obs.phase((self.obs_scope, r), "atomic.agree")
            self.obs.set_gauge("atomic.pipeline.inflight", self._inflight())
        mvba.propose(encode(batch))

    def _assemble(self, candidates: Dict[int, Tuple[List[Record], int]]) -> List[Entry]:
        """Pick ``batch_size`` candidate entries from distinct signers.

        Entries that contribute at least one new undelivered key come
        first — two signers may have adopted the same records, and
        delivery deduplicates by (origin, seq), so distinct entries
        maximize throughput per agreement round; arrival order fills up.
        """
        chosen: List[Entry] = []
        covered: Set[Tuple[int, int]] = set()
        for signer, (vector, sig) in candidates.items():
            keys = {(rec[0], rec[1]) for rec in vector} - covered
            keys = {key for key in keys if key not in self._delivered}
            if not keys:
                continue
            covered.update(keys)
            chosen.append((signer, vector, sig))
            if len(chosen) == self.batch_size:
                return chosen
        picked = {signer for signer, _, _ in chosen}
        for signer, (vector, sig) in candidates.items():
            if signer in picked:
                continue
            chosen.append((signer, vector, sig))
            picked.add(signer)
            if len(chosen) == self.batch_size:
                break
        return chosen

    def _decode_batch(self, r: int, value: bytes) -> Optional[List[Entry]]:
        """Decode and fully validate a proposed batch for round ``r``.

        The external validity condition: exactly ``batch_size`` entries
        from distinct signers, each a valid round-``r`` entry by the same
        ``_check`` a candidate passes on arrival.  Unlike the paper's
        strictly sequential protocol, the predicate does *not* consult the
        local delivery frontier — under pipelining that frontier differs
        between parties while a later round validates, so duplicate
        records are instead filtered deterministically at delivery time.

        The agreement asks about the same few proposals many times a
        round.  A value that fully validated keeps its parsed entries on
        the round, so a repeat skips the codec — but never the crypto:
        every entry's proof is verified again on every call.
        """
        rnd = self._rounds.get(r)
        parsed = rnd.parsed.get(value) if rnd is not None else None
        if parsed is None:
            parsed = self._parse_batch(r, value)
            if parsed is None:
                return None
            if rnd is not None and len(rnd.parsed) < self.ctx.n:
                rnd.parsed[value] = parsed
        else:
            for signer, _, sig, statement in parsed:
                if not self._verify(signer, statement, sig):
                    return None
        return [(signer, vector, sig) for signer, vector, sig, _ in parsed]

    def _parse_batch(self, r: int, value: bytes) -> Optional[List[Parsed]]:
        """Decode ``value`` and ``_check`` each entry, parse then verify,
        stopping at the first that fails."""
        try:
            entries = decode(value)
        except EncodingError:
            return None
        if not conforms(entries, BATCH) or len(entries) != self.batch_size:
            return None
        signers: Set[int] = set()
        out: List[Parsed] = []
        for signer, body, sig in entries:
            if signer in signers:
                return None
            statement = self._parse(r, body)
            if statement is None or not self._verify(signer, statement, sig):
                return None
            out.append((signer, body, sig, statement))
            signers.add(signer)
        return out

    # -- delivery ------------------------------------------------------------------------------------

    def _on_round_decided(self, r: int, value: bytes) -> None:
        if not self._ordering():
            return
        rnd = self._rounds.get(r)
        if rnd is None or rnd.decided is not None:
            return  # stale decision (cannot happen without an abort race)
        rnd.mvba = None
        batch = self._decode_batch(r, value)
        if batch is None:  # cannot happen: the MVBA validated it
            raise ProtocolError("agreed batch failed validation")
        rnd.decided = batch
        for _signer, vector, _sig in batch:
            for record in vector:
                self._reserved.add((record[0], record[1]))
        if self.obs.enabled:
            self.obs.phase_end((self.obs_scope, r))  # closes "atomic.agree"
            self.obs.count("atomic.rounds")
            self.obs.set_gauge("atomic.pipeline.inflight", self._inflight())
        self._advance()

    def _advance(self) -> None:
        """Deliver decided rounds strictly in round order."""
        while self._ordering():
            r = self.round
            rnd = self._rounds.get(r)
            if rnd is None or rnd.decided is None:
                break
            del self._rounds[r]  # the round's state dies with the round
            self._deliver_round(r, rnd.decided)
        self._pump()

    def _deliver_round(self, r: int, batch: List[Entry]) -> None:
        delivered_now = 0
        # Fixed delivery order within the batch: by signer index, then by
        # position inside the signer's vector, up to a barrier record.
        for _signer, vector, _sig in sorted(batch, key=lambda e: e[0]):
            for record in vector:
                if self._ordering():
                    delivered_now += self._deliver_record(record, r)
        if self.on_sync is not None:
            self.on_sync()  # one barrier for the round's slots (group commit)
        self.rounds_completed += 1
        if self.obs.enabled:
            self.obs.count("atomic.batch_entries", len(batch))
            self.obs.count("atomic.batch.payloads", delivered_now)
            self.obs.observe("atomic.batch.size", float(delivered_now))
        if len(self._close_origins) >= self.ctx.t + 1:
            # Closing always wins over a barrier: a channel that has
            # collected t+1 close requests terminates for good.
            self._stop(CLOSED)
            self._finish()
            return
        if not self._ordering():
            # The barrier record is the last slot of its epoch.  Records
            # of this batch sequenced after it are NOT delivered here —
            # they rejoin the adoption pool and carry over to the epoch
            # e+1 channel, which delivers them under its own (fresh)
            # round numbering.  The round is deliberately not advanced:
            # this channel is done.
            for _signer, vector, _sig in batch:
                self._absorb(vector)
            self._stop(FROZEN)
            if self.obs.enabled:
                self.obs.count("atomic.barrier")
            if self.on_barrier is not None:
                self.on_barrier(r)
            return
        self.round = r + 1

    def _deliver_record(self, record: Record, r: int) -> int:
        origin, seq, kind, data = record
        key = (origin, seq)
        self._reserved.discard(key)  # even a duplicate: it was reserved once
        if not self._delivered.add(origin, seq):
            return 0
        self._pending.pop(key, None)
        # Drain every delivered prefix of the own queue: with batching, an
        # own record adopted by a peer can deliver before an earlier one.
        while (
            self._own_queue
            and (self._own_queue[0][0], self._own_queue[0][1]) in self._delivered
        ):
            self._own_queue.pop(0)
        index = self.slots_delivered
        self.slots_delivered = index + 1
        if self.on_slot is not None:
            self.on_slot(index, origin, seq, kind, data, r)
        if kind == KIND_CLOSE:
            self._close_origins.add(origin)
        else:
            if (
                kind == KIND_APP
                and self.barrier_predicate is not None
                and self.barrier_predicate(data)
            ):
                self._stopped = FROZEN  # _deliver_round finishes the freeze
            self._handle_delivered_payload(origin, seq, kind, data)
        return 1

    def _stop(self, why: str) -> None:
        """Ordering ends: abort and drop every round still in flight."""
        self._stopped = why
        for rnd in self._rounds.values():
            if rnd.mvba is not None:
                rnd.mvba.abort()
        self._rounds.clear()
        if self.obs.enabled:
            self.obs.set_gauge("atomic.pipeline.inflight", 0.0)

    # -- recovery introspection ------------------------------------------------------

    def harvest_resume(self) -> ChannelResume:
        """What the next epoch's channel needs to continue this one: it
        restarts at round 1 with this channel's delivered keys, close
        origins and own sequence counter, and with every undelivered
        record (own queue and adoption pool) back in agreement."""
        return ChannelResume(
            round=1,
            delivered=self._delivered.copy(),
            close_origins=tuple(sorted(self._close_origins)),
            next_seq=self._own_next_seq,
            own_records=tuple(
                rec for rec in self._own_queue
                if (rec[0], rec[1]) not in self._delivered
            ),
            pending=tuple(
                rec for key, rec in self._pending.items()
                if key not in self._delivered
            ),
        )

    def abort(self) -> None:
        """Tear the channel down without delivering anything further.

        Used at the epoch cutover after :meth:`harvest_resume`: in-flight
        agreements abort, the protocol unregisters (its pid is
        tombstoned, so straggling old-epoch frames are dropped at the
        router), and the ``closed`` future is left unresolved — the
        channel did not close, it was superseded."""
        self._stop(FROZEN)
        super().abort()

    def _handle_delivered_payload(
        self, origin: int, seq: int, kind: int, data: bytes
    ) -> None:
        """Hook: the secure causal channel intercepts ciphertexts here."""
        self._emit_output(origin, seq, data)

    def _finish(self) -> None:
        """Termination after the round in which t+1 close requests arrived."""
        self._terminate()
