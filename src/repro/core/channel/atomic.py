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
agreement phase of round ``r``.  Because a round can be validated before
an earlier round has delivered locally, the batch validity predicate must
not depend on the local delivery frontier: instead of the paper's "none
already delivered before round r" clause, duplicates are filtered
deterministically at delivery time (every honest party delivers rounds in
the same order, so the filter is identical everywhere).  A Byzantine
signer can waste its own batch slot on stale records, but each batch
carries at least ``batch_size - t >= 1`` honest vectors, so liveness and
fairness are preserved.

**Payload offloading** (``offload=True``): agreement runs on 32-byte
vector digests instead of the vectors themselves, keeping MVBA proposals
small when ``max_batch`` is large.  Bodies are disseminated point-to-point
(``MSG_BATCH``) and each receiver returns a signature share on the
statement ``(channel, round, signer, digest)``; ``n - t`` shares combine
into an *availability certificate* proving that at least ``n - 2t >= t+1``
honest parties hold the body.  The certificate — a pure, globally
checkable predicate — is what the MVBA validator verifies, and a party
missing a decided body fetches it (``MSG_FETCH``/``MSG_BODY``) from the
certified holders, so delivery cannot stall on a withheld body.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, ProtocolError
from repro.core.agreement.multivalued import ORDER_RANDOM, ArrayAgreement
from repro.core.channel.base import Channel
from repro.core.protocol import Context
from repro.crypto.threshold_sig import MultiSignatureScheme

MSG_QUEUE = "queue"   # candidate announcement: (r, vector, sig) / (r, digest, cert)
MSG_BATCH = "body"    # offload: body dissemination (r, vector)
MSG_ACK = "avail"     # offload: availability share (r, digest, share), unicast
MSG_FETCH = "fetch"   # offload: request a missing decided body (r, signer, digest)
MSG_BODY = "bodyr"    # offload: fetched-body reply (r, signer, vector), unicast

KIND_APP = 0
KIND_CLOSE = 1
KIND_CIPHER = 2  # used by the secure causal channel subclass

SIGN_DOMAIN = "sintra.atomic"
AVAIL_DOMAIN = "sintra.atomic.avail"

#: hard upper bound on records per candidate vector — a protocol constant
#: (not the local ``max_batch`` knob) so the batch validity predicate stays
#: a pure function every party evaluates identically
VECTOR_LIMIT = 1024
#: delivered rounds whose offloaded bodies stay cached to serve fetches
#: from lagging parties
BODY_KEEP_ROUNDS = 32

#: a candidate record: (origin, seq, kind, data)
Record = Tuple[int, int, int, bytes]


def vector_digest(vector: List[Record]) -> bytes:
    """Collision-resistant digest of a candidate vector."""
    return hashlib.sha256(encode(list(vector))).digest()


def sign_string(pid: str, r: int, digest: bytes) -> bytes:
    """The string a party signs to put a vector forward in round ``r``."""
    return encode(("atomic-batch", pid, r, digest))


def avail_string(pid: str, r: int, signer: int, digest: bytes) -> bytes:
    """The availability statement receivers of a body sign a share on."""
    return encode(("atomic-avail", pid, r, signer, digest))


@dataclass(frozen=True)
class ChannelResume:
    """Where a channel continues a predecessor: recovery builds one from
    durable history, :meth:`AtomicChannel.harvest_resume` from a channel
    frozen at an epoch barrier.  ``delivered`` carries duplicate
    suppression over (per-origin sequence numbers continue at
    ``next_seq``); ``own_records`` and ``pending`` re-enter agreement with
    no ``send()`` — from the own queue and the adoption pool, so fairness
    carries over too."""

    round: int = 1
    delivered: Tuple[Tuple[int, int], ...] = ()
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

    def __init__(
        self,
        ctx: Context,
        pid: str,
        fairness_f: Optional[int] = None,
        order: str = ORDER_RANDOM,
        max_pending: Optional[int] = None,
        max_batch: int = 1,
        pipeline_depth: int = 1,
        offload: bool = False,
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
        self.offload = bool(offload)
        self.order = order
        self.round = resume.round
        #: messages this party has sent but that are not yet delivered
        self._own_queue: List[Record] = []
        self._own_next_seq = resume.next_seq
        #: round -> {signer: (vector-or-digest, proof)} in arrival order
        self._candidates: Dict[int, Dict[int, Tuple[Any, Any]]] = {}
        #: adoption pool: (origin, seq) -> record, in arrival order
        self._pending: Dict[Tuple[int, int], Record] = {}
        self._delivered: Set[Tuple[int, int]] = set(
            (int(o), int(s)) for o, s in resume.delivered
        )
        self._close_origins: Set[int] = set(int(o) for o in resume.close_origins)
        for raw in resume.own_records:
            record = self._check_record(tuple(raw))
            if record is not None and (record[0], record[1]) not in self._delivered:
                self._own_queue.append(record)
        for raw in resume.pending:
            record = self._check_record(tuple(raw))
            if record is not None and (record[0], record[1]) not in self._delivered:
                self._pending.setdefault((record[0], record[1]), record)
        if self._own_queue or self._pending:
            # Carried-over records must re-enter agreement without waiting
            # for a fresh send; pump once construction has finished.
            ctx.defer(self._pump)
        #: rounds for which this party's signed candidate is already out
        self._emitted: Set[int] = set()
        #: round -> keys inside this party's emitted candidate (in-flight)
        self._emitted_keys: Dict[int, Set[Tuple[int, int]]] = {}
        #: keys inside decided-but-undelivered batches (will deliver soon)
        self._reserved: Set[Tuple[int, int]] = set()
        #: in-flight agreement instances, one per pipelined round
        self._mvbas: Dict[int, ArrayAgreement] = {}
        #: decided rounds awaiting strictly in-order delivery
        self._decided: Dict[int, List[Tuple[int, Any, Any]]] = {}
        self._closing = False
        self.deliveries: List[Tuple[int, int, bytes]] = []  # (origin, seq, data)
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
        self._barrier_hit = False
        self._frozen = False
        # -- offload state -----------------------------------------------------
        if self.offload:
            crypto = ctx.crypto
            self._avail_scheme = MultiSignatureScheme(
                crypto.n, crypto.n - crypto.t, crypto.t,
                crypto.party_public_keys, AVAIL_DOMAIN,
            )
            self._avail_signer = self._avail_scheme.signer(
                crypto.index0 + 1, crypto.rsa
            )
        else:
            self._avail_scheme = None
            self._avail_signer = None
        #: (round, signer, digest) -> body vector
        self._bodies: Dict[Tuple[int, int, bytes], List[Record]] = {}
        self._body_count: Dict[Tuple[int, int], int] = {}
        self._acked: Set[Tuple[int, int]] = set()
        #: round -> digest of this party's own disseminated body
        self._own_digest: Dict[int, bytes] = {}
        #: round -> {1-based signer index: availability share}
        self._ack_shares: Dict[int, Dict[int, bytes]] = {}
        self._cert_done: Set[int] = set()
        self._fetched: Set[Tuple[int, int, bytes]] = set()
        self._served: Set[Tuple[int, int, int, bytes]] = set()

    # -- submitting payloads ---------------------------------------------------------

    def _pending_count(self) -> int:
        return len(self._own_queue)

    def _submit(self, data: bytes) -> None:
        self._enqueue_own(KIND_APP, data)

    def _submit_close(self) -> None:
        self._enqueue_own(KIND_CLOSE, b"")

    def _enqueue_own(self, kind: int, data: bytes) -> None:
        if self._frozen and self.successor is not None:
            self.successor._enqueue_own(kind, data)
            return
        record: Record = (self.ctx.node_id, self._own_next_seq, kind, data)
        self._own_next_seq += 1
        if self.on_own_enqueue is not None:
            # Durability barrier: the allocated sequence number must hit the
            # log before the signed record can leave this process, or a
            # restarted replica could reuse it for a different payload.
            self.on_own_enqueue(self._own_next_seq)
        self._own_queue.append(record)
        self._pump()

    # -- the pipeline window ----------------------------------------------------------

    def _pump(self) -> None:
        """Emit candidates and start agreements across the pipeline window."""
        if self._terminated or self._closing or self._frozen:
            return
        for r in range(self.round, self.round + self.pipeline_depth):
            if r in self._decided:
                continue
            self._try_emit(r)
            self._maybe_propose(r)
        if self.obs.enabled:
            self.obs.set_gauge("atomic.pipeline.inflight", float(len(self._mvbas)))

    # -- per-round candidate emission ----------------------------------------------------

    def _try_emit(self, r: int) -> None:
        """Sign and circulate this party's round-``r`` candidate vector."""
        if r in self._emitted:
            return
        vector = self._pick_vector()
        if vector is None:
            return
        self._emitted.add(r)
        self._emitted_keys[r] = {(rec[0], rec[1]) for rec in vector}
        if self.obs.enabled:
            # Phase 1 of a round: collecting signed candidates from peers.
            self.obs.phase((self.obs_scope, r), "atomic.collect")
        digest = vector_digest(vector)
        if self.offload:
            # Disseminate the body; the candidate announcement follows once
            # the availability certificate assembles (see _on_ack).
            self._own_digest[r] = digest
            self.send_all(MSG_BATCH, (r, vector))
        else:
            sig = self.ctx.crypto.sign(SIGN_DOMAIN, sign_string(self.pid, r, digest))
            self.send_all(MSG_QUEUE, (r, vector, sig))

    def _pick_vector(self) -> Optional[List[Record]]:
        """Up to ``max_batch`` undelivered records: own queue first, then
        adoption of records first signed by other parties (fairness)."""
        out: List[Record] = []
        taken: Set[Tuple[int, int]] = set()

        def eligible(key: Tuple[int, int]) -> bool:
            if key in self._delivered or key in self._reserved or key in taken:
                return False
            # skip keys already riding one of our in-flight candidates
            return not any(key in keys for keys in self._emitted_keys.values())

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

    # -- candidate and body handling --------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if self.halted or self._frozen:
            return
        if self._terminated:
            if mtype == MSG_FETCH:
                self._on_fetch(sender, payload)
            return
        if mtype == MSG_QUEUE:
            self._on_candidate(sender, payload)
        elif self.offload:
            if mtype == MSG_BATCH:
                self._on_body(sender, payload)
            elif mtype == MSG_ACK:
                self._on_ack(sender, payload)
            elif mtype == MSG_FETCH:
                self._on_fetch(sender, payload)
            elif mtype == MSG_BODY:
                self._on_fetched_body(sender, payload)

    def _on_candidate(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        r, body, proof = payload
        if not isinstance(r, int) or r < self.round or r in self._decided:
            return  # stale or already agreed
        round_candidates = self._candidates.setdefault(r, {})
        if sender in round_candidates:
            return  # one candidate per signer per round
        if self.offload:
            if not (isinstance(body, bytes) and isinstance(proof, bytes)):
                return
            if not self.ctx.crypto.accel.sig_ok(
                self._avail_scheme, avail_string(self.pid, r, sender, body), proof
            ):
                return
            round_candidates[sender] = (body, proof)
        else:
            vector = self._check_vector(body)
            if vector is None or not isinstance(proof, int):
                return
            digest = vector_digest(vector)
            if not self.ctx.crypto.verify_party(
                sender, SIGN_DOMAIN, sign_string(self.pid, r, digest), proof
            ):
                return
            round_candidates[sender] = (vector, proof)
            self._absorb(vector)
        self._pump()

    def _absorb(self, vector: List[Record]) -> None:
        """Merge a seen vector into the adoption pool (fairness)."""
        for record in vector:
            key = (record[0], record[1])
            if key not in self._delivered:
                self._pending.setdefault(key, record)

    @staticmethod
    def _check_record(record: Any) -> Optional[Record]:
        if not (isinstance(record, tuple) and len(record) == 4):
            return None
        origin, seq, kind, data = record
        if not (isinstance(origin, int) and isinstance(seq, int) and seq >= 0):
            return None
        if kind not in (KIND_APP, KIND_CLOSE, KIND_CIPHER) or not isinstance(data, bytes):
            return None
        return (origin, seq, kind, data)

    @classmethod
    def _check_vector(cls, vector: Any) -> Optional[List[Record]]:
        """Shape-check a candidate vector: 1..VECTOR_LIMIT well-formed
        records with distinct (origin, seq) keys."""
        if not isinstance(vector, (list, tuple)) or not 1 <= len(vector) <= VECTOR_LIMIT:
            return None
        out: List[Record] = []
        keys: Set[Tuple[int, int]] = set()
        for record in vector:
            record = cls._check_record(record)
            if record is None or (record[0], record[1]) in keys:
                return None
            keys.add((record[0], record[1]))
            out.append(record)
        return out

    # -- the round's multi-valued agreement -----------------------------------------------------

    def _maybe_propose(self, r: int) -> None:
        if (
            r in self._mvbas
            or r in self._decided
            or self._terminated
            or self._closing
            or self._frozen
        ):
            return
        round_candidates = self._candidates.get(r, {})
        if len(round_candidates) < self.batch_size:
            return
        batch = self._assemble(round_candidates)
        mvba = ArrayAgreement(
            self.ctx,
            f"{self.pid}/r.{r}",
            validator=self._batch_validator(r),
            order=self.order,
        )
        mvba.on_decide = (
            lambda _mvba, value, closing, r=r: self._on_round_decided(r, value)
        )
        self._mvbas[r] = mvba
        if self.obs.enabled:
            # Phase 2: the batch is in multi-valued Byzantine agreement.
            self.obs.phase((self.obs_scope, r), "atomic.agree")
            self.obs.set_gauge("atomic.pipeline.inflight", float(len(self._mvbas)))
        mvba.propose(self._encode_batch(batch))

    def _assemble(
        self, round_candidates: Dict[int, Tuple[Any, Any]]
    ) -> List[Tuple[int, Any, Any]]:
        """Pick ``batch_size`` candidate entries from distinct signers.

        Inline vectors are chosen preferring entries that contribute at
        least one new undelivered key — two signers may have adopted the
        same records, and delivery deduplicates by (origin, seq), so
        distinct entries maximize throughput per agreement round.
        Offloaded candidates are opaque digests; arrival order is used.
        """
        chosen: List[Tuple[int, Any, Any]] = []
        if not self.offload:
            covered: Set[Tuple[int, int]] = set()
            for signer, (vector, proof) in round_candidates.items():
                keys = {(rec[0], rec[1]) for rec in vector}
                keys -= self._delivered | covered
                if not keys:
                    continue
                covered.update(keys)
                chosen.append((signer, vector, proof))
                if len(chosen) == self.batch_size:
                    return chosen
        picked = {signer for signer, _, _ in chosen}
        for signer, (body, proof) in round_candidates.items():
            if signer in picked:
                continue
            chosen.append((signer, body, proof))
            picked.add(signer)
            if len(chosen) == self.batch_size:
                break
        return chosen

    def _encode_batch(self, batch: List[Tuple[int, Any, Any]]) -> bytes:
        return encode([(signer, body, proof) for signer, body, proof in batch])

    def _batch_validator(self, r: int):
        def is_valid(value: bytes) -> bool:
            return self._decode_batch(r, value) is not None

        return is_valid

    def _decode_batch(
        self, r: int, value: bytes
    ) -> Optional[List[Tuple[int, Any, Any]]]:
        """Decode and fully validate a proposed batch for round ``r``.

        The external validity condition: exactly ``batch_size`` entries
        from distinct signers, each either a well-formed vector properly
        signed for round ``r`` (inline) or a digest under a valid
        availability certificate for round ``r`` (offload).  Unlike the
        paper's strictly sequential protocol, the predicate does *not*
        consult the local delivery frontier — under pipelining that
        frontier differs between parties while a later round validates, so
        duplicate records are instead filtered deterministically at
        delivery time.
        """
        try:
            entries = decode(value)
        except EncodingError:
            return None
        if not isinstance(entries, list) or len(entries) != self.batch_size:
            return None
        signers: Set[int] = set()
        out: List[Tuple[int, Any, Any]] = []
        for entry in entries:
            if not (isinstance(entry, tuple) and len(entry) == 3):
                return None
            signer, body, proof = entry
            if (
                not isinstance(signer, int)
                or signer in signers
                or not 0 <= signer < self.ctx.n
            ):
                return None
            if self.offload:
                if not (isinstance(body, bytes) and isinstance(proof, bytes)):
                    return None
                if not self.ctx.crypto.accel.sig_ok(
                    self._avail_scheme, avail_string(self.pid, r, signer, body), proof
                ):
                    return None
                out.append((signer, body, proof))
            else:
                vector = self._check_vector(body)
                if vector is None:
                    return None
                if not isinstance(proof, int) or not self.ctx.crypto.verify_party(
                    signer, SIGN_DOMAIN,
                    sign_string(self.pid, r, vector_digest(vector)), proof,
                ):
                    return None
                out.append((signer, vector, proof))
            signers.add(signer)
        return out

    # -- delivery ------------------------------------------------------------------------------------

    def _on_round_decided(self, r: int, value: bytes) -> None:
        if self._terminated or self._closing or self._frozen:
            return
        self._mvbas.pop(r, None)
        if r < self.round or r in self._decided:
            return  # stale decision (cannot happen without an abort race)
        batch = self._decode_batch(r, value)
        if batch is None:  # cannot happen: the MVBA validated it
            raise ProtocolError("agreed batch failed validation")
        self._decided[r] = batch
        for signer, body, _ in batch:
            vector = body if not self.offload else self._bodies.get((r, signer, body))
            if vector is not None:
                for record in vector:
                    self._reserved.add((record[0], record[1]))
        if self.obs.enabled:
            self.obs.phase_end((self.obs_scope, r))  # closes "atomic.agree"
            self.obs.count("atomic.rounds")
            self.obs.set_gauge("atomic.pipeline.inflight", float(len(self._mvbas)))
        self._advance()

    def _advance(self) -> None:
        """Deliver decided rounds strictly in round order."""
        while (
            not self._terminated
            and not self._closing
            and not self._frozen
            and self.round in self._decided
        ):
            r = self.round
            batch = self._decided[r]
            resolved = self._resolve_bodies(r, batch)
            if resolved is None:
                return  # waiting on offloaded bodies; resumed on arrival
            del self._decided[r]
            self._deliver_round(r, batch, resolved)
        self._pump()

    def _resolve_bodies(
        self, r: int, batch: List[Tuple[int, Any, Any]]
    ) -> Optional[List[Tuple[int, List[Record]]]]:
        if not self.offload:
            return [(signer, vector) for signer, vector, _ in batch]
        resolved: List[Tuple[int, List[Record]]] = []
        missing: List[Tuple[int, bytes]] = []
        for signer, digest, _ in batch:
            vector = self._bodies.get((r, signer, digest))
            if vector is None:
                missing.append((signer, digest))
            else:
                resolved.append((signer, vector))
        if missing:
            # The certificate guarantees >= t+1 live honest holders.
            for signer, digest in missing:
                fetch_key = (r, signer, digest)
                if fetch_key not in self._fetched:
                    self._fetched.add(fetch_key)
                    if self.obs.enabled:
                        self.obs.count("atomic.offload.fetches")
                    self.send_all(MSG_FETCH, (r, signer, digest))
            return None
        return resolved

    def _deliver_round(
        self,
        r: int,
        batch: List[Tuple[int, Any, Any]],
        resolved: List[Tuple[int, List[Record]]],
    ) -> None:
        delivered_now = 0
        # Fixed delivery order within the batch: by signer index, then by
        # position inside the signer's vector.
        for signer, vector in sorted(resolved, key=lambda e: e[0]):
            for record in vector:
                delivered_now += self._deliver_record(record, r)
                if self._barrier_hit:
                    break
            if self._barrier_hit:
                break
        self.rounds_completed += 1
        self._candidates.pop(r, None)
        self._emitted.discard(r)
        self._emitted_keys.pop(r, None)
        if self.offload:
            self._gc_offload(r)
        if self.obs.enabled:
            self.obs.count("atomic.batch_entries", len(batch))
            self.obs.count("atomic.batch.payloads", delivered_now)
            self.obs.observe("atomic.batch.size", float(delivered_now))
        if len(self._close_origins) >= self.ctx.t + 1:
            # Closing always wins over a barrier: a channel that has
            # collected t+1 close requests terminates for good.
            self._closing = True
            self._abort_inflight()
            self._finish()
            return
        if self._barrier_hit:
            # The barrier record is the last slot of its epoch.  Records
            # of this batch sequenced after it are NOT delivered here —
            # they rejoin the adoption pool and carry over to the epoch
            # e+1 channel, which delivers them under its own (fresh)
            # round numbering.  The round is deliberately not advanced:
            # this channel is done.
            for _signer, vector in resolved:
                self._absorb(vector)
            self._frozen = True
            self._abort_inflight()
            if self.obs.enabled:
                self.obs.count("atomic.barrier")
            if self.on_barrier is not None:
                self.on_barrier(r)
            return
        self.round = r + 1

    def _deliver_record(self, record: Record, r: int) -> int:
        origin, seq, kind, data = record
        key = (origin, seq)
        if key in self._delivered:
            return 0
        self._delivered.add(key)
        self._pending.pop(key, None)
        self._reserved.discard(key)
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
                self._barrier_hit = True
            self._handle_delivered_payload(origin, seq, kind, data)
        return 1

    def _abort_inflight(self) -> None:
        """Tear down agreements for rounds after the closing round."""
        for mvba in self._mvbas.values():
            mvba.abort()
        self._mvbas.clear()
        self._decided.clear()
        if self.obs.enabled:
            self.obs.set_gauge("atomic.pipeline.inflight", 0.0)

    # -- offloaded bodies --------------------------------------------------------------

    def _on_body(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        r, body = payload
        if not isinstance(r, int) or r < self.round:
            return  # rounds below the frontier have fully delivered
        vector = self._check_vector(body)
        if vector is None:
            return
        digest = vector_digest(vector)
        if not self._store_body(r, sender, digest, vector):
            return
        if (r, sender) not in self._acked:
            # Ack only the first valid body per (round, signer): an
            # equivocating signer cannot farm certificates, and every
            # certificate still proves >= n - 2t honest holders.
            self._acked.add((r, sender))
            share = self._avail_signer.sign_share(
                avail_string(self.pid, r, sender, digest)
            )
            self.unicast(sender, MSG_ACK, (r, digest, share))
            if self.obs.enabled:
                self.obs.count("atomic.offload.acks")
        self._advance()

    def _store_body(
        self, r: int, signer: int, digest: bytes, vector: List[Record]
    ) -> bool:
        bkey = (r, signer, digest)
        if bkey in self._bodies:
            return False
        count = self._body_count.get((r, signer), 0)
        if count >= 2:
            return False  # bound what an equivocating signer can store here
        self._body_count[(r, signer)] = count + 1
        self._bodies[bkey] = vector
        self._absorb(vector)
        return True

    def _on_ack(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        r, digest, share = payload
        if not (
            isinstance(r, int)
            and isinstance(digest, bytes)
            and isinstance(share, bytes)
        ):
            return
        if r < self.round or r in self._cert_done:
            return
        if self._own_digest.get(r) != digest:
            return
        statement = avail_string(self.pid, r, self.ctx.node_id, digest)
        if not self.ctx.crypto.accel.sig_share_ok(self._avail_scheme, statement, share):
            return
        shares = self._ack_shares.setdefault(r, {})
        if sender + 1 in shares:
            return
        shares[sender + 1] = share
        if len(shares) >= self._avail_scheme.k:
            cert = self._avail_scheme.combine(statement, shares)
            self._cert_done.add(r)
            if self.obs.enabled:
                self.obs.count("atomic.offload.certs")
            self.send_all(MSG_QUEUE, (r, digest, cert))

    def _on_fetch(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        r, signer, digest = payload
        if not (
            isinstance(r, int)
            and isinstance(signer, int)
            and isinstance(digest, bytes)
        ):
            return
        vector = self._bodies.get((r, signer, digest))
        if vector is None:
            return
        serve_key = (sender, r, signer, digest)
        if serve_key in self._served:
            return  # at most one reply per requester per body
        self._served.add(serve_key)
        if self.obs.enabled:
            self.obs.count("atomic.offload.served")
        self.unicast(sender, MSG_BODY, (r, signer, vector))

    def _on_fetched_body(self, sender: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        r, signer, body = payload
        if not (isinstance(r, int) and isinstance(signer, int)) or r < self.round:
            return
        vector = self._check_vector(body)
        if vector is None:
            return
        # The digest authenticates the body regardless of who served it.
        self._store_body(r, signer, vector_digest(vector), vector)
        self._advance()

    def _gc_offload(self, r: int) -> None:
        """Drop offload state for rounds far behind the frontier.

        Bodies of recently delivered rounds are kept for
        ``BODY_KEEP_ROUNDS`` so lagging parties' fetches can be served.
        """
        horizon = r - BODY_KEEP_ROUNDS
        if horizon < 1:
            return
        self._bodies = {k: v for k, v in self._bodies.items() if k[0] > horizon}
        self._body_count = {
            k: v for k, v in self._body_count.items() if k[0] > horizon
        }
        self._acked = {k for k in self._acked if k[0] > horizon}
        self._own_digest = {
            k: v for k, v in self._own_digest.items() if k > horizon
        }
        self._ack_shares = {
            k: v for k, v in self._ack_shares.items() if k > horizon
        }
        self._cert_done = {k for k in self._cert_done if k > horizon}
        self._fetched = {k for k in self._fetched if k[0] > horizon}
        self._served = {k for k in self._served if k[1] > horizon}

    # -- recovery introspection ------------------------------------------------------

    def harvest_resume(self) -> ChannelResume:
        """What the next epoch's channel needs to continue this one: it
        restarts at round 1 with this channel's delivered keys, close
        origins and own sequence counter, and with every undelivered
        record (own queue and adoption pool) back in agreement."""
        return ChannelResume(
            round=1,
            delivered=tuple(sorted(self._delivered)),
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
        self._frozen = True
        self._abort_inflight()
        super().abort()

    def _handle_delivered_payload(
        self, origin: int, seq: int, kind: int, data: bytes
    ) -> None:
        """Hook: the secure causal channel intercepts ciphertexts here."""
        self.deliveries.append((origin, seq, data))
        self._emit_output(data)

    def _finish(self) -> None:
        """Termination after the round in which t+1 close requests arrived."""
        self._terminate()

    def halt(self) -> None:
        # A terminated offload channel stays registered to answer
        # MSG_FETCH: a party left with exactly n - t correspondents may
        # still miss a decided body when those, its holders, close.
        if not (self.offload and self._terminated and not self._frozen):
            super().halt()
