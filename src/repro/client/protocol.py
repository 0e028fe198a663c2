"""Client/replica request protocol: envelopes, statuses, reply voting.

SINTRA's clients are *outside* the replicated group (paper Secs. 1, 2.5):
a client submits a command to one replica and must get the correct answer
even though up to ``t`` replicas — possibly including the one it talked
to — are Byzantine.  Three mechanisms, all transport-agnostic and defined
here, make that work:

* **request identity** — every request is named ``(client_id, seq)``,
  with ``seq`` strictly increasing per client.  The identity travels
  *inside* the atomically-broadcast command (the *envelope*), so every
  honest replica sees the same identity at the same position of the total
  order — the basis of at-most-once execution (:mod:`repro.client.dedup`);
* **statuses** — a replica's reply is either ``STATUS_OK`` with the
  executed result, or the explicitly *retryable* ``STATUS_OVERLOADED``
  (admission control shed the request, or its cached reply was evicted);
* **reply voting** — a client accepts a result only once ``t + 1``
  distinct replicas have returned byte-identical ``STATUS_OK`` replies.
  At most ``t`` replicas lie, so any ``t + 1`` matching replies include
  one honest replica: a forged answer can never win the vote.

Replica identity is bound by the transport (which simulated edge or which
dialled TCP endpoint a reply arrived on), never taken from the payload, so
a Byzantine replica cannot stuff the ballot by impersonating its peers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError

#: envelope tag distinguishing client requests from raw service commands
ENVELOPE_TAG = "sintra-req"

#: the command executed and this is its (byte-identical, votable) result
STATUS_OK = 0
#: retryable shed: admission control refused the request, or a
#: resubmission's cached reply was already evicted — never re-executed
STATUS_OVERLOADED = 1

# -- client -> replica / replica -> client frame kinds (TCP transport) --------
MSG_HELLO = "chl"  # ("chl", client_id)
MSG_REQUEST = "crq"  # ("crq", client_id, seq, command)
MSG_REPLY = "crp"  # ("crp", seq, status, result, epoch, roster_digest)


def make_envelope(client_id: str, seq: int, command: bytes) -> bytes:
    """The atomically-broadcast command carrying its request identity."""
    return encode((ENVELOPE_TAG, client_id, seq, command))


def parse_envelope(data: bytes) -> Optional[Tuple[str, int, bytes]]:
    """``(client_id, seq, command)`` if ``data`` is a request envelope.

    Non-envelope payloads return ``None`` — they are raw service commands
    submitted replica-side (``ReplicatedService.submit``) and bypass the
    dedup table.
    """
    try:
        parsed = decode(data)
    except EncodingError:
        return None
    if not (isinstance(parsed, tuple) and len(parsed) == 4
            and parsed[0] == ENVELOPE_TAG):
        return None
    _tag, client_id, seq, command = parsed
    if not (isinstance(client_id, str) and isinstance(seq, int) and seq >= 0
            and isinstance(command, bytes)):
        return None
    return client_id, seq, command


class ReplyVote:
    """Collects per-replica replies for one request until ``t + 1`` agree.

    One ballot per replica: a replica's *latest* reply replaces its
    earlier one (duplicates and status upgrades — e.g. ``OVERLOADED``
    followed by ``OK`` after a resubmission — count once), so a single
    Byzantine replica can never contribute more than one vote.
    """

    def __init__(self, needed: int):
        if needed < 1:
            raise ValueError("a vote needs at least one matching reply")
        self.needed = needed
        #: replica -> (status, result), latest reply wins
        self._ballots: Dict[int, Tuple[int, bytes]] = {}
        self.winner: Optional[bytes] = None

    def add(self, replica: int, status: int, result: bytes) -> Optional[bytes]:
        """Record one reply; returns the accepted result once decided."""
        self._ballots[replica] = (int(status), bytes(result))
        if self.winner is None:
            tally: Dict[bytes, int] = {}
            for ballot_status, ballot_result in self._ballots.values():
                if ballot_status != STATUS_OK:
                    continue
                tally[ballot_result] = tally.get(ballot_result, 0) + 1
                if tally[ballot_result] >= self.needed:
                    self.winner = ballot_result
                    break
        return self.winner

    def overloaded_replicas(self) -> int:
        """Distinct replicas whose current ballot is ``STATUS_OVERLOADED``."""
        return sum(
            1 for status, _ in self._ballots.values()
            if status == STATUS_OVERLOADED
        )

    def conflicting_replicas(self) -> int:
        """Distinct replicas whose current OK ballot differs from the
        winner (0 until the vote is decided)."""
        if self.winner is None:
            return 0
        return sum(
            1 for status, result in self._ballots.values()
            if status == STATUS_OK and result != self.winner
        )

    def __len__(self) -> int:
        return len(self._ballots)


def check_request_frame(fields: Any) -> Optional[Tuple[str, int, bytes]]:
    """Validate a decoded ``MSG_REQUEST`` tuple from the wire."""
    if not (isinstance(fields, tuple) and len(fields) == 4
            and fields[0] == MSG_REQUEST):
        return None
    _kind, client_id, seq, command = fields
    if not (isinstance(client_id, str) and isinstance(seq, int) and seq >= 0
            and isinstance(command, bytes)):
        return None
    return client_id, seq, command


def check_reply_frame(fields: Any) -> Optional[Tuple[int, int, bytes, int, bytes]]:
    """Validate a decoded ``MSG_REPLY`` tuple from the wire.

    Replies advertise the replica's membership view as a trailing
    ``(epoch, roster_digest)`` pair so a client can notice — from any
    single honest replica — that the group has reconfigured and refresh
    its contact set (:meth:`repro.client.client.SintraClient`).  Every
    replica sends this one shape.
    """
    if not (isinstance(fields, tuple) and len(fields) == 6
            and fields[0] == MSG_REPLY):
        return None
    _kind, seq, status, result, epoch, digest = fields
    if not (isinstance(seq, int) and seq >= 0
            and status in (STATUS_OK, STATUS_OVERLOADED)
            and isinstance(result, bytes)
            and isinstance(epoch, int) and epoch >= 0
            and isinstance(digest, bytes)):
        return None
    return seq, status, result, epoch, digest
