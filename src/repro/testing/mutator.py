"""Wire-level Byzantine message mutator.

Models the adversary's power over up to ``t`` *compromised* parties at
the network boundary: a corrupted party knows its own pairwise link keys,
so it can drop, replay, duplicate, corrupt or equivocate on **its own**
frames — but it cannot forge frames from honest parties (it lacks their
keys), exactly matching the paper's trust model.  That limit is enforced
by the runtime, not by this module: whatever sender a tapped frame
claims, :func:`repro.net.links.open_sealed` opens it only under the key
of the link it left on, as that link's party.

The mutator plugs into :attr:`repro.net.runtime.SimRuntime.wire_taps` and
works purely on the wire format (``encode((sender, tag, body))`` with a
TLV body from :mod:`repro.net.message`); it never touches protocol
internals, so the same mutator exercises every protocol in the stack.

Actions on a compromised party's outbound frame:

* ``drop`` — silently discard (a crashed/withholding corrupt party);
* ``duplicate`` — deliver the frame twice (corrupt parties are not bound
  by the honest TCP-FIFO discipline);
* ``bitflip`` — flip random bits in the raw frame: the receiver's MAC or
  parser must reject it without crashing;
* ``mutate`` — decode the TLV body, structurally mutate the payload, and
  re-seal with the compromised party's own keys: a *validly
  authenticated* garbage message, the hardest case for handlers;
* ``equivocate`` — replace the payload with a different, recently
  observed payload of the same (pid, mtype), re-sealed: sends conflicting
  protocol messages to different recipients;
* ``replay`` — additionally deliver a re-sealed copy of an earlier body
  sent by this party.

All randomness comes from the caller-supplied stream, so a mutated run is
reproducible from the fuzzer's case seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.crypto.dealer import GroupConfig
from repro.net import links
from repro.obs.recorder import NULL as NULL_RECORDER
from repro.obs.recorder import Recorder

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


@dataclass
class MutationRates:
    """Per-frame probabilities of each Byzantine action (rest pass through)."""

    drop: float = 0.05
    duplicate: float = 0.05
    bitflip: float = 0.05
    mutate: float = 0.10
    equivocate: float = 0.05
    replay: float = 0.05


class ByzantineMutator:
    """Wire tap corrupting the traffic of ``compromised`` parties.

    Append :attr:`tap` (or the instance itself — it is callable) to
    ``runtime.wire_taps``.  ``len(compromised)`` must stay within the
    group's fault threshold ``t`` for safety invariants to be meaningful.
    """

    def __init__(
        self,
        group: GroupConfig,
        compromised: Set[int],
        rng: random.Random,
        rates: Optional[MutationRates] = None,
        history_limit: int = 64,
        recorder: Optional[Recorder] = None,
    ):
        if len(compromised) > group.t:
            raise ValueError(
                f"{len(compromised)} compromised parties exceeds t={group.t}"
            )
        self.group = group
        self.compromised = frozenset(compromised)
        self.rng = rng
        self.rates = rates or MutationRates()
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self._history: Dict[int, List[bytes]] = {i: [] for i in self.compromised}
        self._by_type: Dict[Tuple[int, str, str], List[bytes]] = {}
        self._history_limit = history_limit
        self.actions: Dict[str, int] = {}

    # -- the wire tap -------------------------------------------------------------

    def __call__(self, src, dst, wire, depart):
        return self.tap(src, dst, wire, depart)

    def tap(
        self, src: int, dst: int, wire: bytes, depart: float
    ) -> Optional[List[Tuple[int, bytes]]]:
        if src not in self.compromised:
            return None  # honest traffic passes untouched
        body = self._open_own(src, wire)
        if body is not None:
            self._remember(src, body)
        else:
            # A frame we could not parse passes through the structural
            # mutations unharmed — surface that, or coverage gaps (a wire
            # format the mutator no longer understands) stay invisible.
            self._did("skipped", None)
            if self.obs.enabled:
                self.obs.count("mutator.skipped")
        r, rates = self.rng, self.rates
        if r.random() < rates.drop:
            return self._did("drop", [])
        out: List[Tuple[int, bytes]] = [(dst, wire)]
        if r.random() < rates.bitflip:
            out[0] = (dst, self._bitflip(wire))
            self._did("bitflip", None)
        elif body is not None and r.random() < rates.mutate:
            mutated = self._mutate_body(body)
            if mutated is not None:
                out[0] = (dst, self._reseal(src, dst, mutated))
                self._did("mutate", None)
        elif body is not None and r.random() < rates.equivocate:
            other = self._conflicting_body(src, body)
            if other is not None:
                out[0] = (dst, self._reseal(src, dst, other))
                self._did("equivocate", None)
        if r.random() < rates.duplicate:
            out.append(out[0])
            self._did("duplicate", None)
        if r.random() < rates.replay and self._history[src]:
            old = r.choice(self._history[src])
            out.append((dst, self._reseal(src, dst, old)))
            self._did("replay", None)
        return out

    # -- helpers ----------------------------------------------------------------

    def _did(self, action: str, result):
        self.actions[action] = self.actions.get(action, 0) + 1
        return result

    def _open_own(self, src: int, wire: bytes) -> Optional[bytes]:
        """Extract the body of a frame this compromised party produced."""
        try:
            sender, _tag, body = decode(wire)
        except EncodingError:
            return None
        if sender != src or not isinstance(body, bytes):
            return None
        return body

    def _reseal(self, src: int, dst: int, body: bytes) -> bytes:
        """Authenticate ``body`` with the compromised party's own keys."""
        return links.seal(self.group.party(src), dst, body)

    def _remember(self, src: int, body: bytes) -> None:
        hist = self._history[src]
        hist.append(body)
        if len(hist) > self._history_limit:
            hist.pop(0)
        try:
            pid, mtype, _payload = decode(body)
        except (EncodingError, ValueError):
            return
        if isinstance(pid, str) and isinstance(mtype, str):
            bucket = self._by_type.setdefault((src, pid, mtype), [])
            bucket.append(body)
            if len(bucket) > self._history_limit:
                bucket.pop(0)

    def _bitflip(self, wire: bytes) -> bytes:
        data = bytearray(wire)
        for _ in range(self.rng.randrange(1, 4)):
            data[self.rng.randrange(len(data))] ^= 1 << self.rng.randrange(8)
        return bytes(data)

    def _mutate_body(self, body: bytes) -> Optional[bytes]:
        try:
            pid, mtype, payload = decode(body)
        except (EncodingError, ValueError):
            return None
        if not isinstance(pid, str) or not isinstance(mtype, str):
            return None
        # Mostly corrupt the payload; occasionally retarget the message at
        # another live protocol instance or message type.
        r = self.rng
        if r.random() < 0.8:
            payload = mutate_value(r, payload)
        elif r.random() < 0.5:
            mtype = mutate_value(r, mtype)
        else:
            pid = mutate_value(r, pid)
        try:
            return encode((pid, mtype, payload))
        except EncodingError:
            return None

    def _conflicting_body(self, src: int, body: bytes) -> Optional[bytes]:
        """An earlier different body of the same (pid, mtype), if any."""
        try:
            pid, mtype, _payload = decode(body)
        except (EncodingError, ValueError):
            return None
        if not isinstance(pid, str) or not isinstance(mtype, str):
            return None
        candidates = [
            b for b in self._by_type.get((src, pid, mtype), []) if b != body
        ]
        if not candidates:
            return None
        return self.rng.choice(candidates)


class BatchFrameMutator(ByzantineMutator):
    """Byzantine mutator specialized for batched atomic-channel frames.

    The pipelined atomic channel carries payload *vectors* on the wire —
    ``queue`` candidates ``(round, vector, proof)`` and, with offloading,
    ``body``/``bodyr`` frames ``(round, vector)`` / ``(round, signer,
    vector)``.  Generic structural mutation rarely lands on the batch
    shapes the channel's validator must reject, so this subclass replaces
    the ``mutate`` action on those frames with targeted corruptions:

    * **duplicate** — repeat a record inside the vector (a payload key
      appearing twice in one batch);
    * **reorder** — swap two records (breaks per-vector sub-sequencing
      only if a receiver trusts the signer's order blindly);
    * **truncate** / **empty** — drop records, down to the malformed
      zero-length vector;
    * **record** — structurally corrupt one record in place;
    * **round** — splice the frame onto a neighbouring agreement round.

    Signer equivocation on batch *content* (two different vectors for the
    same round) comes from the inherited ``equivocate`` action, which
    re-sends an earlier differing frame of the same (pid, mtype).  All
    other frame types fall back to the generic mutator.
    """

    #: message types of the atomic channel whose payload carries a vector
    VECTOR_TYPES = frozenset({"queue", "body", "bodyr"})

    def _mutate_body(self, body: bytes) -> Optional[bytes]:
        try:
            pid, mtype, payload = decode(body)
        except (EncodingError, ValueError):
            return None
        if isinstance(pid, str) and mtype in self.VECTOR_TYPES:
            mutated = self._mutate_batch_payload(payload)
            if mutated is not None:
                self._did("batch-frame", None)
                try:
                    return encode((pid, mtype, mutated))
                except EncodingError:
                    return None
        return super()._mutate_body(body)

    def _mutate_batch_payload(self, payload: Any) -> Optional[Any]:
        """A batch-specific corruption of one vector-carrying payload."""
        if not isinstance(payload, (tuple, list)) or not payload:
            return None
        parts = list(payload)
        vec_at = next(
            (k for k, v in enumerate(parts) if isinstance(v, (tuple, list))),
            None,
        )
        if vec_at is None:
            return None  # e.g. an offloaded digest candidate: no vector
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
