"""The atomic channel holds what is in flight and nothing else.

Four checks the one-record-per-round shape makes possible:

* **quiescence** — once everything has delivered, no round-keyed state is
  left behind (the leak regressions: ``_reserved`` kept one key per
  duplicate-adopted record, ``_dec_shares`` one dict per late share);
* **one validity** — a candidate entry is judged by the same ``_check``
  on arrival and inside the agreement's external-validity predicate;
* **the parse memo** — a round parses each valid proposal once, keeps at
  most ``n`` of them, and still verifies every proof on every call;
* **wire pins** — messages, bytes, rounds, per-type counts, delivery
  order and modular exponentiations of three closing runs in
  configuration cells no ``benchmarks/baseline.json`` record covers,
  pinned to the values commit ``20c3dbd`` produced (the pipelined cells
  re-pinned with the full-vector rule, see ``test_round_rule.py``; the
  exponentiations taken at ``5e24813``).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.encoding import encode
from repro.core.channel import AtomicChannel, SecureAtomicChannel
from repro.core.channel.atomic import (
    KIND_APP,
    MSG_QUEUE,
    SIGN_DOMAIN,
    VECTOR_LIMIT,
    _Round,
    sign_string,
    vector_digest,
)
from repro.core.schema import conforms
from repro.crypto.dealer import fast_group
from repro.obs import MemoryRecorder
from repro.testing.invariants import tap
from tests.helpers import MockContext, no_errors, sim_runtime

# -- quiescence ------------------------------------------------------------------


def _run_to_quiescence(group, cls, per_party, **kwargs):
    rt = sim_runtime(group, seed=20)
    chans = [cls(rt.contexts[i], "q", **kwargs) for i in range(group.n)]
    for k in range(per_party):
        for ch in chans:
            ch.send(encode(("cmd", ch.ctx.node_id, k)))
    rt.run()
    no_errors(rt)
    for ch in chans:
        assert ch.delivered == group.n * per_party
    return chans


def _assert_nothing_left(ch):
    assert len(ch._rounds) <= ch.pipeline_depth
    assert all(rnd.mvba is None for rnd in ch._rounds.values())
    assert ch._reserved == set()
    # a round with a parse memo ran an agreement, which decided and delivered
    assert all(not rnd.parsed for rnd in ch._rounds.values())


def test_quiescent_channel_holds_no_round_state(group4):
    chans = _run_to_quiescence(group4, AtomicChannel, 36, max_batch=2, pipeline_depth=2)
    for ch in chans:
        _assert_nothing_left(ch)


def test_quiescent_secure_channel_holds_no_shares(group4):
    chans = _run_to_quiescence(group4, SecureAtomicChannel, 5)
    for ch in chans:
        _assert_nothing_left(ch)
        assert len(ch._dec_shares) == 0
        assert not ch._pending_ctxt and not ch._plain


def _dec_share(holder):
    """A well-formed decryption share naming holder index ``holder``
    (its proof is not checked before the ciphertext is known)."""
    return encode((holder, 1, 0, 0))


def test_early_decryption_share_is_still_buffered(group4):
    """A fast peer may be a ciphertext ahead: shares for an index not yet
    delivered are kept, only those below the release frontier dropped."""
    ch = SecureAtomicChannel(MockContext(group4, 0), "s")
    ch.on_message(1, "dec", (0, _dec_share(2)))
    assert ch._dec_shares == {0: {2: _dec_share(2)}}
    ch._next_release = 1
    ch.on_message(2, "dec", (0, _dec_share(3)))
    assert ch._dec_shares == {0: {2: _dec_share(2)}}


def test_a_decryption_share_must_name_its_sender(group4):
    """Party 2 relaying party 1's share (index 2) as its own is refused:
    filed under index 3 it would poison every later combination."""
    ch = SecureAtomicChannel(MockContext(group4, 0), "s")
    ch.on_message(2, "dec", (0, _dec_share(2)))
    assert ch._dec_shares == {}


@pytest.mark.parametrize("payload", [5, None, (1, 2, 3)], ids=["int", "none", "3-tuple"])
def test_malformed_decryption_share_is_dropped(group4, payload):
    """A share frame that is not an ``(index, share)`` pair is refused by
    the router like any other malformed input: recorded, never handled."""
    ch = SecureAtomicChannel(MockContext(group4, 0), "s")
    ch.ctx.router.dispatch(1, "s", "dec", payload)
    assert ch._dec_shares == {}
    assert [(pid, sender, exc.mtype) for pid, sender, exc in ch.ctx.router.errors] == [
        ("s", 1, "dec")
    ]


# -- one validity -------------------------------------------------------------------

ROUND = 3
SIGNER = 1
PID = "v"


def _channels(group):
    return [AtomicChannel(MockContext(group, i), PID) for i in range(group.n)]


def _entry(chans, r, signer, vector):
    """A properly signed ``(signer, vector, sig)`` for ``vector``,
    whatever its shape."""
    digest = vector_digest(vector)
    sig = chans[signer].ctx.crypto.sign(SIGN_DOMAIN, sign_string(PID, r, digest))
    return (signer, vector, sig)


VECTOR = [(SIGNER, 0, KIND_APP, b"x"), (SIGNER, 1, KIND_APP, b"y")]
OTHER = [(SIGNER, 7, KIND_APP, b"z")]


def _bad_entries(chans):
    """name -> an entry that must be refused at (ROUND, SIGNER)."""
    good = _entry(chans, ROUND, SIGNER, VECTOR)
    malformed = [(SIGNER, 0, KIND_APP, "not bytes")]
    duplicate = [VECTOR[0], VECTOR[0]]
    too_long = [(SIGNER, k, KIND_APP, b"") for k in range(VECTOR_LIMIT + 1)]
    bad = {
        "wrong round": _entry(chans, ROUND + 1, SIGNER, VECTOR),
        "wrong signer": (SIGNER,) + _entry(chans, ROUND, SIGNER + 1, VECTOR)[1:],
        "malformed vector": _entry(chans, ROUND, SIGNER, malformed),
        "duplicate key inside a vector": _entry(chans, ROUND, SIGNER, duplicate),
        "over VECTOR_LIMIT": _entry(chans, ROUND, SIGNER, too_long),
        "empty vector": _entry(chans, ROUND, SIGNER, []),
        "non-int signature": (SIGNER, VECTOR, b"sig"),
        "signature on another vector": (
            SIGNER, VECTOR, _entry(chans, ROUND, SIGNER, OTHER)[2]
        ),
    }
    return good, bad


def test_one_validity_on_arrival_and_in_agreement(group4):
    chans = _channels(group4)
    ch = chans[0]
    assert ch.batch_size == 2
    companion = _entry(chans, ROUND, 0, [(0, 0, KIND_APP, b"c")])
    good, bad = _bad_entries(chans)

    spec = AtomicChannel.MESSAGES[MSG_QUEUE]
    assert ch._check(ROUND, *good) is not None
    assert ch._decode_batch(ROUND, encode([companion, good])) is not None
    for name, entry in bad.items():
        signer, body, proof = entry
        assert signer == SIGNER
        # the schema refuses its shape, or ``_check`` its content
        assert (
            not conforms((ROUND, body, proof), spec)
            or ch._check(ROUND, signer, body, proof) is None
        ), name
        assert ch._decode_batch(ROUND, encode([companion, entry])) is None, name
        # ... and on arrival nothing of it is kept
        ch.ctx.router.dispatch(signer, PID, MSG_QUEUE, (ROUND, body, proof))
        assert ROUND not in ch._rounds, name
    ch.ctx.router.dispatch(SIGNER, PID, MSG_QUEUE, (ROUND,) + good[1:])
    assert list(ch._rounds[ROUND].candidates) == [SIGNER]


# -- the parse memo ------------------------------------------------------------------


def _counted(ch):
    """Count the channel's ``_parse``/``_verify`` calls, ``_check``'s included."""
    calls = {"parse": 0, "verify": 0}
    for name in calls:
        inner = getattr(ch, "_" + name)

        def wrapped(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        setattr(ch, "_" + name, wrapped)
    return calls


def _memo_channel(group):
    chans = _channels(group)
    ch = chans[0]
    ch._rounds[ROUND] = _Round()
    companion = _entry(chans, ROUND, 0, [(0, 0, KIND_APP, b"c")])
    return chans, ch, companion


def test_a_proposal_is_parsed_once_and_verified_every_time(group4):
    chans, ch, companion = _memo_channel(group4)
    value = encode([companion, _entry(chans, ROUND, SIGNER, VECTOR)])
    calls = _counted(ch)
    k = 5
    batches = [ch._decode_batch(ROUND, value) for _ in range(k)]
    assert batches[0] is not None and all(b == batches[0] for b in batches)
    assert calls == {"parse": ch.batch_size, "verify": k * ch.batch_size}
    assert list(ch._rounds[ROUND].parsed) == [value]


def test_a_memo_hit_never_answers_the_verdict(group4):
    chans, ch, companion = _memo_channel(group4)
    value = encode([companion, _entry(chans, ROUND, SIGNER, VECTOR)])
    assert ch._decode_batch(ROUND, value) is not None
    ch._verify = lambda signer, statement, sig: False
    assert ch._decode_batch(ROUND, value) is None


def test_a_value_that_fails_verify_is_not_kept(group4):
    chans, ch, companion = _memo_channel(group4)
    _good, bad = _bad_entries(chans)
    calls = _counted(ch)
    # the entry parses at ROUND, but its proof covers ROUND + 1
    assert ch._decode_batch(ROUND, encode([companion, bad["wrong round"]])) is None
    assert calls == {"parse": 2, "verify": 2}
    assert ch._rounds[ROUND].parsed == {}


def test_the_memo_holds_at_most_n_values(group4):
    chans, ch, companion = _memo_channel(group4)
    values = [
        encode([companion, _entry(chans, ROUND, SIGNER, [(SIGNER, k, KIND_APP, b"v")])])
        for k in range(group4.n + 2)
    ]
    for value in values:
        assert ch._decode_batch(ROUND, value) is not None
    assert list(ch._rounds[ROUND].parsed) == values[: group4.n]


# -- wire pins ------------------------------------------------------------------------

#: config -> (messages, bytes, rounds, payloads delivered before the close
#: round, per-mtype counts on the channel's own pid, delivery-order digest,
#: modular exponentiations), computed at commit 20c3dbd; the ``b4-d2``
#: cell moved once since, when a partial vector began to wait for the
#: lowest round (one round fewer: 528 / 359932 / 4 before).  The
#: exponentiations, taken at ``5e24813``, pin every proof verification of
#: the validity predicate: a memo that answered a verdict would lower them.
WIRE_PINS = [
    (
        dict(max_batch=4, pipeline_depth=2),
        (496, 367468, 3, 14, {"queue": 64}, "3818c77d55638ad9", 1500),
    ),
    (
        dict(),
        (1280, 724663, 10, 18, {"queue": 160}, "0b8dd6474036b30a", 4040),
    ),
    # the paper's one record per signer, pipelined: a vector of one is
    # always full, so the rule is a no-op (values of commit 27fba93)
    (
        dict(max_batch=1, pipeline_depth=4),
        (1072, 590011, 8, 14, {"queue": 176}, "306fcbd0896248df", 3256),
    ),
]


@pytest.fixture(scope="module")
def default_group4():
    return fast_group(4, 1)


@pytest.mark.parametrize(
    "kwargs,pinned", WIRE_PINS, ids=["inline-b4-d2", "defaults", "b1-d4"]
)
def test_wire_is_pinned_where_no_baseline_record_looks(default_group4, kwargs, pinned):
    """24 payloads from four senders and an immediate close: the close
    round cuts the run short with rounds still in flight.  The recorder
    counts the run's exponentiations; it does not perturb the run."""
    rec = MemoryRecorder()
    rt = sim_runtime(default_group4, seed=20, recorder=rec)
    chans = [AtomicChannel(rt.contexts[i], "pin", **kwargs) for i in range(4)]
    logs = [tap(ch) for ch in chans]
    for k in range(6):
        for s in range(4):
            chans[s].send(encode(("cmd", s, k)))
    for ch in chans:
        ch.close()
    for ch in chans:
        rt.run_until(ch.closed, limit=3000)
    rt.run()
    no_errors(rt)
    orders = [[data for _, _, data in log] for log in logs]
    assert all(order == orders[0] for order in orders)
    by_type = {}
    for (pid, mtype), count in rt.protocol_messages.items():
        if pid == "pin":
            by_type[mtype] = by_type.get(mtype, 0) + count
    assert (
        rt.messages_sent,
        rt.bytes_sent,
        chans[0].rounds_completed,
        len(orders[0]),
        by_type,
        hashlib.sha256(encode(orders[0])).hexdigest()[:16],
        rec.counters["crypto.modexp"],
    ) == pinned
