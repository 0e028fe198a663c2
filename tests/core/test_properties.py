"""Property-based protocol invariants over randomized schedules.

Hypothesis drives the simulation seed (network jitter, coin outcomes,
message interleavings) and the workload shape; the protocols' safety
properties must hold on every draw.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.agreement import ArrayAgreement, BinaryAgreement
from repro.core.broadcast import ReliableBroadcast
from repro.core.channel import AtomicChannel
from repro.net.faults import FaultPlan, TargetedDelayAdversary

from tests.conftest import cached_group
from tests.helpers import sim_runtime

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(
    seed=st.integers(0, 10 ** 6),
    proposals=st.lists(st.integers(0, 1), min_size=4, max_size=4),
)
@SLOW
def test_aba_agreement_and_validity(seed, proposals):
    """Agreement: one decision.  Validity: it was proposed by someone
    honest (here: by anyone, all four are honest)."""
    rt = sim_runtime(cached_group(), seed=("prop-aba", seed))
    abas = [BinaryAgreement(ctx, "prop-aba") for ctx in rt.contexts]
    for a, v in zip(abas, proposals):
        a.propose(v)
    results = rt.run_all([a.decided for a in abas], limit=3000)
    decisions = {v for v, _ in results}
    assert len(decisions) == 1
    assert decisions.pop() in set(proposals)
    assert not rt.router_errors()


@given(
    seed=st.integers(0, 10 ** 6),
    victims=st.sets(st.integers(0, 3), max_size=2),
)
@SLOW
def test_aba_agreement_under_adversarial_scheduler(seed, victims):
    rt = sim_runtime(
        cached_group(),
        seed=("prop-adv", seed),
        faults=FaultPlan(
            adversary=TargetedDelayAdversary(victims=victims, max_delay=0.3)
        ),
    )
    abas = [BinaryAgreement(ctx, "prop-adv") for ctx in rt.contexts]
    for i, a in enumerate(abas):
        a.propose(i % 2)
    results = rt.run_all([a.decided for a in abas], limit=5000)
    assert len({v for v, _ in results}) == 1


@given(seed=st.integers(0, 10 ** 6))
@SLOW
def test_mvba_decides_a_proposal(seed):
    rt = sim_runtime(cached_group(), seed=("prop-mvba", seed))
    mvbas = [ArrayAgreement(ctx, "prop-mvba") for ctx in rt.contexts]
    proposals = [b"prop-%d" % i for i in range(4)]
    for m, p in zip(mvbas, proposals):
        m.propose(p)
    results = rt.run_all([m.decided for m in mvbas], limit=5000)
    decisions = {v for v, _ in results}
    assert len(decisions) == 1
    assert decisions.pop() in proposals


@given(
    seed=st.integers(0, 10 ** 6),
    sends=st.lists(st.integers(0, 3), min_size=1, max_size=6),
)
@SLOW
def test_atomic_channel_total_order(seed, sends):
    """Total order: identical delivery sequences for arbitrary concurrent
    send patterns and schedules."""
    rt = sim_runtime(cached_group(), seed=("prop-at", seed))
    chans = [AtomicChannel(ctx, "prop-at") for ctx in rt.contexts]
    for k, sender in enumerate(sends):
        chans[sender].send(b"m-%d-%d" % (sender, k))
    got = {i: [] for i in range(4)}

    def reader(i):
        while len(got[i]) < len(sends):
            payload = yield chans[i].receive()
            got[i].append(payload)

    procs = [rt.spawn(reader(i)) for i in range(4)]
    for p in procs:
        rt.run_until(p.future, limit=5000)
    assert all(got[i] == got[0] for i in range(4))
    assert len(got[0]) == len(sends)
    assert not rt.router_errors()


@given(
    seed=st.integers(0, 10 ** 6),
    split=st.integers(1, 3),
    payloads=st.tuples(st.binary(min_size=1, max_size=8),
                       st.binary(min_size=1, max_size=8)),
)
@SLOW
def test_rbc_agreement_under_equivocation(seed, split, payloads):
    """No two honest parties ever deliver different values."""
    from tests.core.byz import EquivocatingBroadcastSender

    a, b = payloads
    rt = sim_runtime(cached_group(), seed=("prop-eq", seed))
    honest = {
        i: ReliableBroadcast(rt.contexts[i], "prop-eq", 0) for i in (1, 2, 3)
    }
    byz = EquivocatingBroadcastSender(rt.contexts[0], "prop-eq.0", a, b, split)
    byz.start()
    rt.run(until=60)
    delivered = {r.payload for r in honest.values() if r.payload is not None}
    assert len(delivered) <= 1
