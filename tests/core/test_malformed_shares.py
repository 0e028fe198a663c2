"""A faulty party sends a signature share of the wrong shape.

The schema only says a share is ``bytes``; the scheme decodes it.  A
share such as ``encode((1,))`` names its sender's index but carries no
signature; ``encode((1, b"x", 0, 0))`` carries bytes where an integer
belongs.  The CBC echo path and the main-vote path file a share
without verifying it, so the scheme must refuse it as an invalid share
(and the optimistic combine evict it) rather than raise on its shape.
Party 0 runs the protocol honestly except for that one share; the slow
links from party 3 make party 0's share one of the first ``k``.
"""

import pytest

from repro.common.encoding import encode
from repro.core.agreement import BinaryAgreement
from repro.core.agreement.binary import MSG_MAINVOTE
from repro.core.broadcast import ConsistentBroadcast
from repro.core.broadcast.consistent import MSG_ECHO
from repro.net.faults import FaultPlan, SlowLinkAdversary

from tests.helpers import no_errors, sim_runtime

# party 0's index, then no signature or a field of the wrong type
BAD_SHARES = [encode((1,)), encode((1, b"x", 0, 0))]
SLOW = FaultPlan(
    adversary=SlowLinkAdversary(delays={(3, 1): 0.5, (3, 2): 0.5})
)


class BadEcho(ConsistentBroadcast):
    share = b""

    def unicast(self, dst, mtype, payload):
        super().unicast(dst, mtype, self.share if mtype == MSG_ECHO else payload)


class BadMainVote(BinaryAgreement):
    share = b""

    def send_all(self, mtype, payload):
        if mtype == MSG_MAINVOTE:
            payload = payload[:4] + (self.share,)
        super().send_all(mtype, payload)


@pytest.fixture(params=["group4", "group4_shoup"])
def group(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("share", BAD_SHARES)
def test_a_malformed_echo_share_is_evicted(group, share):
    rt = sim_runtime(group, seed=1, faults=SLOW)
    cbcs = {0: BadEcho(rt.contexts[0], "cbc", 1)}
    cbcs[0].share = share
    cbcs.update({i: ConsistentBroadcast(rt.contexts[i], "cbc", 1) for i in (1, 2, 3)})
    cbcs[1].send(b"payload")
    got = rt.run_all([cbcs[i].delivered for i in (1, 2, 3)], limit=600)
    assert got == [b"payload"] * 3
    no_errors(rt)


@pytest.mark.parametrize("share", BAD_SHARES)
def test_a_malformed_main_vote_share_is_evicted(group, share):
    rt = sim_runtime(group, seed=1, faults=SLOW)
    abas = {0: BadMainVote(rt.contexts[0], "aba")}
    abas[0].share = share
    abas.update({i: BinaryAgreement(rt.contexts[i], "aba") for i in (1, 2, 3)})
    for aba in abas.values():
        aba.propose(1)
    decisions = rt.run_all([abas[i].decided for i in (1, 2, 3)], limit=600)
    assert {value for value, _ in decisions} == {1}
    no_errors(rt)
