"""A faulty party re-sends an honest party's valid share as its own.

Coin shares and decryption shares are verified on their own, so a relayed
share passes verification; filed under the relaying party's index it
poisons every later combination ("indexed under wrong key").  Each
receiver must reject a share whose embedded index is not its sender's,
as the vote and echo paths do.  Party 0 runs no instance and relays
party 1's messages; the slow links from parties 1 and 2 to party 3 make
the relayed copy arrive at party 3 first.
"""

import pytest

from repro.core.agreement import BinaryAgreement
from repro.core.channel import SecureAtomicChannel
from repro.core.protocol import Protocol
from repro.net.faults import FaultPlan, SlowLinkAdversary

from tests.helpers import no_errors, sim_runtime

SLOW = FaultPlan(adversary=SlowLinkAdversary(delays={(1, 3): 0.5, (2, 3): 0.5}))


class Relay(Protocol):
    """Re-sends every ``mtype`` message party 1 sends it, as its own."""

    def __init__(self, ctx, pid, mtype):
        super().__init__(ctx, pid)
        self.mtype = mtype

    def on_message(self, sender, mtype, payload):
        if sender == 1 and mtype == self.mtype:
            self.send_all(mtype, payload)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_relayed_coin_share_does_not_stall_agreement(group4, seed):
    rt = sim_runtime(group4, seed=seed, faults=SLOW)
    Relay(rt.contexts[0], "aba", "coin")
    abas = {i: BinaryAgreement(rt.contexts[i], "aba") for i in (1, 2, 3)}
    for i, bit in zip(abas, (1, 0, 1)):
        abas[i].propose(bit)
    decisions = rt.run_all([a.decided for a in abas.values()], limit=600)
    assert len({value for value, _ in decisions}) == 1
    no_errors(rt)


def test_a_relayed_decryption_share_does_not_stall_release(group4):
    rt = sim_runtime(group4, seed=1, faults=SLOW)
    Relay(rt.contexts[0], "sec", "dec")
    channels = {i: SecureAtomicChannel(rt.contexts[i], "sec") for i in (1, 2, 3)}
    channels[1].send(b"sealed")
    got = rt.run_all([ch.receive() for ch in channels.values()], limit=600)
    assert got == [b"sealed"] * 3
    no_errors(rt)
