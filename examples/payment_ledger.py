#!/usr/bin/env python
"""Double-spend prevention on a replicated payment ledger.

The textbook reason replicated services need *Byzantine* total order:
Alice signs two conflicting transfers of her entire balance and submits
them to two different servers at the same moment.  Without agreement on
the order, each server could honor "its" transfer.  On SINTRA's atomic
broadcast, all four replicas process the two commands in one agreed order:
the first spends the balance, the second fails — identically everywhere.

The ledger also shows end-to-end client authentication *inside* the state
machine: transfers are RSA-signed by the account owner and carry a nonce,
so a corrupted server can neither forge nor replay a payment.

Run:  python examples/payment_ledger.py
"""

import random

from repro import quick_group
from repro.app.ledger import Ledger, ReplicatedLedger
from repro.common.encoding import decode
from repro.crypto.rsa import generate_keypair


def main() -> None:
    rt, parties = quick_group(n=4, t=1, seed=41)
    replicas = [ReplicatedLedger(p) for p in parties]

    alice = generate_keypair(256, random.Random(100))
    shop = generate_keypair(256, random.Random(101))

    replicas[0].open(b"alice", alice.public, 100)
    replicas[0].open(b"shop-east", shop.public, 0)
    replicas[0].open(b"shop-west", shop.public, 0)
    _pump(rt, replicas, 3)
    print("Alice opens an account with 100 coins.\n")

    # The double spend: the SAME balance, the SAME nonce, two merchants.
    pay_east = Ledger.cmd_transfer(b"alice", b"shop-east", 100, 0, alice)
    pay_west = Ledger.cmd_transfer(b"alice", b"shop-west", 100, 0, alice)
    replicas[1].submit(pay_east)   # submitted at server 1...
    replicas[2].submit(pay_west)   # ...and concurrently at server 2
    _pump(rt, replicas, 5)

    print("Conflicting 100-coin payments submitted concurrently at two servers:")
    for i, rep in enumerate(replicas):
        east = rep.balance_of(b"shop-east")
        west = rep.balance_of(b"shop-west")
        print(f"  replica {i}: alice={rep.balance_of(b'alice')} "
              f"shop-east={east} shop-west={west}")
    paid = sorted([replicas[0].balance_of(b"shop-east"),
                   replicas[0].balance_of(b"shop-west")])
    assert paid == [0, 100]
    digests = {rep.state_digest() for rep in replicas}
    assert len(digests) == 1
    assert replicas[0].ledger.total_supply() == 100
    print("\nExactly ONE payment went through; supply conserved at 100; all")
    print("replicas bit-identical — the total order decided the race.\n")

    # A replayed payment is also harmless: the nonce has moved on.
    winner_cmd = pay_east if replicas[0].balance_of(b"shop-east") else pay_west
    probe = Ledger()  # a scratch copy of the state shows the reply
    probe.restore(replicas[2].ledger.snapshot())
    assert decode(probe.apply(winner_cmd)) == ("error", b"bad nonce")
    replicas[3].submit(winner_cmd)
    _pump(rt, replicas, 6)
    assert {rep.state_digest() for rep in replicas} == digests
    print("Replaying the winning (signed!) payment fails with 'bad nonce' —")
    print("a corrupted server cannot double-charge by replaying traffic.")


def _pump(rt, replicas, count):
    """Run the simulation until every replica applied ``count`` commands."""
    while any(rep.applied_seq < count for rep in replicas):
        rt.run(max_events=1)


if __name__ == "__main__":
    main()
