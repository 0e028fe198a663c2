#!/usr/bin/env python
"""A sealed-bid auction on the secure causal atomic broadcast channel.

Why secure *causal* atomic broadcast (paper Sec. 2.6)?  With plain atomic
broadcast a corrupted server sees a bid **before** its position in the
order is fixed and can inject its own bid-plus-epsilon ahead of it
(front-running).  SINTRA's secure channel encrypts every payload under the
group's threshold key: the content stays confidential until the ciphertext
is irrevocably ordered, and only then do the servers jointly decrypt
(t+1 decryption shares) and deliver.

The example also shows an *external* bidder who is not a group member: it
only needs the channel's public key to encrypt, and hands the ciphertext
to a server to broadcast — the server never sees the bid.

Run:  python examples/sealed_bid_auction.py
"""

import random

from repro import quick_group
from repro.core.channel import SecureAtomicChannel


def main() -> None:
    rt, parties = quick_group(n=4, t=1, seed=99)
    channels = [p.secure_atomic_channel("auction") for p in parties]
    # Every server observes the *ordered ciphertexts* first...
    ordered_cts = []
    channels[3].on_ciphertext = ordered_cts.append

    bids = {
        "alice": b"bid:alice:730",
        "bob": b"bid:bob:815",
        "carol": b"bid:carol:790",
    }

    # Alice and Bob submit through their home servers (members 0 and 1).
    channels[0].send(bids["alice"])
    channels[1].send(bids["bob"])

    # Carol is OUTSIDE the group: she encrypts under the channel public key
    # herself and hands the ciphertext to server 2, which cannot read it.
    carol_ct = SecureAtomicChannel.encrypt(
        parties[2].ctx.crypto.enc, channels[2].pid, bids["carol"], random.Random(5)
    )
    assert bids["carol"] not in carol_ct, "ciphertext must hide the bid"
    channels[2].send_ciphertext(carol_ct)

    # ...and the cleartexts only after the joint decryption round.
    opened = {i: [] for i in range(4)}

    def bid_reader(i):
        while len(opened[i]) < 3:
            bid = yield channels[i].receive()
            opened[i].append(bid)

    procs = [rt.spawn(bid_reader(i)) for i in range(4)]
    for p in procs:
        rt.run_until(p.future, limit=3000)

    print("Ciphertexts were ordered before anyone could read a single bid:")
    for k, ct in enumerate(ordered_cts):
        assert all(b not in ct for b in bids.values())
        print(f"  position {k}: {len(ct)} opaque bytes")

    print("\nOpened bids, in channel order (same at every server):")
    for bid in opened[0]:
        print("  ", bid.decode())
    assert all(opened[i] == opened[0] for i in range(4))

    winner = max(opened[0], key=lambda b: int(b.rsplit(b":", 1)[1]))
    print(f"\nWinner: {winner.decode()} — decided by bids sealed until ordering;")
    print("no server (not even a Byzantine one) could front-run, because the")
    print("TDH2 threshold cryptosystem is CCA2-secure and decryption needs")
    print("t+1 = 2 honest servers' shares *after* the order is fixed.")


if __name__ == "__main__":
    main()
