#!/usr/bin/env python
"""External clients of a SINTRA group: voting, failover, at-most-once.

A client of an intrusion-tolerant service trusts *no single replica* —
not even the one it submits to.  This demo runs an n=4, t=1 group with a
replicated counter behind the client layer and shows the three client
guarantees in action:

1. a replica forging its replies is simply outvoted: the client accepts
   a result only when t+1 = 2 replicas return byte-identical bytes;
2. a crashed contact replica costs one timeout: the client fails over
   to broadcasting and the survivors answer;
3. the retransmissions that failover causes do NOT re-execute the
   command — the replicated dedup table makes execution at-most-once.

Run:  python examples/external_client.py
"""

from repro import quick_group
from repro.app.replication import ReplicatedService, StateMachine
from repro.client import STATUS_OK, DedupStateMachine, RequestServer
from repro.client.simnet import SimClientNetwork


class Counter(StateMachine):
    """add:<k> increments; the reply is the running total."""

    def __init__(self):
        self.value = 0

    def apply(self, command: bytes) -> bytes:
        op, _, amount = command.partition(b":")
        if op == b"add":
            self.value += int(amount)
        return str(self.value).encode()

    def snapshot(self) -> bytes:
        return str(self.value).encode()

    def restore(self, snapshot: bytes) -> None:
        self.value = int(snapshot)


def main() -> None:
    rt, parties = quick_group(n=4, t=1, seed=2026)

    # Each replica wraps the app state machine in the dedup table and
    # exposes a request server with admission control.
    services = [
        ReplicatedService(p, "counter", DedupStateMachine(Counter()))
        for p in parties
    ]
    net = SimClientNetwork(rt)
    for i, svc in enumerate(services):
        net.attach(i, RequestServer(svc))

    # --- 1. a Byzantine contact forges every reply byte -------------------
    def forge(replica, client_id, seq, status, result):
        if replica == 0:
            return (STATUS_OK, b"1000000")  # replica 0 lies to the client
        return None

    net.reply_taps.append(forge)
    client = net.connect("alice", contact=0, timeout=2.0, seed=7)
    result = rt.run_until(client.submit(b"add:5"), limit=600)
    print(f"despite replica 0 forging replies, the t+1 vote returned: "
          f"{result.decode()}")
    assert result == b"5"

    # --- 2. the contact replica crashes -----------------------------------
    net.detach(0)  # replica 0 is gone from the clients' point of view
    bob = net.connect("bob", contact=0, timeout=0.2, seed=8)
    result = rt.run_until(bob.submit(b"add:10"), limit=600)
    print(f"contact crashed: timeout + failover still returned: "
          f"{result.decode()}")
    assert result == b"15"

    # --- 3. ...and the retries that caused did not double-execute ---------
    rt.run(until=rt.now + 30)  # let duplicate channel entries drain
    ordered = services[1].applied_seq
    values = {s.state.inner.value for s in services}
    print(f"the group ordered {ordered} envelopes for 2 requests, "
          f"but every replica's counter is {values} — "
          f"each command executed exactly once (at-most-once dedup)")
    assert values == {15}


if __name__ == "__main__":
    main()
