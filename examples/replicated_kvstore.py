#!/usr/bin/env python
"""A fault-tolerant replicated key-value store.

The paper's motivating application (Sec. 1): an online service that keeps
working although some of its servers fail in arbitrary ways.  Here a
4-replica key-value store built on SINTRA's atomic broadcast

* serves concurrent writes from different replicas,
* resolves a compare-and-swap race deterministically (total order),
* keeps making progress while one replica is crashed **and** the network
  scheduler adversarially delays another, and
* ends with every live replica holding a bit-identical state.

Run:  python examples/replicated_kvstore.py
"""

from repro import quick_group
from repro.app.kvstore import ReplicatedKVStore
from repro.net.faults import CrashFault, FaultPlan, TargetedDelayAdversary
from repro.net.latency import lan_latency


def main() -> None:
    faults = FaultPlan(
        adversary=TargetedDelayAdversary(victims={2}, max_delay=0.25),
        crashes=(CrashFault(victim=3, crash_at=0.0),),
    )
    rt, parties = quick_group(
        n=4, t=1, seed=7, latency=lan_latency(), faults=faults
    )
    print("Group: n=4, t=1.  Replica 3 is crashed; replica 2's network is")
    print("adversarially delayed.  n > 3t, so the service must keep working.\n")

    live = [0, 1, 2]
    replicas = {i: ReplicatedKVStore(parties[i], pid="bank") for i in live}

    # Concurrent writes from different replicas.
    replicas[0].put(b"account:alice", b"100")
    replicas[1].put(b"account:bob", b"250")

    # A classic race: two replicas try to take the same lock with CAS.
    replicas[0].put(b"lock", b"free")
    _pump(rt, replicas, 3)
    replicas[1].cas(b"lock", b"free", b"owner=replica1")
    replicas[2].cas(b"lock", b"free", b"owner=replica2")
    _pump(rt, replicas, 5)

    print("After 5 commands (simulated time %.2fs):" % rt.now)
    for i, rep in replicas.items():
        lock = rep.local_value(b"lock").decode()
        print(f"  replica {i}: lock={lock!r}  state-digest={rep.state_digest().hex()[:16]}")

    digests = {rep.state_digest() for rep in replicas.values()}
    assert len(digests) == 1, "replicas diverged!"
    winner = replicas[0].local_value(b"lock")
    print(f"\nExactly one CAS won ({winner.decode()!r}) and *all* replicas agree —")
    print("the total order of atomic broadcast decided the race identically")
    print("everywhere, despite a crash and an adversarial scheduler.")


def _pump(rt, replicas, count):
    """Run the simulation until every replica applied ``count`` commands."""
    while any(rep.applied_seq < count for rep in replicas.values()):
        rt.run(max_events=1)


if __name__ == "__main__":
    main()
