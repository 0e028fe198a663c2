#!/usr/bin/env python
"""The same SINTRA stack on a *real* (and hostile) TCP network.

Everything in the other examples ran under the deterministic network
simulator.  The protocol implementations are sans-I/O, so they also run
unchanged over asyncio TCP with HMAC-authenticated links — the transport
the paper's prototype used (Sec. 3).  This example goes one step further
than the paper's prototype: the sliding-window links with authenticated
acknowledgments that the paper only *planned* run over the sockets, with
a connection supervisor per link, and the demo routes every connection
through seeded chaos proxies that reset connections, stall and corrupt
bytes mid-broadcast.  The atomic broadcast still delivers the identical
total order everywhere, and the per-peer counters show the resilience
machinery absorbing the faults.

Run:  python examples/real_network.py
"""

import asyncio

from repro.core.channel import AtomicChannel
from repro.crypto import SecurityParams, fast_group
from repro.net.faults import SocketChaosPlan
from repro.testing.netchaos import ChaosFabric


async def main() -> None:
    group = fast_group(4, 1, SecurityParams.toy(), seed=1234)
    plan = SocketChaosPlan(
        reset_prob=0.04, stall_prob=0.1, stall_s=0.01, corrupt_prob=0.03
    )
    fabric = ChaosFabric(4, plan, seed=0xC4405)
    await fabric.start()
    nodes = fabric.make_nodes(group, connect_retry_s=0.02, backoff_cap=0.3)
    await asyncio.gather(*(node.start() for node in nodes))
    print("4 servers behind chaos proxies on",
          ", ".join(f"{h}:{p}" for h, p in fabric.endpoints))

    channels = [AtomicChannel(node.ctx, "tcp-demo") for node in nodes]
    total = 8
    for k in range(total):
        channels[k % 4].send(b"msg-%d" % k)
        await asyncio.sleep(0.02)

    async def drain(ch):
        out = []
        while len(out) < total:
            out.append(await ch.receive())
        return out

    sequences = await asyncio.wait_for(
        asyncio.gather(*(drain(ch) for ch in channels)), timeout=90
    )
    print("Delivered over real TCP sockets under socket-level chaos:")
    for i, seq in enumerate(sequences):
        print(f"  server {i}: {[m.decode() for m in seq]}")
    assert all(seq == sequences[0] for seq in sequences), "total order!"
    assert sorted(sequences[0]) == sorted(b"msg-%d" % k for k in range(total))

    injected = fabric.injected()
    stats = [node.stats() for node in nodes]
    print(f"Chaos injected : {injected['resets']} resets, "
          f"{injected['stalls']} stalls, {injected['corruptions']} corruptions")
    print(f"Absorbed by    : {sum(s['reconnects'] for s in stats)} reconnects, "
          f"{sum(s['retransmissions'] for s in stats)} retransmissions "
          f"(zero frames lost at the channel layer)")

    await asyncio.gather(*(node.stop() for node in nodes))
    await fabric.stop()
    print("Total order holds over the real network, with HMAC-authenticated")
    print("sliding-window links (the paper's planned TCP replacement) riding")
    print("out resets, stalls and corruption injected at the socket layer.")


if __name__ == "__main__":
    asyncio.run(main())
