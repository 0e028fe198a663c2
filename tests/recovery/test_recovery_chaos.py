"""End-to-end crash recovery on the real TCP runtime.

One replica process is killed outright mid-stream — all in-memory state
destroyed, only the fsync'd delivery log and checkpoint surviving (or not
even those, with ``wipe_disk``) — while the rest of the group keeps
ordering commands under mild socket chaos.  The restarted incarnation
must catch up via checkpoint + state transfer and converge on the same
state digest.  Failures print a ``REPRO:`` line pinning the seed,
like the rest of the chaos tier, and the first test exports its
``recovery.*`` counters as a ``BENCH_*.json`` record.
"""

import asyncio
import json

import pytest

from repro.net.faults import ProcessFault, SocketChaosPlan
from repro.obs import MemoryRecorder, bench_dir_from_env, make_record, write_record
from repro.testing.netchaos import ChaosFabric, ReplicaProcess

from tests.conftest import cached_group
from tests.helpers import print_repro, stop_all, wait_for
from tests.recovery.test_service_sim import RCounter

pytestmark = [pytest.mark.chaos, pytest.mark.recovery]

NODE_KWARGS = dict(connect_retry_s=0.02, backoff_cap=0.3)
SERVICE_KWARGS = dict(checkpoint_interval=4, fsync="always", pull_retry_s=0.3)


def _run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _replicas(fabric, group, tmp_path):
    return [
        ReplicaProcess(
            fabric, group, i, RCounter, str(tmp_path / f"replica{i}"),
            recorder_factory=MemoryRecorder,
            service_kwargs=SERVICE_KWARGS, **NODE_KWARGS,
        )
        for i in range(group.n)
    ]


async def _submit_spaced(replicas, amounts, spacing=0.03):
    for k, amount in enumerate(amounts):
        svc = replicas[k % len(replicas)].service
        while not svc.channel.can_send():
            await asyncio.sleep(0.05)
        svc.submit(b"add:%d" % amount)
        await asyncio.sleep(spacing)


@pytest.mark.recovery
def test_killed_replica_catches_up_to_identical_digest(fuzz_seed, tmp_path):
    """Kill replica 3 mid-stream (total in-memory loss), keep the group
    ordering, restart it, and require byte-identical state digests."""

    async def body():
        plan = SocketChaosPlan(stall_prob=0.05, stall_s=0.01)
        fabric = ChaosFabric(4, plan, seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        replicas = _replicas(fabric, group, tmp_path)
        await asyncio.gather(*(r.start() for r in replicas))
        try:
            # Phase 1: the whole group orders 8 commands; the absolute
            # checkpoint rule fires at slot 4 and 8 on every replica.
            await _submit_spaced(replicas, range(1, 9))
            await wait_for(
                lambda: all(r.service.applied_seq >= 8 for r in replicas),
                what="phase-1 application",
            )
            await wait_for(
                lambda: all(r.service.last_certified >= 4 for r in replicas),
                what="phase-1 checkpoint certificates",
            )

            # Replica 3 dies: sockets aborted, every object dropped.
            await replicas[3].kill()
            assert replicas[3].service is None

            # Phase 2: the survivors keep going without it.
            await _submit_spaced(replicas[:3], range(9, 15))
            await wait_for(
                lambda: all(r.service.applied_seq >= 14 for r in replicas[:3]),
                what="phase-2 application on survivors",
            )

            # Restart from the survived disk state and catch up.
            await replicas[3].restart()
            stats = await replicas[3].recover(timeout=60)
            await wait_for(
                lambda: replicas[3].service.applied_seq >= 14,
                what="restarted replica catching up",
            )
            digests = [r.service.last_state_digest() for r in replicas]

            # Phase 3: the recovered replica's own sends still get ordered.
            await _submit_spaced([replicas[3]], [100])
            await wait_for(
                lambda: all(r.service.applied_seq >= 15 for r in replicas),
                what="post-recovery command",
            )
            final_digests = [r.service.last_state_digest() for r in replicas]
            values = [r.service.state.value for r in replicas]
            return {
                "stats": stats,
                "digests": digests,
                "final_digests": final_digests,
                "values": values,
                "recovered": replicas[3].service.recovered,
                "kills": replicas[3].kills,
                "recorder0": replicas[0].recorder,
                "recorder3": replicas[3].recorder,
            }
        finally:
            await stop_all(replicas, fabric)

    try:
        out = _run(body())
        assert out["recovered"]
        assert out["kills"] == 1
        assert out["stats"]["seq"] >= 4  # caught up from a real certificate
        assert len(set(out["digests"])) == 1
        assert len(set(out["final_digests"])) == 1
        assert set(out["values"]) == {sum(range(1, 15)) + 100}
        # The survivors logged and checkpointed; the victim adopted.
        assert out["recorder0"].counters["recovery.checkpoint.certified"] >= 1
        assert out["recorder0"].counters["recovery.transfer.served"] >= 1
        assert out["recorder3"].counters["recovery.transfer.adopted"] == 1
    except (AssertionError, asyncio.TimeoutError):
        print_repro(fuzz_seed)
        raise

    # Export the run's recovery counters through the BENCH pipeline.
    record = make_record(
        "recovery_chaos_catchup",
        experiment="recovery",
        meta={"n": 4, "t": 1, "checkpoint_interval": 4, "seed": hex(fuzz_seed)},
        metrics={
            "catchup_tail_slots": out["stats"]["tail_slots"],
            "resume_round": out["stats"]["resume_round"],
        },
        recorder=out["recorder3"],
    )
    out_dir = bench_dir_from_env() or str(tmp_path / "bench")
    path = write_record(out_dir, record)
    with open(path) as fh:
        exported = json.load(fh)
    recovery_counters = {
        k for k in exported["counters"] if k.startswith("recovery.")
    }
    assert {"recovery.attempts", "recovery.transfer.adopted"} <= recovery_counters


@pytest.mark.recovery
def test_byzantine_transfer_rejected_wiped_replica_recovers(fuzz_seed, tmp_path):
    """A wiped replica (no disk left at all) recovering next to a
    Byzantine peer that serves it a forged response: the honest quorum's
    is adopted, exactly once.  (That a forged response is *counted* as
    rejected holds only if it beats the ``t + 1`` honest ones — ``_on_state``
    stops counting once a response is adopted — so refusal itself is
    asserted where arrival order is deterministic:
    ``test_service_sim.py::test_byzantine_transfer_response_rejected``.)"""

    async def body():
        fabric = ChaosFabric(4, SocketChaosPlan(), seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        replicas = _replicas(fabric, group, tmp_path)
        await asyncio.gather(*(r.start() for r in replicas))
        try:
            await _submit_spaced(replicas, range(1, 9))
            await wait_for(
                lambda: all(r.service.applied_seq >= 8 for r in replicas),
                what="initial application",
            )
            await wait_for(
                lambda: all(r.service.last_certified >= 8 for r in replicas),
                what="initial checkpoint certificates",
            )

            # Replica 1 turns Byzantine for state transfer: corrupted
            # snapshot under a forged certificate.
            replicas[1].service._serve_payload = lambda: (
                8, b"forged-cert", b"poisoned-snapshot", []
            )

            # The declarative fault: kill replica 3, destroy its disk too,
            # restart, recover purely from the peers.
            fault = ProcessFault(victim=3, kill_after_s=0.2, wipe_disk=True)
            stats = await replicas[3].execute(fault)
            await wait_for(
                lambda: replicas[3].service.applied_seq >= 8,
                what="wiped replica catching up",
            )
            # What TCP adds: the forgery really went out on a socket.
            await wait_for(
                lambda: replicas[1].recorder.counters.get(
                    "recovery.transfer.served", 0
                ) >= 1,
                what="Byzantine peer serving its forged payload",
            )
            digests = [r.service.last_state_digest() for r in replicas]
            return {
                "stats": stats,
                "digests": digests,
                "adopted": replicas[3].recorder.counters.get(
                    "recovery.transfer.adopted", 0
                ),
            }
        finally:
            await stop_all(replicas, fabric)

    try:
        out = _run(body())
        assert out["stats"]["seq"] == 8
        assert len(set(out["digests"])) == 1
        assert out["adopted"] == 1
    except (AssertionError, asyncio.TimeoutError):
        print_repro(fuzz_seed)
        raise
