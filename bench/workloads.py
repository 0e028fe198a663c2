"""The four benchmark workloads (n = 4, t = 1 everywhere).

All load comes from one process and one thread.  On the ``tcp-*``
workloads the four replicas (``TcpNode`` + service + ``RequestServer`` +
``TcpRequestListener``) and the ``TcpClient``s share a single asyncio
loop over real 127.0.0.1 sockets: loopback, injected delay 0, so latency
is processor time.  Every loop is closed: a client (slot) submits its
next request only when the previous one is voted.

Each workload checks its own outputs; a violated check is returned as a
``problems`` entry and fails the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import cProfile
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.app.kvstore import KVStore
from repro.app.replication import ReplicatedService
from repro.client.dedup import DedupStateMachine
from repro.client.server import RequestServer
from repro.client.tcpnet import TcpClient, TcpRequestListener
from repro.common.errors import ReproError
from repro.common.rng import derive, derive_int
from repro.core.party import Party, make_parties
from repro.crypto import fastexp, opcount
from repro.crypto.dealer import fast_group
from repro.crypto.params import SecurityParams
from repro.experiments.runner import make_channel
from repro.experiments.setups import LAN_SETUP
from repro.net.runtime import SimRuntime
from repro.net.tcp import TcpNode, local_endpoints
from repro.obs.recorder import MemoryRecorder
from repro.recovery.service import RecoverableService

N, T = 4, 1
WARMUP_OPS = 4
#: a request that is not voted within this many seconds counts as failed
OP_TIMEOUT_S = 60.0
VICTIM = 3
DEGRADED_OPS = 20

Ready = Callable[[], None]


class Tracer:
    """What a traced segment records: the stack's ``MemoryRecorder``, a
    profiler the harness starts and stops around the timed window, and the
    harness's own spans around its calls into the public API."""

    def __init__(self, profiling: bool = True) -> None:
        self.recorder = MemoryRecorder()
        self.profile = cProfile.Profile() if profiling else None
        #: [name, start, end, parent index or None, op number or None]
        self.spans: List[List[Any]] = []

    def profile_on(self) -> None:
        if self.profile is not None:
            self.profile.enable()

    def profile_off(self) -> None:
        if self.profile is not None:
            self.profile.disable()


@contextlib.contextmanager
def _span(tracer: Optional[Tracer], name: str, parent: Optional[int] = None,
          op: Optional[int] = None):
    """Record one harness span (nothing without a tracer); yields its index
    for children to name as their parent."""
    if tracer is None:
        yield None
        return
    span = [name, time.perf_counter(), None, parent, op]
    tracer.spans.append(span)
    try:
        yield len(tracer.spans) - 1
    finally:
        span[2] = time.perf_counter()


class Window:
    """One timed window: per-op latencies and rates over chunks of ops.

    Rates are medians over consecutive chunks of ``chunk`` completed ops,
    so a stall that hits one chunk does not move the reported figure.
    """

    def __init__(self, chunk: int):
        self.chunk = chunk
        self.ops = 0
        self.latencies_s: List[float] = []
        self._marks: List[Tuple[float, float]] = []

    def start(self) -> None:
        self._marks = [(time.perf_counter(), time.process_time())]
        self._stop = self._marks[0]

    def done(self, ops: int = 1, latency_s: Optional[float] = None) -> None:
        before = self.ops // self.chunk
        self.ops += ops
        if latency_s is not None:
            self.latencies_s.append(latency_s)
        if self.ops // self.chunk > before:
            self._marks.append((time.perf_counter(), time.process_time()))

    def stop(self) -> None:
        self._stop = (time.perf_counter(), time.process_time())

    def elapsed_s(self) -> float:
        return time.perf_counter() - self._marks[0][0]

    @property
    def wall_s(self) -> float:
        return self._stop[0] - self._marks[0][0]

    def summary(self) -> Dict[str, float]:
        pairs = list(zip(self._marks, self._marks[1:]))
        if pairs:
            walls = [(b[0] - a[0]) / self.chunk for a, b in pairs]
            cpus = [(b[1] - a[1]) / self.chunk for a, b in pairs]
        else:  # shorter than one chunk (smoke runs): whole-window figures
            ops = max(1, self.ops)
            walls = [self.wall_s / ops]
            cpus = [(self._stop[1] - self._marks[0][1]) / ops]
        # without per-op latencies (simulator) an op's time is its chunk's
        op_s = sorted(self.latencies_s or walls)
        return {
            "ops_per_s": 1.0 / statistics.median(walls),
            "cpu_s_per_op": statistics.median(cpus),
            "op_ms_p50": statistics.median(op_s) * 1e3,
            "op_ms_p90": op_s[min(len(op_s) - 1, int(0.9 * len(op_s)))] * 1e3,
            "op_samples": float(len(op_s)),
            "wall_s_per_op": self.wall_s / max(1, self.ops),
        }


@dataclass
class Outcome:
    """What one segment of a workload hands back to the worker."""

    window: Window
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: raw per-layer inputs: counter deltas over the timed window etc.
    layer: Dict[str, float] = field(default_factory=dict)


# -- sim-atomic-lan -------------------------------------------------------------

SIM_SENDERS = (0, 2, 3)
#: payloads per repetition of the experiment; host time per delivery at
#: this size equals the 288-payload run of Fig. 4 (steady state is reached
#: within the first rounds) and a repetition is short enough to chunk on
SIM_PAYLOADS = 48


def _sim_experiment(outcome: Outcome, seed: object, payloads: int,
                    recorder: Optional[MemoryRecorder] = None) -> Dict[str, float]:
    """The paper's Fig. 4 run — what ``run_channel_experiment(LAN_SETUP,
    "atomic", senders=[0, 2, 3])`` does — with a reader on every
    recipient so that agreement and total order can be checked."""
    group = fast_group(LAN_SETUP.n, LAN_SETUP.t, SecurityParams.small(),
                       seed=("bench", seed))
    fastexp.clear_tables()  # a repetition never inherits precomputed state
    rt = SimRuntime(group, latency=LAN_SETUP.latency(), hosts=LAN_SETUP.hosts,
                    seed=("bench", seed), recorder=recorder)
    channels = [make_channel(p, "atomic", "bench-atomic") for p in make_parties(rt)]
    sent = []
    for sender in SIM_SENDERS:
        for k in range(payloads // len(SIM_SENDERS)):
            sent.append(b"m:%02d:%05d" % (sender, k))
            channels[sender].send(sent[-1])
    delivered: List[List[bytes]] = [[] for _ in channels]

    def reader(index: int):
        while len(delivered[index]) < len(sent):
            delivered[index].append((yield channels[index].receive()))

    problems = []
    try:
        rt.run_all([rt.spawn(reader(i)).future for i in range(len(channels))],
                   limit=50_000.0)
    except ReproError as exc:
        problems.append(f"simulation did not deliver everything: {exc}")
    if any(sequence != delivered[0] for sequence in delivered[1:]):
        problems.append("recipients delivered different sequences")
    if sorted(delivered[0]) != sorted(sent):
        problems.append("delivered multiset differs from the multiset sent")
    if rt.router_errors():
        problems.append(f"handler errors: {rt.router_errors()[:3]}")
    outcome.attempted += len(sent)
    outcome.problems += problems
    if problems:
        outcome.failed += len(sent)
    return {"ops": len(sent), "sim_seconds": rt.now,
            "messages": rt.messages_sent, "bytes": rt.bytes_sent}


def run_sim(seed: int, seconds: float, tracer: Optional[Tracer], ready: Ready,
            fixed_ops: Optional[int] = None) -> Outcome:
    """Repeat the experiment, on a fresh seed each time, for ``seconds``;
    or, with ``fixed_ops``, run one repetition of that many payloads —
    always on the first repetition's seed, so its counts repeat exactly.
    """
    payloads = fixed_ops or SIM_PAYLOADS
    outcome = Outcome(Window(chunk=payloads))
    with _span(tracer, "setup"):
        _sim_experiment(outcome, (seed, "warmup"), len(SIM_SENDERS))
    ready()
    recorder = tracer.recorder if tracer is not None else None
    with _span(tracer, "timed_window") as window_span:
        if tracer is not None:
            tracer.profile_on()
        outcome.window.start()
        repeat = 0
        while repeat == 0 or (fixed_ops is None
                              and outcome.window.elapsed_s() < seconds):
            with _span(tracer, "channel.send_receive", window_span, repeat):
                run = _sim_experiment(outcome, (seed, repeat), payloads, recorder)
            outcome.window.done(int(run.pop("ops")))
            repeat += 1
            for key, value in run.items():
                outcome.layer[key] = outcome.layer.get(key, 0.0) + value
        outcome.window.stop()
        if tracer is not None:
            tracer.profile_off()
            outcome.layer.update(_counter_delta({}, tracer.recorder))
    return outcome


# -- tcp-kv-* -------------------------------------------------------------------


@dataclass(frozen=True)
class TcpSpec:
    name: str
    security: SecurityParams
    clients: int
    #: outstanding requests per client (closed loop with a window)
    window: int
    value_bytes: Tuple[int, int]
    keys_per_slot: int
    chunk: int
    durable: bool = True
    secure: bool = False
    epilogue: bool = False
    channel_kwargs: Dict[str, int] = field(default_factory=dict)


TCP_SPECS = {
    "tcp-kv-seq": TcpSpec(
        "tcp-kv-seq", SecurityParams.small(), clients=1, window=1,
        value_bytes=(16, 64), keys_per_slot=16, chunk=16, epilogue=True,
        channel_kwargs={"max_batch": 1}),
    "tcp-kv-burst": TcpSpec(
        "tcp-kv-burst", SecurityParams.toy(), clients=2, window=32,
        value_bytes=(256, 256), keys_per_slot=8, chunk=128,
        channel_kwargs={"max_batch": 64, "pipeline_depth": 4}),
    "tcp-kv-secure": TcpSpec(
        "tcp-kv-secure", SecurityParams.small(), clients=1, window=1,
        value_bytes=(16, 64), keys_per_slot=16, chunk=12, durable=False,
        secure=True),
}


class Replica:
    """One replica's in-process stack; ``kill`` then ``boot`` restarts it
    on the same endpoints and directory."""

    def __init__(self, spec: TcpSpec, group, index: int, mesh, client_endpoint,
                 directory: str, recorder: Optional[MemoryRecorder], seed: int):
        self.spec, self.group, self.index = spec, group, index
        self.mesh, self.client_endpoint = mesh, client_endpoint
        self.directory, self.recorder, self.seed = directory, recorder, seed
        self.incarnation = 0
        self.node = self.service = self.listener = None

    async def boot(self) -> None:
        spec = self.spec
        # a restarted peer must present a fresh session, hence a fresh seed
        self.node = TcpNode(
            self.group, self.index, self.mesh, recorder=self.recorder,
            seed=derive_int(self.seed, "node", self.index, self.incarnation))
        await self.node.start()
        state = DedupStateMachine(KVStore())
        party = Party(self.node.ctx)
        if spec.durable:
            self.service = RecoverableService(
                party, "svc", state, self.directory, checkpoint_interval=16,
                fsync="always", **spec.channel_kwargs)
        else:
            self.service = ReplicatedService(
                party, "svc", state, secure=spec.secure, **spec.channel_kwargs)
        server = RequestServer(
            self.service, max_inflight_per_client=2 * spec.window,
            max_backlog=4 * spec.window * spec.clients, obs=self.recorder)
        self.listener = TcpRequestListener(
            server, *self.client_endpoint, obs=self.recorder)
        await self.listener.start()

    async def kill(self) -> None:
        """Stop abruptly: nothing is flushed, closed or released, so what
        survives on disk is what the fsync policy already put there."""
        await self.listener.stop()
        await self.node.stop()
        self.node = self.service = self.listener = None
        self.incarnation += 1

    async def stop(self) -> None:
        if self.node is None:
            return
        await self.listener.stop()
        if self.spec.durable:
            self.service.release()
        await self.node.stop()
        self.node = self.service = self.listener = None

    @property
    def store(self) -> Dict[bytes, bytes]:
        return self.service.state.inner.data


class Slot:
    """One closed-loop request stream over its own key range, with the
    sequential ``KVStore`` model its replies are checked against."""

    def __init__(self, sid: int, client: TcpClient, spec: TcpSpec, seed: int):
        self.client, self.spec = client, spec
        self.rng = derive(seed, "slot", sid)
        self.keys = [b"s%02d/k%02d" % (sid, j) for j in range(spec.keys_per_slot)]
        self.model: Dict[bytes, bytes] = {}
        self.issued = 0

    def _next(self) -> Tuple[bytes, bytes]:
        key = self.rng.choice(self.keys)
        self.issued += 1
        if self.issued % 2:
            value = self.rng.randbytes(self.rng.randint(*self.spec.value_bytes))
            previous = self.model.get(key, b"")
            self.model[key] = value
            return KVStore.cmd_put(key, value), previous
        return KVStore.cmd_get(key), self.model.get(key, b"")

    async def request(self, outcome: Outcome, command: bytes, expected: bytes,
                      window: Optional[Window], tracer: Optional[Tracer],
                      parent: Optional[int]) -> None:
        outcome.attempted += 1
        with _span(tracer, "client.submit", parent, outcome.attempted):
            start = time.perf_counter()
            try:
                result = await asyncio.wait_for(
                    self.client.submit(command), OP_TIMEOUT_S)
            except (asyncio.TimeoutError, ReproError):
                result = None
            latency = time.perf_counter() - start
        if result != expected:
            outcome.failed += 1
        elif window is not None:
            window.done(1, latency)

    async def run(self, outcome: Outcome, count: Optional[int],
                  deadline: Optional[float], window: Optional[Window],
                  tracer: Optional[Tracer], parent: Optional[int]) -> None:
        """``count`` requests, or requests until ``deadline``."""
        done = 0
        while (done < count if count is not None
               else time.perf_counter() < deadline):
            await self.request(outcome, *self._next(), window, tracer, parent)
            done += 1

    async def read_back(self, outcome: Outcome, tracer: Optional[Tracer]) -> None:
        for key in self.keys:
            await self.request(outcome, KVStore.cmd_get(key),
                               self.model.get(key, b""), None, tracer, None)


def _counter_delta(before: Dict[str, float], recorder: MemoryRecorder) -> Dict[str, float]:
    out = {
        f"ctr.{name}": value - before.get(name, 0.0)
        for name, value in recorder.counters.items()
    }
    batch = recorder.histograms.get("atomic.batch.size")
    out["atomic.batch_size_mean"] = batch.mean if batch is not None else 0.0
    return out


async def _settle(replicas: List[Replica], applied: int, what: str,
                  problems: List[str]) -> None:
    """Wait for every live replica to apply ``applied`` commands, then
    require one state digest among them."""
    live = [r for r in replicas if r.service is not None]
    for _ in range(400):
        if all(r.service.applied_seq >= applied for r in live):
            break
        await asyncio.sleep(0.025)
    counts = [r.service.applied_seq for r in live]
    if counts != [applied] * len(live):
        problems.append(f"{what}: applied {counts}, attempted {applied}")
    if len({r.service.last_state_digest() for r in live}) != 1:
        problems.append(f"{what}: live replicas disagree on the state digest")


async def _run_tcp(spec: TcpSpec, seed: int, seconds: float, workdir: str,
                   tracer: Optional[Tracer], ready: Ready, epilogue: bool,
                   fixed_ops: Optional[int]) -> Outcome:
    outcome = Outcome(Window(spec.chunk))
    recorder = tracer.recorder if tracer is not None else None
    replicas: List[Replica] = []
    clients: List[TcpClient] = []
    try:
        with _span(tracer, "setup"):
            group = fast_group(N, T, spec.security, seed=("bench", spec.name, seed))
            endpoints = local_endpoints(2 * N)
            mesh, client_endpoints = endpoints[:N], endpoints[N:]
            replicas += [
                Replica(spec, group, i, mesh, client_endpoints[i],
                        os.path.join(workdir, f"replica{i}"), recorder, seed)
                for i in range(N)
            ]
            clients += [
                TcpClient(client_endpoints, T, f"client{k}", obs=recorder,
                          seed=derive_int(seed, "client", k),
                          timeout=OP_TIMEOUT_S, contact=k % N)
                for k in range(spec.clients)
            ]
            slots = [
                Slot(sid, clients[sid // spec.window], spec, seed)
                for sid in range(spec.clients * spec.window)
            ]
            await asyncio.gather(*(r.boot() for r in replicas))
            if spec.durable:
                for replica in replicas:
                    replica.service.start()
            for client in clients:
                await client.start()
            while any(client.connected() < N for client in clients):
                await asyncio.sleep(0.002)
        with _span(tracer, "warmup") as warmup:
            await slots[0].run(outcome, WARMUP_OPS, None, None, tracer, warmup)
        ready()

        with _span(tracer, "timed_window") as window_span:
            before = dict(recorder.counters) if recorder is not None else {}
            if tracer is not None:
                # nothing on the TCP runtime counts exponentiations by itself
                modexp = opcount.push()
                tracer.profile_on()
            outcome.window.start()
            deadline = time.perf_counter() + seconds
            per_slot = None if fixed_ops is None else max(1, fixed_ops // len(slots))
            await asyncio.gather(*(
                slot.run(outcome, per_slot, deadline, outcome.window, tracer,
                         window_span)
                for slot in slots))
            outcome.window.stop()
            if tracer is not None:
                tracer.profile_off()
                opcount.pop()
                outcome.layer.update(_counter_delta(before, recorder))
                outcome.layer["ctr.crypto.modexp"] = float(modexp.ops)
        stats = [r.node.stats() for r in replicas]
        for key in ("retransmissions", "reconnects"):
            outcome.layer[f"tcp.{key}"] = float(sum(s[key] for s in stats))

        await _settle(replicas, outcome.attempted, "after the timed window",
                      outcome.problems)
        if epilogue:
            await _fault_epilogue(replicas, slots[0], outcome, tracer)
        model = {k: v for slot in slots for k, v in slot.model.items()}
        for replica in replicas:
            if replica.store != model:
                outcome.problems.append(
                    f"replica {replica.index} state differs from the model")
    finally:
        for client in clients:
            await client.stop()
        for replica in replicas:
            await replica.stop()
    return outcome


async def _fault_epilogue(replicas: List[Replica], slot: Slot, outcome: Outcome,
                          tracer: Optional[Tracer]) -> None:
    """Untimed for end-to-end purposes: stop a replica abruptly, serve on
    the three survivors, restart it on its directory, recover, and read
    every key back — no acknowledged write may be lost."""
    victim = replicas[VICTIM]
    with _span(tracer, "epilogue.kill"):
        await victim.kill()

    with _span(tracer, "epilogue.degraded") as span:
        degraded = Window(chunk=DEGRADED_OPS)
        degraded.start()
        await slot.run(outcome, DEGRADED_OPS, None, degraded, tracer, span)
        degraded.stop()
    outcome.layer["degraded.op_ms_p50"] = degraded.summary()["op_ms_p50"]
    await _settle(replicas, outcome.attempted, "degraded (3 survivors)",
                  outcome.problems)

    with _span(tracer, "epilogue.recover"):
        start = time.perf_counter()
        await victim.boot()
        try:
            await asyncio.wait_for(victim.service.recover(), OP_TIMEOUT_S)
        except asyncio.TimeoutError:
            outcome.problems.append("restarted replica did not finish recover()")
        await _settle(replicas, outcome.attempted, "after recovery",
                      outcome.problems)
        outcome.layer["recovery.catchup_s"] = time.perf_counter() - start

    await slot.read_back(outcome, tracer)
    await _settle(replicas, outcome.attempted, "after the read-back",
                  outcome.problems)


WORKLOADS = ("sim-atomic-lan",) + tuple(TCP_SPECS)


def run_workload(name: str, seed: int, seconds: float, workdir: str,
                 tracer: Optional[Tracer], ready: Ready, epilogue: bool = True,
                 fixed_ops: Optional[int] = None) -> Outcome:
    """One segment of ``name``: set-up, warm-up, ``ready()``, a timed
    window of ``seconds`` (or exactly ``fixed_ops`` ops), checks."""
    if name == "sim-atomic-lan":
        return run_sim(seed, seconds, tracer, ready, fixed_ops)
    spec = TCP_SPECS[name]
    return asyncio.run(_run_tcp(spec, seed, seconds, workdir, tracer, ready,
                                epilogue and spec.epilogue, fixed_ops))
