"""Drives one channel experiment and collects per-delivery timings.

The paper's measurement procedure (Sec. 4): a test program opens a channel,
one or more servers send short payload messages (< 32 bytes) to the group
at maximum capacity, and the elapsed time between successive deliveries of
two messages is measured on a recipient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.core.party import make_parties
from repro.crypto.dealer import SIG_MODE_MULTI, fast_group
from repro.crypto.params import SecurityParams
from repro.experiments.setups import Setup
from repro.net.runtime import SimRuntime
from repro.obs import export as obs_export
from repro.obs.recorder import Recorder

CHANNEL_ATOMIC = "atomic"
CHANNEL_SECURE = "secure"
CHANNEL_RELIABLE = "reliable"
CHANNEL_CONSISTENT = "consistent"

ChannelKind = str

ALL_CHANNELS = (CHANNEL_ATOMIC, CHANNEL_SECURE, CHANNEL_RELIABLE, CHANNEL_CONSISTENT)


def _payload(sender: int, k: int) -> bytes:
    """A short (< 32 byte) tagged payload, as in the paper's tests."""
    return b"m:%02d:%05d" % (sender, k)


def parse_payload(data: bytes) -> Tuple[int, int]:
    """Recover ``(sender, index)`` from a test payload."""
    _, s, k = data.split(b":")
    return int(s), int(k)


@dataclass
class ExperimentResult:
    """Timings observed on the measuring recipient."""

    setup: str
    channel: str
    senders: Sequence[int]
    messages: int
    #: (simulated delivery time, payload) in delivery order
    deliveries: List[Tuple[float, bytes]] = field(default_factory=list)
    sim_seconds: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    #: host wall-clock time of the run (machine-dependent; never CI-gated)
    wall_seconds: float = 0.0

    @property
    def count(self) -> int:
        return len(self.deliveries)

    @property
    def mean_delivery_s(self) -> float:
        """Average time between successive deliveries (the paper's metric)."""
        if len(self.deliveries) < 2:
            return 0.0
        first = self.deliveries[0][0]
        last = self.deliveries[-1][0]
        return (last - first) / (len(self.deliveries) - 1)

    def gaps(self) -> List[float]:
        """Per-delivery time: gap to the previous delivery (Figures 4/5)."""
        out: List[float] = []
        prev: Optional[float] = None
        for when, _ in self.deliveries:
            out.append(0.0 if prev is None else when - prev)
            prev = when
        return out

    def gap_series_by_sender(self) -> Dict[int, List[Tuple[int, float]]]:
        """Figure 4/5 series: (delivery number, gap) grouped by sender."""
        series: Dict[int, List[Tuple[int, float]]] = {}
        prev: Optional[float] = None
        for number, (when, payload) in enumerate(self.deliveries):
            gap = 0.0 if prev is None else when - prev
            prev = when
            sender, _ = parse_payload(payload)
            series.setdefault(sender, []).append((number, gap))
        return series


def make_channel(party, kind: ChannelKind, pid: str, **kwargs):
    """Instantiate the channel of the requested kind."""
    if kind == CHANNEL_ATOMIC:
        return party.atomic_channel(pid, **kwargs)
    if kind == CHANNEL_SECURE:
        return party.secure_atomic_channel(pid, **kwargs)
    if kind == CHANNEL_RELIABLE:
        return party.reliable_channel(pid)
    if kind == CHANNEL_CONSISTENT:
        return party.consistent_channel(pid)
    raise ConfigError(f"unknown channel kind {kind!r}")


def run_channel_experiment(
    setup: Setup,
    channel: ChannelKind,
    senders: Sequence[int],
    messages: int,
    sig_mode: str = SIG_MODE_MULTI,
    security: Optional[SecurityParams] = None,
    seed: object = 0,
    time_limit: float = 50_000.0,
    recorder: Optional[Recorder] = None,
) -> ExperimentResult:
    """Run one experiment and return the recipient's delivery timings.

    ``messages`` is the total number of payloads, split evenly over
    ``senders``; timing is observed on ``setup.measure_at``.  When a
    ``recorder`` is given, the whole stack records into it (phase
    durations on the simulated clock) and per-node CPU gauges are set at
    the end of the run.
    """
    wall_start = time.perf_counter()
    security = security or SecurityParams.small()
    group = fast_group(
        setup.n, setup.t, security, sig_mode=sig_mode, seed=("exp", seed)
    )
    rt = SimRuntime(
        group,
        latency=setup.latency(),
        hosts=setup.hosts,
        seed=("exp", seed),
        recorder=recorder,
    )
    parties = make_parties(rt)
    channels = [make_channel(p, channel, f"exp-{channel}") for p in parties]

    per_sender = messages // len(senders)
    total = per_sender * len(senders)
    for s in senders:
        for k in range(per_sender):
            channels[s].send(_payload(s, k))

    result = ExperimentResult(
        setup=setup.name, channel=channel, senders=tuple(senders), messages=total
    )
    recipient = channels[setup.measure_at]

    def reader():
        while len(result.deliveries) < total:
            payload = yield recipient.receive()
            result.deliveries.append((rt.now, payload))

    proc = rt.spawn(reader())
    rt.run_until(proc.future, limit=time_limit)
    result.sim_seconds = rt.now
    result.messages_sent = rt.messages_sent
    result.bytes_sent = rt.bytes_sent
    result.wall_seconds = time.perf_counter() - wall_start
    if rt.obs.enabled:
        for node in rt.nodes:
            rt.obs.set_gauge(f"node.{node.node_id}.cpu_s", node.cpu_seconds)
    errors = rt.router_errors()
    if errors:
        raise ConfigError(f"honest run refused malformed messages: {errors[:3]}")
    return result


# -- benchmark export ----------------------------------------------------------


def result_metrics(result: ExperimentResult) -> Dict[str, float]:
    """The scalar metrics a run contributes to its ``BENCH_*.json``.

    Everything except ``wall_seconds`` is simulator-derived and therefore
    deterministic for a pinned seed — which is what the CI perf gate
    diffs (:data:`repro.obs.export.UNGATED_METRICS` excludes the rest).
    """
    return {
        "sim_seconds": result.sim_seconds,
        "mean_delivery_s": result.mean_delivery_s,
        "deliveries": float(result.count),
        "messages_sent": float(result.messages_sent),
        "bytes_sent": float(result.bytes_sent),
        "wall_seconds": result.wall_seconds,
    }


def bench_record(
    result: ExperimentResult,
    recorder: Optional[Recorder],
    *,
    name: str,
    experiment: str,
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the benchmark record for one finished run."""
    full_meta: Dict[str, Any] = {
        "setup": result.setup,
        "channel": result.channel,
        "senders": list(result.senders),
        "messages": result.messages,
    }
    full_meta.update(meta or {})
    return obs_export.make_record(
        name,
        experiment=experiment,
        meta=full_meta,
        metrics=result_metrics(result),
        recorder=recorder,
    )


def export_result(
    result: ExperimentResult,
    recorder: Optional[Recorder],
    *,
    name: str,
    experiment: str,
    meta: Optional[Mapping[str, Any]] = None,
    bench_dir: Optional[str] = None,
) -> Optional[str]:
    """Write ``BENCH_<name>.json`` for a run, if an export dir is set.

    ``bench_dir`` wins; otherwise the ``REPRO_BENCH_DIR`` environment
    variable is consulted.  Returns the written path, or ``None`` when
    exporting is not configured.
    """
    directory = bench_dir if bench_dir is not None else obs_export.bench_dir_from_env()
    if directory is None:
        return None
    record = bench_record(
        result, recorder, name=name, experiment=experiment, meta=meta
    )
    return obs_export.write_record(directory, record)
