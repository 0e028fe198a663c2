"""Ablations on SINTRA's design choices (DESIGN.md experiment index).

Not figures of the paper, but parameters the paper calls out:

* candidate order Pi in multi-valued agreement: fixed vs. randomized from
  local information (Sec. 2.4 — "balances the load ... but does not offer
  more security");
* the batch size / fairness parameter of atomic broadcast (Sec. 2.5):
  larger batches amortize agreement over more deliveries;
* signature mode at the paper's operating point: multi-signatures vs.
  Shoup threshold signatures at 1024 bits (Sec. 2.1's trade-off);
* reliable vs. consistent channel crossover between LAN and Internet
  (Table 1's inner comparison).
"""

import pytest

from repro.crypto.params import SecurityParams
from repro.experiments import INTERNET_SETUP, LAN_SETUP
from repro.experiments.runner import run_channel_experiment
from repro.experiments.setups import Setup
from repro.crypto.dealer import fast_group
from repro.core.party import make_parties
from repro.net.runtime import SimRuntime

from conftest import bench_messages, emit


def _atomic_mean(setup, seed=7, order="random", fairness_f=None, messages=None):
    """Like run_channel_experiment but with channel knobs exposed."""
    from repro.experiments.runner import ExperimentResult, _payload

    group = fast_group(setup.n, setup.t, SecurityParams.small(), seed=("abl", seed))
    rt = SimRuntime(group, latency=setup.latency(), hosts=setup.hosts, seed=("abl", seed))
    parties = make_parties(rt)
    kwargs = {"order": order}
    if fairness_f is not None:
        kwargs["fairness_f"] = fairness_f
    chans = [p.atomic_channel("abl", **kwargs) for p in parties]
    total = messages or bench_messages(0.5, minimum=8)
    for k in range(total):
        chans[0].send(_payload(0, k))
    result = ExperimentResult(setup=setup.name, channel="atomic", senders=(0,), messages=total)

    def reader():
        while len(result.deliveries) < total:
            payload = yield chans[0].receive()
            result.deliveries.append((rt.now, payload))

    proc = rt.spawn(reader())
    rt.run_until(proc.future, limit=50_000)
    return result.mean_delivery_s


@pytest.mark.benchmark(group="ablations")
def test_candidate_order_fixed_vs_random(benchmark):
    """Both orders work; neither is catastrophically slower (Sec. 2.4)."""

    def run():
        return {
            order: _atomic_mean(INTERNET_SETUP, order=order)
            for order in ("fixed", "random")
        }

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"Ablation, candidate order Pi (Internet atomic): {means}")
    assert 0.3 < means["fixed"] / means["random"] < 3.0


@pytest.mark.benchmark(group="ablations")
def test_batch_size_amortization(benchmark):
    """Batch n-f+1: f = n-t gives batch t+1 (paper default); f = t+1 gives
    batch n-t, amortizing one agreement over more deliveries."""

    def run():
        return {
            f: _atomic_mean(LAN_SETUP, fairness_f=f, messages=12)
            for f in (3, 2)  # batches of 2 and 3 for n=4, t=1
        }

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"Ablation, fairness/batch parameter (LAN atomic, mean s/delivery): {means}")
    # a bigger batch (f = 2 -> batch 3) must not be slower per delivery
    assert means[2] < 1.3 * means[3]


@pytest.mark.benchmark(group="ablations")
def test_sig_mode_at_paper_operating_point(benchmark):
    """Multi-signatures beat Shoup threshold signatures at 1024 bits on the
    LAN — the reason the paper defaults to multi-signatures."""

    def run():
        out = {}
        for mode in ("multi", "shoup"):
            sec = SecurityParams(sig_modbits=256, dl_bits=256, nominal_bits=1024)
            r = run_channel_experiment(
                LAN_SETUP, "atomic", senders=[0],
                messages=bench_messages(0.4, minimum=6),
                sig_mode=mode, security=sec, seed=8,
            )
            out[mode] = r.mean_delivery_s
        return out

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"Ablation, signature scheme at 1024 bits (LAN atomic): {means}")
    assert means["multi"] < means["shoup"]


@pytest.mark.benchmark(group="ablations")
def test_reliable_vs_consistent_tradeoff(benchmark):
    """Reliable broadcast trades messages for signatures: the gap between
    the two cheap channels stays small on both setups (Table 1)."""

    def run():
        out = {}
        for setup in (LAN_SETUP, INTERNET_SETUP):
            for ch in ("reliable", "consistent"):
                r = run_channel_experiment(
                    setup, ch, senders=[0],
                    messages=bench_messages(0.5, minimum=8), seed=9,
                )
                out[(setup.name, ch)] = r.mean_delivery_s
        return out

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"Ablation, reliable vs consistent: {means}")
    for setup in ("LAN", "Internet"):
        a, b = means[(setup, "reliable")], means[(setup, "consistent")]
        assert 0.3 < a / b < 3.0, (setup, a, b)


@pytest.mark.benchmark(group="ablations")
def test_sliding_window_links_under_loss(benchmark):
    """Extension (paper Sec. 3's planned TCP replacement): the stack over
    SINTRA's own sliding-window links with authenticated ACKs, on an
    unreliable datagram network.  Loss costs latency, never correctness."""
    from repro.core.channel import AtomicChannel
    from repro.net.lossy import LossyLinkRuntime
    from repro.experiments.runner import ExperimentResult, _payload

    def one(loss, seed=14):
        group = fast_group(4, 1, SecurityParams.small(), seed=("sw", seed))
        rt = LossyLinkRuntime(
            group, latency=LAN_SETUP.latency(), hosts=LAN_SETUP.hosts,
            seed=("sw", seed), loss=loss, duplicate=0.02,
        )
        parties = make_parties(rt)
        chans = [p.atomic_channel("sw") for p in parties]
        total = bench_messages(0.3, minimum=6)
        for k in range(total):
            chans[0].send(_payload(0, k))
        result = ExperimentResult(setup="LAN", channel="atomic", senders=(0,), messages=total)

        def reader():
            while len(result.deliveries) < total:
                payload = yield chans[0].receive()
                result.deliveries.append((rt.now, payload))

        proc = rt.spawn(reader())
        rt.run_until(proc.future, limit=50_000)
        return result.mean_delivery_s, rt.datagrams_lost

    def run():
        out = {}
        for loss in (0.0, 0.1, 0.3):
            mean, lost = one(loss)
            out[loss] = mean
        return out

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"Extension, sliding-window links on LAN atomic, mean s/delivery by "
         f"datagram loss: {means}")
    # correctness at every loss rate is implied by completion; latency
    # degrades monotonically-ish with loss
    assert means[0.3] > means[0.0]
