"""Hardware tables (Sec. 4): the ``exp`` column.

The paper characterizes every testbed machine by the time of one 1024-bit
modular exponentiation (55-427 ms).  This benchmark measures the same
operation on the present machine through :func:`repro.crypto.arith.powmod`,
the kernel the stack exponentiates with (OpenSSL's Montgomery
exponentiation where it is bound, builtin ``pow`` otherwise), and checks
that the cost model reproduces the paper's per-host figures exactly in
simulated time.
"""

import random

import pytest

from repro.crypto import arith
from repro.crypto.opcount import OpCounter
from repro.net.costmodel import CostModel, INTERNET_HOSTS, LAN_HOSTS
from repro.obs.recorder import MemoryRecorder

from conftest import bench_export, bench_messages, emit


def _modexp_args(bits=1024, seed=5):
    rng = random.Random(seed)
    m = arith.gen_prime(bits, rng)
    b = rng.randrange(2, m)
    e = rng.getrandbits(bits) | (1 << (bits - 1))
    return b, e, m


@pytest.mark.benchmark(group="hardware-table")
def test_modexp_1024_this_machine(benchmark):
    """Wall-clock 1024-bit modular exponentiation on this host."""
    b, e, m = _modexp_args()
    result = benchmark(arith.powmod, b, e, m)
    assert result == pow(b, e, m)
    assert 0 < result < m
    emit(
        "Hardware table ('exp' column, 1024-bit modexp):\n"
        "  paper hosts: "
        + ", ".join(f"{h.name}/{h.location}={h.exp_ms:.0f}ms" for h in INTERNET_HOSTS)
    )


@pytest.mark.benchmark(group="hardware-table")
def test_cost_model_reproduces_exp_column(benchmark):
    """One full 1024-bit exponentiation costs exactly exp_ms per host."""

    def simulate():
        out = {}
        for host in LAN_HOSTS + INTERNET_HOSTS:
            counter = OpCounter()
            counter.add(1024, 1024)
            out[f"{host.name}@{host.location}"] = (
                CostModel(host).seconds(counter) * 1000.0
            )
        return out

    measured = benchmark(simulate)
    for host in LAN_HOSTS + INTERNET_HOSTS:
        assert measured[f"{host.name}@{host.location}"] == pytest.approx(host.exp_ms)
    emit(
        "Cost model check: simulated exp times match the paper's hardware "
        "tables for all 8 host entries."
    )


# -- the Fig. 4 LAN crypto record ---------------------------------------------
#
# ``modexp-accel-naive`` keeps its name from the days of an acceleration
# switch: every check is the plain scheme call now, so this record pins the
# paper's operation mix (``crypto.modexp`` and work units) on the Figure 4
# LAN configuration.

FIG4_SENDERS = [0, 2, 3]  # as in Figure 4
FIG4_SEED = 44


@pytest.mark.benchmark(group="modexp-accel")
def test_fig4_lan_crypto_record(benchmark):
    """Export the Fig. 4 LAN run's crypto counters as ``modexp-accel-naive``."""
    from repro.experiments import LAN_SETUP, run_channel_experiment

    def run():
        recorder = MemoryRecorder()
        result = run_channel_experiment(
            LAN_SETUP,
            "atomic",
            senders=FIG4_SENDERS,
            messages=bench_messages(3.0, minimum=36),
            seed=FIG4_SEED,
            recorder=recorder,
        )
        return result, recorder

    result, recorder = benchmark.pedantic(run, rounds=1, iterations=1)
    bench_export(
        result, recorder, name="modexp-accel-naive", experiment="modexp-accel",
        meta={"seed": FIG4_SEED},
    )
    assert len(result.deliveries) == result.messages
    emit(
        "Fig. 4 LAN crypto work:\n"
        f"  modexp {recorder.counters['crypto.modexp']:.0f}, "
        f"simulated time {result.sim_seconds:.2f}s"
    )
