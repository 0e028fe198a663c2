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


# -- crypto hot-path acceleration (before/after) -------------------------------
#
# Two records of the Figure 4 LAN experiment prove the acceleration
# switch's contract:
#
# * ``modexp-accel-naive`` — switch off (the "before" record);
# * ``modexp-accel-full``  — switch on: must deliver the same payloads
#   and cut ``crypto.modexp`` by at least 2x.

ACCEL_SENDERS = [0, 2, 3]  # as in Figure 4
ACCEL_SEED = 44


def _accel_run(accel):
    from repro.experiments import LAN_SETUP, run_channel_experiment

    recorder = MemoryRecorder()
    result = run_channel_experiment(
        LAN_SETUP,
        "atomic",
        senders=ACCEL_SENDERS,
        messages=bench_messages(3.0, minimum=36),
        seed=ACCEL_SEED,
        recorder=recorder,
        accel=accel,
    )
    return result, recorder


def _accel_export(result, recorder, name, accel_label):
    bench_export(
        result, recorder, name=name, experiment="modexp-accel",
        meta={"seed": ACCEL_SEED, "accel": accel_label},
    )


@pytest.mark.benchmark(group="modexp-accel")
def test_accel_halves_modexp_count(benchmark):
    """Acceleration cuts ``crypto.modexp`` >= 2x, same payloads."""

    def both():
        naive, naive_rec = _accel_run(False)
        full, full_rec = _accel_run(True)
        return naive, naive_rec, full, full_rec

    naive, naive_rec, full, full_rec = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    _accel_export(naive, naive_rec, "modexp-accel-naive", "none")
    _accel_export(full, full_rec, "modexp-accel-full", "full")

    assert sorted(p for _, p in full.deliveries) == sorted(
        p for _, p in naive.deliveries
    )
    nc, fc = naive_rec.counters, full_rec.counters
    ratio = nc["crypto.modexp"] / fc["crypto.modexp"]
    benchmark.extra_info["modexp_ratio"] = ratio
    assert ratio >= 2.0, ratio
    naive_units = nc["crypto.units_full"] + nc["crypto.units_short"]
    full_units = fc["crypto.units_full"] + fc["crypto.units_short"]
    assert full_units < naive_units
    emit(
        "Acceleration (fig4 LAN config):\n"
        f"  modexp {nc['crypto.modexp']:.0f} -> {fc['crypto.modexp']:.0f} "
        f"({ratio:.2f}x fewer)\n"
        f"  work units {naive_units:.3g} -> {full_units:.3g} "
        f"({naive_units / full_units:.2f}x)\n"
        f"  simulated time {naive.sim_seconds:.2f}s -> {full.sim_seconds:.2f}s"
    )
