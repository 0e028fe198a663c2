"""Operation accounting: buckets, scaling, nesting."""

from repro.crypto import arith, opcount


def test_no_counter_no_crash():
    arith.mexp(2, 10, 101)  # no active counter: recording is a no-op


def test_counting_context():
    with opcount.counting() as c:
        arith.mexp(2, 10, 101)
        arith.mexp(3, 3, 101)
    assert c.ops == 2
    assert c.units > 0


def test_bucket_split():
    c = opcount.OpCounter()
    c.add(1024, 1024)  # full exponent
    c.add(1024, 17)  # short exponent
    assert c.units_full == 1024 * 1024 * 1024
    assert c.units_short == 1024 * 1024 * 17
    assert c.units == c.units_full + c.units_short


def test_scaling_full_cubic_short_quadratic():
    c = opcount.OpCounter()
    c.add(512, 512)
    c.add(512, 17)
    scaled = c.scaled_units(2.0)
    assert scaled == 8 * (512 ** 3) + 4 * (512 * 512 * 17)


def test_nested_counters_innermost_wins():
    outer = opcount.push()
    arith.mexp(2, 3, 101)
    inner = opcount.push()
    arith.mexp(2, 3, 101)
    opcount.pop()
    arith.mexp(2, 3, 101)
    opcount.pop()
    assert inner.ops == 1
    assert outer.ops == 2  # the middle op and the last one


def test_reset():
    c = opcount.OpCounter()
    c.add(10, 10)
    assert c.reset().ops == 0
    assert c.units == 0


def test_active():
    assert opcount.active() is None
    c = opcount.push()
    assert opcount.active() is c
    opcount.pop()
    assert opcount.active() is None


def test_zero_exponent_counts_minimum_work():
    c = opcount.OpCounter()
    c.add(100, 0)
    assert c.units == 100 * 100 * 1


def test_charge_reports_the_three_crypto_counters():
    from repro.obs.recorder import MemoryRecorder

    recorder = MemoryRecorder()
    with opcount.counting() as c:
        arith.mexp(3, 12345, 1009)
    opcount.charge(recorder, c)
    assert sorted(recorder.counters) == [
        "crypto.modexp", "crypto.units_full", "crypto.units_short"
    ]
