"""``repro.common.runs.Runs`` against a ``set`` of keys."""

import random

import pytest

from repro.common.runs import Runs


def _canonical_of(model):
    """The run list of a set of keys, written down the slow way."""
    out = []
    for origin, seq in sorted(model):
        if out and out[-1][0] == origin and out[-1][2] == seq:
            out[-1] = (origin, out[-1][1], seq + 1)
        else:
            out.append((origin, seq, seq + 1))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_runs_agree_with_a_set_model(seed):
    """Random adds with repeats, out-of-order arrivals and gaps that close
    later: ``add``'s verdict, ``in``, the count and the canonical form are
    the set's, after every step."""
    rng = random.Random(seed)
    runs, model = Runs(), set()
    origins = range(rng.randint(1, 5))
    span = rng.choice((8, 40, 200))
    for step in range(600):
        key = (rng.choice(origins), rng.randrange(span))
        if model and rng.random() < 0.2:
            key = rng.choice(sorted(model))  # a certain repeat
        assert runs.add(*key) == (key not in model)
        model.add(key)
        assert len(runs) == len(model)
        if step % 25 == 0 or len(model) == len(origins) * span:
            assert runs.canonical() == _canonical_of(model)
            probe = [(o, s) for o in range(-1, 6) for s in range(-1, span + 2)]
            assert [k in runs for k in probe] == [k in model for k in probe]
            for origin in origins:
                own = [s for o, s in model if o == origin]
                assert runs.next_seq(origin) == (max(own) + 1 if own else 0)
    assert Runs.parse(runs.canonical()) == runs
    assert Runs(model) == runs


def test_in_order_history_is_one_run_per_origin():
    runs = Runs((o, s) for s in range(5000) for o in range(4))
    assert runs.canonical() == [(o, 0, 5000) for o in range(4)]
    assert len(runs) == 20000


def test_bools_are_held_as_the_ints_they_equal():
    """``True`` passes an ``isinstance(x, int)`` check; whichever branch of
    ``add`` it reaches (new origin, new run, growing a run at either end),
    the canonical form holds plain ints and ``parse`` takes it back."""
    runs = Runs()
    assert runs.add(True, 3)  # a new origin
    assert runs.add(0, True)  # a new run
    assert runs.add(0, False)  # joins the run on its right
    assert not runs.add(0, 1) and not runs.add(1, 3)
    assert runs.add(0, 2) and (False, True) in runs
    canonical = runs.canonical()
    assert canonical == [(0, 0, 3), (1, 3, 4)]
    assert all(type(x) is int for triple in canonical for x in triple)
    assert Runs.parse(canonical) == runs
    assert type(runs.next_seq(True)) is int


def test_copy_is_independent():
    runs = Runs(((0, 0), (0, 1)))
    other = runs.copy()
    assert other.add(0, 2) and other.add(7, 3)
    assert (runs.canonical(), len(runs)) == ([(0, 0, 2)], 2)
    assert (other.canonical(), len(other)) == ([(0, 0, 3), (7, 3, 4)], 4)
    assert runs != other and runs == Runs(((0, 1), (0, 0)))


def test_parse_accepts_only_a_list():
    with pytest.raises(ValueError, match="runs must be a list"):
        Runs.parse(((0, 0, 1),))
    assert len(Runs.parse([])) == 0
