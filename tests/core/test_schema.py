"""Message schemas: every spec form, and every protocol declares its own."""

import importlib
import pkgutil

import pytest

import repro
from repro.core.protocol import Protocol
from repro.core.schema import OneOf, Range, Seq, conforms

RECORD = (int, Range(0), {0, 1, 2}, bytes)


@pytest.mark.parametrize(
    "value, spec, expected",
    [
        (b"x", bytes, True),
        ("x", bytes, False),
        (None, None, True),
        (0, None, False),
        ((1, b"x"), (int, bytes), True),
        ([1, b"x"], (int, bytes), False),  # a list is no tuple
        ((1,), (int, bytes), False),
        ((1, b"x", 2), (int, bytes), False),
        (1, {0, 1}, True),
        (2, {0, 1}, False),
        ([0], {0, 1}, False),  # unhashable: refused, not raised
        ("soft", {"hard", "soft"}, True),
        (5, Range(1), True),
        (0, Range(1), False),
        (-1, Range(0), False),
        ("3", Range(0), False),
        ([(1, 0, 2, b"d")], Seq(RECORD, 1, 2), True),
        ([], Seq(RECORD, 1, 2), False),
        ([(1, 0, 2, b"d")] * 3, Seq(RECORD, 1, 2), False),
        ([(1, -1, 2, b"d")], Seq(RECORD), False),
        (((1, 0, 2, b"d"),), Seq(RECORD), False),  # a tuple is no list
        (None, OneOf(None, bytes), True),
        (b"p", OneOf(None, bytes), True),
        (7, OneOf(None, bytes), False),
    ],
)
def test_conforms(value, spec, expected):
    assert conforms(value, spec) is expected


def test_an_unknown_spec_is_a_bug():
    with pytest.raises(TypeError, match="not a message spec"):
        conforms(1, [int])


def _protocol_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    seen, todo = set(), [Protocol]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return sorted(
        (cls for cls in seen if cls.__module__.startswith("repro.")),
        key=lambda cls: cls.__qualname__,
    )


def test_every_protocol_declares_its_messages():
    classes = _protocol_classes()
    assert {cls.__name__ for cls in classes} >= {
        "ReliableBroadcast", "ConsistentBroadcast", "BinaryAgreement",
        "ArrayAgreement", "AtomicChannel", "SecureAtomicChannel",
        "BroadcastChannel", "CheckpointExchange",
    }
    undeclared = [cls.__qualname__ for cls in classes if cls.MESSAGES is None]
    # the abstract bases receive nothing themselves
    assert sorted(undeclared) == ["Agreement", "Broadcast", "Channel"]
