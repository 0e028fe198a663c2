"""The one walk over a slot sequence.

What a delivered prefix leaves behind besides the state machine's
snapshot is a :class:`History`; it is a pure function of the slot
sequence, which is why honest replicas sign byte-identical checkpoint
packages.  :func:`fold` is the only place that function is written down:
checkpoint builds, WAL replay, transfer validation and adoption all call
it, so a slot means the same thing live, on replay and on transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, FrozenSet, Iterable, List, Optional, Tuple

from repro.common.runs import Runs
from repro.core.channel.atomic import KIND_APP, KIND_CLOSE

if TYPE_CHECKING:  # the log holds a Checkpoint, whose module imports this one
    from repro.recovery.wal import SlotTuple

#: slot -> member uid (``None`` = vacant); no roster for a static group
Seats = Tuple[Optional[str], ...]
Members = Optional[Seats]
#: the membership rule ``step(epoch, roster, payload)``: ``None`` for an
#: ordinary command, else the ``(epoch, roster)`` in force after it
Step = Callable[[int, Members, bytes], Optional[Tuple[int, Members]]]


@dataclass(frozen=True)
class History:
    """What a delivered slot prefix leaves behind (see the module text).
    ``len(delivered)`` is the number of slots in the prefix."""

    delivered: Runs = field(default_factory=Runs)
    closes: FrozenSet[int] = frozenset()
    #: the round the channel continues at after the prefix
    round: int = 1
    epoch: int = 0
    roster: Members = None


def fold(
    base: History, slots: Iterable[SlotTuple], step: Step
) -> Tuple[History, List[bytes]]:
    """Extend ``base`` by ``slots``; also return, in order, the payloads
    the state machine must apply.

    ``step`` says what an application payload is.  ``None``: an ordinary
    command.  A larger epoch: the barrier — the roster steps and the round
    restarts at 1, the successor channel numbering its rounds afresh.  The
    same epoch: a reconfiguration command that lost the race for its epoch
    or is inadmissible; it occupies its slot and is never applied.

    A slot repeating a delivered key adds nothing to ``delivered``: the
    count falls short of the slots folded, which is how callers tell.
    Costs O(runs + slots), whatever the length of the history behind
    ``base``.
    """
    delivered = base.delivered.copy()
    closes = set(base.closes)
    round_now, epoch, roster = base.round, base.epoch, base.roster
    commands: List[bytes] = []
    for _index, origin, oseq, kind, data, round_ in slots:
        delivered.add(origin, oseq)
        round_now = max(round_now, round_ + 1)
        if kind == KIND_CLOSE:
            closes.add(origin)
        elif kind == KIND_APP:
            stepped = step(epoch, roster, data)
            if stepped is None:
                commands.append(data)
            elif stepped[0] > epoch:
                epoch, roster = stepped
                round_now = 1
    history = History(delivered, frozenset(closes), round_now, epoch, roster)
    return history, commands
