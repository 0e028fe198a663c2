"""Dynamic membership: epoch-based group reconfiguration (Sec. 6 outlook).

The dealt group is a fixed set of *slots*; a :class:`Roster` maps slots to
member uids and advances one epoch per committed configuration change.
Changes travel through the totally-ordered channel itself, so every honest
replica cuts over at the same slot; :class:`EpochKeychain` derives the
epoch's refreshed key shares (proactive share refresh — same group keys,
new polynomials) and :class:`Membership` — the component a
``RecoverableService(..., membership=...)`` has — drives the barrier and
the channel hand-off; newcomers onboard via certified checkpoints.
"""

from repro.membership.epoch import EpochKeychain, EpochMaterial
from repro.membership.roster import (
    MembershipChange,
    Roster,
    make_reconfig_command,
    parse_reconfig_command,
)
from repro.membership.service import Membership

__all__ = [
    "EpochKeychain",
    "EpochMaterial",
    "Membership",
    "MembershipChange",
    "Roster",
    "make_reconfig_command",
    "parse_reconfig_command",
]
