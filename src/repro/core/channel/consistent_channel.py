"""Consistent channel: aggregated echo broadcasts (paper Sec. 2.7).

Provides the ``Channel`` interface over ``n`` parallel consistent-broadcast
instances: only *consistency* is guaranteed — honest parties never deliver
conflicting messages for the same slot but some may deliver nothing.  The
paper notes that combined with an external stability mechanism this
corresponds to the WAN broadcast protocol of Malkhi, Merritt and Rodeh;
that mechanism is outside SINTRA and outside this reproduction.
"""

from __future__ import annotations

from repro.core.broadcast.consistent import ConsistentBroadcast
from repro.core.channel.aggregated import BroadcastChannel


class ConsistentChannel(BroadcastChannel):
    """Aggregated consistent broadcast."""

    broadcast_cls = ConsistentBroadcast
    kind = "consistent"
