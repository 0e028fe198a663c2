"""Broadcast channels (paper Secs. 2.5-2.7 and 3.4).

:class:`~repro.common.errors.ChannelCongested` is re-exported here: it is
the public backpressure signal of every bounded channel (``send`` on a
full ``max_pending`` buffer), and callers should be able to import it
from the channel package they are sending on.
"""

from repro.common.errors import ChannelCongested
from repro.core.channel.base import Channel
from repro.core.channel.atomic import AtomicChannel
from repro.core.channel.secure import SecureAtomicChannel
from repro.core.channel.reliable_channel import ReliableChannel
from repro.core.channel.consistent_channel import ConsistentChannel

__all__ = [
    "Channel",
    "ChannelCongested",
    "AtomicChannel",
    "SecureAtomicChannel",
    "ReliableChannel",
    "ConsistentChannel",
]
