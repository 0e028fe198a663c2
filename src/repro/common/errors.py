"""Exception hierarchy for the SINTRA reproduction.

All library errors derive from :class:`ReproError` so applications can catch
everything from this package with a single handler.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A group or protocol configuration is invalid (e.g. ``n <= 3t``)."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidShare(CryptoError):
    """A threshold share (signature, coin, or decryption) failed verification."""


class InvalidSignature(CryptoError):
    """A digital signature or MAC failed verification."""


class InvalidCiphertext(CryptoError):
    """A ciphertext failed its validity check (TDH2 NIZK or framing)."""


class EncodingError(ReproError):
    """A byte string could not be decoded as a canonical value."""


class ProtocolError(ReproError):
    """A protocol instance was driven incorrectly (e.g. ``send`` twice)."""


class PidCollision(ProtocolError):
    """A protocol id was registered twice, or after it terminated.

    A programming error, never input: like any exception a handler
    raises, it fails the run where the bug is."""


class Malformed(ProtocolError):
    """A message of an unknown type, or whose payload does not conform
    to its protocol's declared schema (:mod:`repro.core.schema`).

    Never raised: the router records one per refused message in
    ``Router.errors`` as ``(pid, sender, Malformed(mtype))``."""

    def __init__(self, mtype: str):
        super().__init__(f"malformed {mtype!r} message")
        self.mtype = mtype


class ChannelCongested(ProtocolError):
    """A bounded channel's send buffer is full (the paper's blocking
    ``send``; check ``can_send()`` first, retry after deliveries).

    This is how a channel's ``max_pending`` bound surfaces to callers:
    distinct from other :class:`ProtocolError` causes, so applications
    submitting through :class:`~repro.app.replication.ReplicatedService`
    can catch congestion and retry (or shed) without masking genuine
    protocol misuse.  Re-exported from :mod:`repro.core.channel` and
    :mod:`repro.app`; the client layer's request servers translate it
    into a retryable ``Overloaded`` reply (see docs/CLIENTS.md)."""


class ServiceNotOpen(ReproError):
    """A replicated service was used before its channel was opened.

    Raised by ``submit()``/``close()`` on a service whose channel creation
    is deferred (e.g. a :class:`~repro.recovery.service.RecoverableService`
    that has neither ``start()``-ed nor ``recover()``-ed yet).  Call
    ``start()`` or ``recover()`` first, or wait for recovery to finish."""


class MembershipError(ReproError):
    """Base class for group-membership / epoch-reconfiguration failures."""


class EpochMismatch(MembershipError):
    """A message, certificate, or request belongs to a different
    membership epoch than this replica's current one.

    Raised when a caller submits against a stale epoch view
    (``ReplicatedService.submit(..., epoch=...)``), and when state
    transfer offers a checkpoint certified for an epoch older than the
    recovering replica's configured ``min_epoch`` — a mobile adversary
    must not be able to roll a successor back behind a reconfiguration.
    Key shares from a superseded epoch fail cryptographic verification
    outright (rotated verification keys); this error is the *typed*
    surface for the cases that are detected before any crypto runs."""


class ReconfigInProgress(MembershipError):
    """The group is between epochs: the reconfiguration barrier has
    committed and the channel is frozen until the epoch transition
    (resharing + channel cutover) completes.

    Retryable in exactly the sense of :class:`ChannelCongested` — the
    transition is local work measured in milliseconds, so callers should
    simply retry; request servers translate it into the same
    ``STATUS_OVERLOADED`` shed as channel backpressure."""


class ClientError(ReproError):
    """Base class for failures in the external-client layer."""


class RetriesExhausted(ClientError):
    """A client request ran out of attempts before collecting ``t + 1``
    matching replies (only with a finite ``max_attempts``; the default
    client retries forever, matching the asynchronous liveness model)."""


class TransportError(ReproError):
    """A network-transport-level failure."""
