"""A replicated certification authority on top of SINTRA.

The paper's related work (Sec. 5) compares against COCA, "a secure
distributed on-line certification authority" — the one other system with a
reported Internet deployment.  COCA orders requests with an
application-specific mechanism; this module shows what the paper argues
for instead: with SINTRA's atomic broadcast, a replicated CA is simply a
deterministic state machine, and with SINTRA's threshold signatures, no
single server can issue a certificate.

Design:

* certificate-management requests (register / update / revoke / query)
  are totally ordered by the atomic broadcast channel, so every replica's
  registry assigns the same serial numbers and resolves races (two clients
  registering one name) identically;
* each replica answers an issuing request with its *threshold-signature
  share* on the certificate statement; any ``k`` replicas' shares combine
  into a certificate under the group's key that verifies with one standard
  RSA verification — a client needs no trust in individual servers;
* up to ``t`` Byzantine replicas can neither issue a rogue certificate
  (k > t shares are needed) nor stop issuance (n - t honest replicas
  provide shares).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.app.replication import ReplicatedService, StateMachine
from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.core.party import Party
from repro.crypto.dealer import PartyCrypto
from repro.crypto.threshold_sig import ThresholdSignatureScheme


def certificate_statement(name: bytes, pubkey: bytes, serial: int) -> bytes:
    """The byte string the group's threshold signature certifies."""
    return encode(("sintra-ca-cert", name, pubkey, serial))


class CARegistry(StateMachine):
    """The CA's deterministic state: name -> (pubkey, serial, revoked).

    ``apply`` returns, for issuing operations, this replica's signature
    share on the certificate statement — replica-specific output over
    identical replicated state.
    """

    def __init__(self, crypto: PartyCrypto):
        self._crypto = crypto
        self.registry: Dict[bytes, Tuple[bytes, int, bool]] = {}

    # -- commands ------------------------------------------------------------------

    @staticmethod
    def cmd_register(name: bytes, pubkey: bytes) -> bytes:
        return encode(("register", name, pubkey))

    @staticmethod
    def cmd_update(name: bytes, pubkey: bytes) -> bytes:
        return encode(("update", name, pubkey))

    @staticmethod
    def cmd_revoke(name: bytes) -> bytes:
        return encode(("revoke", name))

    @staticmethod
    def cmd_query(name: bytes) -> bytes:
        return encode(("query", name))

    # -- state machine ----------------------------------------------------------------

    def apply(self, command: bytes) -> bytes:
        try:
            parsed = decode(command)
        except EncodingError:
            return encode(("error", b"malformed"))
        if not isinstance(parsed, tuple) or not parsed:
            return encode(("error", b"malformed"))
        op = parsed[0]
        try:
            if op == "register":
                _, name, pubkey = parsed
                if name in self.registry:
                    return encode(("error", b"name taken"))
                self.registry[name] = (pubkey, 1, False)
                return encode(("issued",) + self.certificate_share(name))
            if op == "update":
                _, name, pubkey = parsed
                if name not in self.registry or self.registry[name][2]:
                    return encode(("error", b"unknown or revoked"))
                serial = self.registry[name][1] + 1
                self.registry[name] = (pubkey, serial, False)
                return encode(("issued",) + self.certificate_share(name))
            if op == "revoke":
                _, name = parsed
                if name not in self.registry:
                    return encode(("error", b"unknown name"))
                pubkey, serial, _ = self.registry[name]
                self.registry[name] = (pubkey, serial, True)
                return encode(("revoked", name))
            if op == "query":
                _, name = parsed
                if name not in self.registry:
                    return encode(("error", b"unknown name"))
                pubkey, serial, revoked = self.registry[name]
                return encode(("record", name, pubkey, serial, revoked))
        except (ValueError, TypeError):
            return encode(("error", b"malformed"))
        return encode(("error", b"unknown op"))

    def certificate_share(self, name: bytes) -> Tuple[bytes, bytes, int, bytes]:
        """``(name, pubkey, serial, share)``: this replica's share on the
        statement of ``name``'s current registry entry (deterministic)."""
        pubkey, serial, _ = self.registry[name]
        statement = certificate_statement(name, pubkey, serial)
        return name, pubkey, serial, self._crypto.cbc_signer.sign_share(statement)

    def snapshot(self) -> bytes:
        return encode(sorted(
            (name, pk, serial, revoked)
            for name, (pk, serial, revoked) in self.registry.items()
        ))

    def restore(self, snapshot: bytes) -> None:
        entries = decode(snapshot)
        if not isinstance(entries, list):
            raise EncodingError("ca snapshot must be a list")
        registry: Dict[bytes, Tuple[bytes, int, bool]] = {}
        for entry in entries:
            if not (isinstance(entry, tuple) and len(entry) == 4):
                raise EncodingError("ca snapshot entry malformed")
            name, pubkey, serial, revoked = entry
            if not (isinstance(name, bytes) and isinstance(pubkey, bytes)
                    and isinstance(serial, int) and isinstance(revoked, bool)):
                raise EncodingError("ca snapshot entry malformed")
            registry[name] = (pubkey, serial, revoked)
        self.registry = registry


class ReplicatedCA(ReplicatedService):
    """One replica of the certification authority."""

    def __init__(self, party: Party, pid: str = "ca", **channel_kwargs: Any):
        super().__init__(
            party, pid, CARegistry(party.ctx.crypto), secure=False,
            **channel_kwargs,
        )

    @property
    def registry(self) -> CARegistry:
        return self.state  # type: ignore[return-value]

    def register(self, name: bytes, pubkey: bytes) -> None:
        self.submit(CARegistry.cmd_register(name, pubkey))

    def update(self, name: bytes, pubkey: bytes) -> None:
        self.submit(CARegistry.cmd_update(name, pubkey))

    def revoke(self, name: bytes) -> None:
        self.submit(CARegistry.cmd_revoke(name))

    def query(self, name: bytes) -> None:
        self.submit(CARegistry.cmd_query(name))

    def issued_share(self, name: bytes) -> Optional[Tuple[bytes, bytes, int, bytes]]:
        """``(name, pubkey, serial, share)`` of ``name``'s certificate, or
        ``None`` if unknown or revoked; the share is byte-identical to the
        one the issuing command returned."""
        entry = self.registry.registry.get(name)
        if entry is None or entry[2]:
            return None
        return self.registry.certificate_share(name)


def combine_certificate(
    scheme: ThresholdSignatureScheme,
    name: bytes,
    pubkey: bytes,
    serial: int,
    shares: Dict[int, bytes],
) -> bytes:
    """Client side: combine ``k`` replicas' shares into the certificate."""
    return scheme.combine(certificate_statement(name, pubkey, serial), shares)


def verify_certificate(
    scheme: ThresholdSignatureScheme,
    name: bytes,
    pubkey: bytes,
    serial: int,
    certificate: bytes,
) -> bool:
    """Verify a certificate against the group's public keys only."""
    return scheme.verify(certificate_statement(name, pubkey, serial), certificate)
