#!/usr/bin/env python
"""An intrusion-tolerant certification authority.

The paper's related work (Sec. 5) discusses COCA, the one prior system
with a reported Internet deployment: a distributed online CA.  This
example rebuilds that service the SINTRA way —

* requests are totally ordered by atomic broadcast, so every replica's
  registry is identical and naming races have one winner everywhere;
* certificates carry the *group's* threshold signature: a client combines
  any k = ⌈(n+t+1)/2⌉ replicas' shares into one standard RSA signature and
  verifies it against public keys only;
* t Byzantine servers can neither mint a rogue certificate (they hold
  fewer than k shares) nor block issuance (n − t honest shares suffice).

Run:  python examples/distributed_ca.py
"""

from repro import quick_group
from repro.app.ca import ReplicatedCA, combine_certificate, verify_certificate


def main() -> None:
    rt, parties = quick_group(n=4, t=1, seed=17)
    cas = [ReplicatedCA(p) for p in parties]
    scheme = parties[0].ctx.crypto.cbc_scheme
    print(f"CA group: n=4, t=1; certificates need k={scheme.k} shares.\n")

    # Two clients race to register the same name at different replicas.
    cas[0].register(b"www.example.org", b"pk-of-client-A")
    cas[1].register(b"www.example.org", b"pk-of-client-B")
    _pump(rt, cas, 2)

    name = b"www.example.org"
    winners = {ca.registry.registry[name][0] for ca in cas}
    print("Race for 'www.example.org': registered to", winners, "-")
    print("exactly one key, and every replica agrees which (total order!).\n")

    # Gather shares from any quorum of replicas and build the certificate.
    _, pubkey, serial, _ = cas[0].issued_share(name)
    shares = {i + 1: cas[i].issued_share(name)[3] for i in range(scheme.k)}
    cert = combine_certificate(scheme, name, pubkey, serial, shares)
    print(f"Combined certificate from {scheme.k} shares: {len(cert)} bytes")
    print("  verifies:", verify_certificate(scheme, name, pubkey, serial, cert))
    print("  tampered owner rejected:",
          not verify_certificate(scheme, name, b"evil-key", serial, cert))

    # Key rotation: update bumps the serial; old statements stop verifying.
    cas[0].update(name, b"pk-of-client-A-v2")
    _pump(rt, cas, 3)
    _, new_pk, new_serial, _ = cas[1].issued_share(name)
    print(f"\nAfter key rotation: serial {serial} -> {new_serial};")
    print("  old certificate no longer matches the new statement:",
          not verify_certificate(scheme, name, new_pk, new_serial, cert))

    digests = {ca.state_digest() for ca in cas}
    assert len(digests) == 1
    print("\nAll four replicas hold bit-identical registries.")


def _pump(rt, cas, count):
    """Run the simulation until every replica applied ``count`` commands."""
    while any(ca.applied_seq < count for ca in cas):
        rt.run(max_events=1)


if __name__ == "__main__":
    main()
