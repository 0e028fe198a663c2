"""Cross-cutting combinations not covered by the per-module suites."""

import asyncio

from repro.crypto import config_io

from tests.conftest import cached_group
from tests.helpers import sim_runtime


def test_shoup_group_end_to_end_atomic():
    """Atomic broadcast with real Shoup threshold signatures everywhere."""
    from repro.core.channel import AtomicChannel

    rt = sim_runtime(cached_group(4, 1, "shoup"), seed=1)
    chans = [AtomicChannel(ctx, "xs") for ctx in rt.contexts]
    chans[0].send(b"with shoup sigs")
    values = rt.run_all([ch.receive() for ch in chans], limit=3000)
    assert set(values) == {b"with shoup sigs"}
    assert not rt.router_errors()


def test_group_from_config_files_runs_over_tcp(tmp_path):
    """Full deployment path: dealer -> config files -> per-party load ->
    real TCP sockets -> agreement."""
    from repro.core.agreement import BinaryAgreement
    from repro.crypto.dealer import GroupConfig
    from repro.net.tcp import TcpNode, local_endpoints

    group = cached_group(4, 1)
    directory = str(tmp_path / "deploy")
    endpoints = local_endpoints(4)  # ephemeral: parallel runs cannot collide
    config_io.save_group(group, directory, endpoints=endpoints)

    # each "server" loads only its own two files
    parties = [config_io.load_party(directory, i) for i in range(4)]
    loaded = GroupConfig(n=4, t=1, sig_mode=group.sig_mode,
                         security=group.security, parties=parties)

    async def body():
        nodes = [
            TcpNode(loaded, i, config_io.load_endpoints(directory))
            for i in range(4)
        ]
        await asyncio.gather(*(node.start() for node in nodes))
        try:
            abas = [BinaryAgreement(node.ctx, "deploy-aba") for node in nodes]
            for i, a in enumerate(abas):
                a.propose(i % 2)
            return await asyncio.gather(*(a.decided for a in abas))
        finally:
            await asyncio.gather(*(node.stop() for node in nodes))

    results = asyncio.run(asyncio.wait_for(body(), timeout=60))
    assert len({v for v, _ in results}) == 1


def test_seven_party_shoup_group():
    """Dealing and using Shoup threshold signatures at n=7, k=5."""
    group = cached_group(7, 2, "shoup")
    msg = b"seven shoup"
    shares = {
        i + 1: group.party(i).aba_signer.sign_share(msg) for i in (0, 2, 3, 5, 6)
    }
    scheme = group.party(1).aba_scheme
    sig = scheme.combine(msg, shares)
    assert scheme.verify(msg, sig)


def test_runtime_dl_group_generation():
    """Fresh Schnorr-group generation (runtime path, small sizes)."""
    import random

    from repro.crypto import arith
    from repro.crypto.params import generate_dl_group

    group = generate_dl_group(128, 64, random.Random(3))
    rng = random.Random(4)
    assert arith.is_probable_prime(group.p, rng)
    assert arith.is_probable_prime(group.q, rng)
    assert (group.p - 1) % group.q == 0
    assert group.is_member(group.g)


def test_runtime_safe_prime_rsa_generation():
    """Fresh safe-prime generation + a full Shoup deal at runtime size."""
    import random

    from repro.crypto.params import generate_rsa_safe_primes
    from repro.crypto.threshold_sig import ShoupThresholdScheme

    p, q = generate_rsa_safe_primes(80, random.Random(5))
    scheme, secrets = ShoupThresholdScheme.deal(
        4, 3, 1, p, q, random.Random(6), "rt"
    )
    signers = [scheme.signer(i + 1, secrets[i]) for i in range(3)]
    shares = {s.index: s.sign_share(b"rt msg") for s in signers}
    assert scheme.verify(b"rt msg", scheme.combine(b"rt msg", shares))
