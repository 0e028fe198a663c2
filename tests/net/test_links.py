"""Authenticated link layer: a frame's sender is the link it arrived on."""

import pytest

from repro.common.errors import InvalidSignature, TransportError
from repro.common.encoding import decode, encode
from repro.net import links

from tests.conftest import cached_group


def test_seal_open_roundtrip():
    g = cached_group()
    wire = links.seal(g.party(1), 2, b"body")
    assert links.open_sealed(g.party(2), 1, wire) == b"body"


def test_self_delivery_untagged():
    """The local loop is untagged; the same bytes from a peer are refused."""
    g = cached_group()
    wire = links.seal(g.party(0), 0, b"self")
    assert decode(wire) == (0, b"", b"self")
    assert links.open_local(g.party(0), wire) == b"self"
    for src in (1, 2, 3, None):
        with pytest.raises(InvalidSignature):
            links.open_sealed(g.party(0), src, wire)


def test_own_id_refused_from_a_peer_link():
    """Whatever tag it carries, a frame "from the receiver" opens on no link."""
    g = cached_group()
    for tag in (b"", g.party(3).link_auth(0).tag(b"vote")):
        forged = encode((0, tag, b"vote"))
        with pytest.raises(InvalidSignature):
            links.open_sealed(g.party(0), 3, forged)
    with pytest.raises(InvalidSignature):  # nor does the local loop take a link
        links.open_sealed(g.party(0), 0, encode((0, b"", b"vote")))


def test_local_loop_refuses_other_senders():
    g = cached_group()
    with pytest.raises(TransportError):
        links.open_local(g.party(0), links.seal(g.party(1), 0, b"body"))


def test_impersonation_rejected():
    """Party 3 cannot forge a frame that claims to be from party 1."""
    g = cached_group()
    tag = g.party(3).link_auth(2).tag(b"body")  # 3's key with 2
    forged = encode((1, tag, b"body"))  # claims sender 1
    with pytest.raises(InvalidSignature):
        links.open_sealed(g.party(2), 3, forged)  # on the forger's own link
    with pytest.raises(InvalidSignature):
        links.open_sealed(g.party(2), 1, forged)  # and where the claim points


def test_third_party_claim_with_its_real_tag_refused():
    """Two colluding parties: 1's genuine tag does not let 3 speak as 1."""
    g = cached_group()
    wire = links.seal(g.party(1), 2, b"body")  # well-formed under key(1, 2)
    with pytest.raises(InvalidSignature):
        links.open_sealed(g.party(2), 3, wire)
    assert links.open_sealed(g.party(2), 1, wire) == b"body"


def test_tampered_body_rejected():
    g = cached_group()
    wire = links.seal(g.party(1), 2, b"body")
    sender, tag, body = decode(wire)
    tampered = encode((sender, tag, b"bodY"))
    with pytest.raises(InvalidSignature):
        links.open_sealed(g.party(2), 1, tampered)


def test_wrong_receiver_rejected():
    """A frame sealed for 2 does not verify at 3 (pairwise keys)."""
    g = cached_group()
    wire = links.seal(g.party(1), 2, b"body")
    with pytest.raises(InvalidSignature):
        links.open_sealed(g.party(3), 1, wire)


def test_malformed_frames():
    g = cached_group()
    with pytest.raises(TransportError):
        links.open_sealed(g.party(0), 1, b"garbage")
    with pytest.raises(TransportError):
        links.open_sealed(g.party(0), 1, encode((1, 2, 3)))
    with pytest.raises(TransportError):
        links.open_local(g.party(0), b"garbage")
    with pytest.raises(InvalidSignature):  # no link has an out-of-range peer
        links.open_sealed(g.party(0), 1, encode((99, b"t", b"b")))
