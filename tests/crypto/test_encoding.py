"""Canonical encoding: round trips, canonicity and malformed input."""

import enum
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.core.channel import AtomicChannel

from tests.helpers import sim_runtime

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.binary(max_size=64),
    st.text(max_size=32),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
    ),
    max_leaves=20,
)


@given(values)
@settings(max_examples=300)
def test_roundtrip(value):
    assert decode(encode(value)) == value


def _typed_eq(a, b):
    """Equality that, unlike Python's, distinguishes bool from int —
    the encoding is canonical with respect to *typed* values."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_typed_eq(x, y) for x, y in zip(a, b))
    return a == b


@given(values, values)
def test_canonical(a, b):
    """Typed-equal values encode equally; others encode differently."""
    if _typed_eq(a, b):
        assert encode(a) == encode(b)
    else:
        assert encode(a) != encode(b)


def test_scalar_examples():
    assert decode(encode(0)) == 0
    assert decode(encode(-1)) == -1
    assert decode(encode(2 ** 4096)) == 2 ** 4096
    assert decode(encode(b"")) == b""
    assert decode(encode("héllo")) == "héllo"
    assert decode(encode(())) == ()
    assert decode(encode([])) == []


def test_bool_is_not_int():
    assert decode(encode(True)) is True
    assert decode(encode(1)) == 1
    assert encode(True) != encode(1)


def test_tuple_list_distinct():
    assert encode((1, 2)) != encode([1, 2])
    assert decode(encode((1, 2))) == (1, 2)
    assert decode(encode([1, 2])) == [1, 2]


def test_nested_structures():
    value = ("pid", 3, [b"a", (None, False)], "x")
    assert decode(encode(value)) == value


def test_unsupported_type():
    with pytest.raises(EncodingError):
        encode(3.14)
    with pytest.raises(EncodingError):
        encode({"a": 1})


@pytest.mark.parametrize(
    "raw",
    [
        b"",  # missing tag
        b"Z",  # unknown tag
        b"I\x00\x00\x00\x01",  # truncated integer
        b"I\x00\x00\x00\x00?",  # bad sign byte
        b"B\x00\x00\x00\x05ab",  # truncated bytes
        b"L\x00\x00\x00\x02T",  # truncated list
        encode(1) + b"extra",  # trailing garbage
        b"I\x00\x00\x00\x00-",  # negative zero
        b"S\x00\x00\x00\x02\xff\xfe",  # invalid UTF-8
    ],
)
def test_malformed(raw):
    with pytest.raises(EncodingError):
        decode(raw)


@given(st.binary(max_size=40))
@settings(max_examples=200)
def test_fuzz_decode_never_crashes_weirdly(raw):
    """decode either succeeds or raises EncodingError, nothing else."""
    try:
        value = decode(raw)
    except EncodingError:
        return
    assert encode(value) == raw  # decodable input must re-encode identically


# -- the codec against its predecessor ------------------------------------------
# ``encode``/``decode`` as they stood at 27c9828 (list of parts + join, tags
# compared as one-byte slices), kept verbatim as the reference.

_LEN = struct.Struct(">I")


def _ref_encode(value):
    out = []
    _ref_encode_into(value, out)
    return b"".join(out)


def _ref_encode_into(value, out):
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        mag = abs(value)
        body = mag.to_bytes((mag.bit_length() + 7) // 8, "big") if mag else b""
        out.append(b"I")
        out.append(_LEN.pack(len(body)))
        out.append(b"-" if value < 0 else b"+")
        out.append(body)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(b"B")
        out.append(_LEN.pack(len(data)))
        out.append(data)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"S")
        out.append(_LEN.pack(len(data)))
        out.append(data)
    elif isinstance(value, (list, tuple)):
        out.append(b"L" if isinstance(value, list) else b"U")
        out.append(_LEN.pack(len(value)))
        for item in value:
            _ref_encode_into(item, out)
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def _ref_decode(data):
    value, offset = _ref_decode_from(data, 0)
    if offset != len(data):
        raise EncodingError(f"{len(data) - offset} trailing bytes after value")
    return value


def _ref_read_len(data, offset):
    if offset + 4 > len(data):
        raise EncodingError("truncated length prefix")
    return _LEN.unpack_from(data, offset)[0], offset + 4


def _ref_decode_from(data, offset):
    if offset >= len(data):
        raise EncodingError("truncated input: missing tag")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"I":
        length, offset = _ref_read_len(data, offset)
        if offset + 1 + length > len(data):
            raise EncodingError("truncated integer")
        sign = data[offset : offset + 1]
        if sign not in (b"+", b"-"):
            raise EncodingError(f"bad integer sign byte {sign!r}")
        offset += 1
        mag = int.from_bytes(data[offset : offset + length], "big")
        offset += length
        if sign == b"-":
            if mag == 0:
                raise EncodingError("negative zero is not canonical")
            mag = -mag
        return mag, offset
    if tag in (b"B", b"S"):
        length, offset = _ref_read_len(data, offset)
        if offset + length > len(data):
            raise EncodingError("truncated bytes/string")
        raw = data[offset : offset + length]
        offset += length
        if tag == b"B":
            return raw, offset
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid UTF-8 in string") from exc
    if tag in (b"L", b"U"):
        count, offset = _ref_read_len(data, offset)
        items = []
        for _ in range(count):
            item, offset = _ref_decode_from(data, offset)
            items.append(item)
        return (items if tag == b"L" else tuple(items)), offset
    raise EncodingError(f"unknown tag byte {tag!r}")


class _Kind(enum.IntEnum):
    APP = 1
    NEGATIVE = -300


edge_ints = st.sampled_from(
    [0, 1, -1, 255, 256, -255, -256, 2 ** 31, -(2 ** 31), 2 ** 512, -(2 ** 512)]
)
extended_values = st.recursive(
    st.one_of(
        scalars,
        edge_ints,
        st.sampled_from(list(_Kind)),
        st.binary(max_size=16).map(bytearray),
        st.binary(max_size=16).map(memoryview),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
    ),
    max_leaves=20,
)


@given(extended_values)
@settings(max_examples=250)
def test_encode_is_byte_equal_to_its_predecessor(value):
    wire = encode(value)
    assert wire == _ref_encode(value)
    assert _typed_eq(decode(wire), _ref_decode(wire))


def test_subclasses_encode_as_their_base_type():
    class Name(str, enum.Enum):  # str() of a member is not its value
        RED = "red"

    class Pair(tuple):
        pass

    for value, base in [(Name.RED, "red"), (Pair((1, b"x")), (1, b"x")), (_Kind.NEGATIVE, -300)]:
        assert encode(value) == _ref_encode(value) == encode(base)


def test_golden_bytes():
    value = ("pid", 3, [b"a", (None, False, True)], "h\u00e9", -(2 ** 70), 0, 255, 256)
    wire = bytes.fromhex(  # computed at 27c9828
        "5500000008530000000370696449000000012b034c000000024200000001615500000003"
        "4e4654530000000368c3a949000000092d40000000000000000049000000002b4900000001"
        "2bff49000000022b0100"
    )
    assert encode(value) == wire
    assert _typed_eq(decode(wire), value)


def _outcome(decoder, raw):
    """What a decoder makes of ``raw``; anything but a value or an
    ``EncodingError`` (IndexError, struct.error, ValueError) propagates."""
    try:
        return ("value", decoder(raw))
    except EncodingError as exc:
        return ("malformed", str(exc))


@pytest.fixture(scope="module")
def corpus(group4):
    """Real traffic: per message type of a short atomic-broadcast run the
    shortest protocol body, plus the shortest wire frame (a frame is
    ``(sender, tag, body)`` whatever it carries), smallest first."""
    rt = sim_runtime(group4, seed=5)
    frames = []
    rt.wire_taps.append(lambda src, dst, wire, depart: frames.append(wire))
    channels = [AtomicChannel(ctx, "corpus") for ctx in rt.contexts]
    for sender in (0, 2, 3):
        channels[sender].send(b"m:%02d" % sender)

    def reader():
        for _ in range(3):
            yield channels[0].receive()

    rt.run_until(rt.spawn(reader()).future, limit=3000)
    shortest = {}
    for frame in frames:
        body = _ref_decode(frame)[2]
        mtype = _ref_decode(body)[1]
        if mtype not in shortest or len(body) < len(shortest[mtype][1]):
            shortest[mtype] = (frame, body)
    assert len(shortest) >= 6
    bodies = [body for _frame, body in shortest.values()]
    return sorted(bodies + [min((frame for frame, _body in shortest.values()), key=len)], key=len)


def _vector_frame():
    """One candidate of tcp-kv-burst: (round, 64 records of 256 B, signature)."""
    rng = random.Random(7)
    records = [(k % 4, k, 1, rng.randbytes(256)) for k in range(64)]
    return (7, records, rng.getrandbits(512))


def test_corpus_round_trips_through_either_codec(corpus):
    for raw in corpus + [_ref_encode(_vector_frame())]:
        value = _ref_decode(raw)
        assert _typed_eq(decode(raw), value)
        assert encode(value) == raw == _ref_encode(decode(raw))


def test_every_proper_prefix_is_malformed_in_both(corpus):
    for raw in corpus:
        for cut in range(len(raw)):
            got = _outcome(decode, raw[:cut])
            assert got == _outcome(_ref_decode, raw[:cut]) and got[0] == "malformed"
    # 17 KB: head, tail and a stride that drifts across the 64 records
    wire = encode(_vector_frame())
    cuts = set(range(330)) | set(range(len(wire) - 90, len(wire)))
    cuts |= {cut for cut in range(len(wire)) if cut % 281 < 3}
    for cut in sorted(cuts):
        got = _outcome(decode, wire[:cut])
        assert got == _outcome(_ref_decode, wire[:cut]) and got[0] == "malformed"


#: every tag, both signs, and the bytes that move a length or a magnitude most
_STRUCTURAL = sorted(set(b"NTFIBSLU+-\x00\x01\x05\x7f\x80\xff"))


def _substitutions(raw, position, every_byte):
    for byte in range(256) if every_byte else _STRUCTURAL + [raw[position] ^ 1]:
        if byte != raw[position]:
            yield raw[:position] + bytes((byte,)) + raw[position + 1 :]


def test_single_byte_substitutions_decode_alike(corpus):
    """Same value or ``EncodingError`` from both decoders, never another
    exception: all 255 substitutions at every byte of the two smallest
    corpus entries, the structural ones at every byte of the rest and of
    the head, first record header and tail of the vector frame."""
    wire = encode(_vector_frame())
    targets = [(raw, range(len(raw)), k < 2) for k, raw in enumerate(corpus)]
    targets.append((wire, list(range(40)) + list(range(len(wire) - 20, len(wire))), False))
    for raw, positions, every_byte in targets:
        for position in positions:
            for mutated in _substitutions(raw, position, every_byte):
                got, want = _outcome(decode, mutated), _outcome(_ref_decode, mutated)
                assert got[0] == want[0]
                assert _typed_eq(got[1], want[1]), (mutated[:40], position)


def test_bytes_like_inputs_decode_alike(corpus):
    for raw in corpus:
        value = decode(raw)
        assert _typed_eq(decode(bytearray(raw)), value)
        assert _typed_eq(decode(memoryview(raw)), value)
    with pytest.raises(EncodingError):
        decode(memoryview(b"S\x00\x00\x00\x02\xff\xfe"))
