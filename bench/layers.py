"""Layer attribution for the traced benchmark run.

Three things live here and nowhere else:

* :data:`MODULE_SLICES` — the single table mapping every file under
  ``src/repro/`` to the *slice* (layer) whose self time it is charged to;
* :func:`bucket_profile` — folds a ``cProfile`` run into per-slice self
  seconds (builtins are charged to the module that called them) and the
  call counts of a few named functions;
* :func:`time_ops` — the ``op_us.*`` direct timers: each layer's public
  functions timed on their own, the unbiased cross-check for the
  profiler's shares (``cProfile`` inflates slices made of many small
  calls, so read a share together with ``op_us × calls_per_op``).
"""

from __future__ import annotations

import asyncio
import os
import pstats
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.common.encoding import decode, encode
from repro.core.channel.atomic import KIND_APP
from repro.core.party import make_parties
from repro.core.protocol import Protocol
from repro.crypto import arith, hashing
from repro.crypto.dealer import fast_group
from repro.crypto.params import SecurityParams
from repro.experiments.runner import make_channel
from repro.experiments.setups import LAN_SETUP
from repro.net.runtime import SimRuntime
from repro.net.sim import Simulator
from repro.net.tcp import TcpNode, local_endpoints
from repro.recovery.wal import DeliveryLog

SLICES = (
    "crypto.arith", "crypto.pow", "crypto.hash", "crypto.schemes",
    "common.encoding", "net.sim", "net.wire", "net.tcp", "net.syscall",
    "core.broadcast", "core.agreement", "core.channel", "app_client",
    "recovery.wal", "recovery.fsync", "obs", "other",
)

#: (path prefix relative to ``src/repro/``, slice); the first match wins,
#: so specific files come before their package's catch-all row.
MODULE_SLICES: Tuple[Tuple[str, str], ...] = (
    ("crypto/arith.py", "crypto.arith"),
    ("crypto/hashing.py", "crypto.hash"),
    ("crypto/hmac_auth.py", "crypto.hash"),
    ("crypto/", "crypto.schemes"),
    ("common/encoding.py", "common.encoding"),
    ("net/sim.py", "net.sim"),
    ("net/runtime.py", "net.sim"),
    ("net/latency.py", "net.sim"),
    ("net/costmodel.py", "net.sim"),
    ("net/faults.py", "net.sim"),
    ("net/lossy.py", "net.sim"),
    # sealing and framing that the simulator and the TCP runtime share
    ("net/links.py", "net.wire"),
    ("net/message.py", "net.wire"),
    ("net/transport.py", "net.wire"),
    ("net/", "net.tcp"),
    ("core/broadcast/", "core.broadcast"),
    ("core/agreement/", "core.agreement"),
    ("core/", "core.channel"),  # channels plus the router/party glue
    ("app/", "app_client"),
    ("client/", "app_client"),
    ("recovery/", "recovery.wal"),
    ("obs/", "obs"),
    ("", "other"),
)

#: builtins charged to a fixed slice whoever calls them (substring of the
#: profiler's name for the builtin)
_BUILTIN_SLICES = (
    ("posix.fsync", "recovery.fsync"),
    ("_hashlib", "crypto.hash"),
    ("_sha", "crypto.hash"),
    ("_hmac", "crypto.hash"),
    ("_socket", "net.syscall"),
    ("select.", "net.syscall"),
)

#: stdlib files charged to a slice (substring of the file path)
_STDLIB_SLICES = (
    (os.sep + "asyncio" + os.sep, "net.syscall"),
    (os.sep + "selectors.py", "net.syscall"),
    (os.sep + "socket.py", "net.syscall"),
    (os.sep + "hashlib.py", "crypto.hash"),
    (os.sep + "hmac.py", "crypto.hash"),
)

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep

#: ``calls_per_op.<name>`` -> (file suffix or "~" for a builtin, function)
CALL_SITES = {
    "encode": ("common/encoding.py", "encode"),
    "decode": ("common/encoding.py", "decode"),
    "egcd": ("crypto/arith.py", "egcd"),
    "invmod": ("crypto/arith.py", "invmod"),
    "fdh_to_zn": ("crypto/hashing.py", "fdh_to_zn"),
    "hmac": ("crypto/hmac_auth.py", "tag"),
    "pow": ("~", "<built-in method builtins.pow>"),
    "sha256": ("~", "<built-in method _hashlib.openssl_sha256>"),
    "fsync": ("~", "<built-in method posix.fsync>"),
    "sock_send": ("~", "<method 'send' of '_socket.socket' objects>"),
}

OP_TIMERS = (
    "encode", "decode", "encode_batch", "decode_batch", "pow_512", "invmod",
    "fdh_to_zn", "sig.sign_share", "sig.verify_share", "sig.combine",
    "sig.verify", "coin.release", "coin.verify_share", "coin.assemble",
    "tdh2.encrypt", "tdh2.decryption_share", "tdh2.verify_share",
    "tdh2.combine", "rsa.sign", "rsa.verify", "hmac.tag", "wal.append_fsync",
    "sim.event", "tcp.frame_rtt",
)


def module_slice(relpath: str) -> str:
    """Slice of a file given relative to ``src/repro/`` (``/`` separated)."""
    for prefix, name in MODULE_SLICES:
        if relpath.startswith(prefix):
            return name
    raise AssertionError("MODULE_SLICES must end with a catch-all row")


def file_slice(filename: str) -> str:
    """Slice of any profiled source file (repo, stdlib or elsewhere)."""
    cut = filename.rfind(_REPRO_MARK)
    if cut >= 0:
        return module_slice(
            filename[cut + len(_REPRO_MARK):].replace(os.sep, "/"))
    for mark, name in _STDLIB_SLICES:
        if mark in filename:
            return name
    return "other"


def _builtin_slice(name: str, caller_file: str) -> str:
    for mark, fixed in _BUILTIN_SLICES:
        if mark in name:
            return fixed
    if caller_file == "~":
        return "other"
    caller = file_slice(caller_file)
    if name == CALL_SITES["pow"][1] and caller.startswith("crypto."):
        return "crypto.pow"
    return caller


def bucket_profile(profile) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self seconds per slice incl. "total", calls per CALL_SITES name)``."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    self_s = {name: 0.0 for name in SLICES}
    calls = {name: 0 for name in CALL_SITES}
    wanted = {
        (suffix, func): name for name, (suffix, func) in CALL_SITES.items()
    }
    for (filename, _line, func), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename == "~":
            charged = 0.0
            for (caller_file, _l, _f), (_nc, _cc2, caller_tt, _ct2) in callers.items():
                self_s[_builtin_slice(func, caller_file)] += caller_tt
                charged += caller_tt
            # called from outside any profiled frame (profiler start/stop)
            self_s[_builtin_slice(func, "~")] += tt - charged
            key = ("~", func)
        else:
            self_s[file_slice(filename)] += tt
            cut = filename.rfind(_REPRO_MARK)
            key = (filename[cut + len(_REPRO_MARK):].replace(os.sep, "/")
                   if cut >= 0 else "", func)
        name = wanted.get(key)
        if name is not None:
            calls[name] += nc
    self_s["total"] = sum(self_s.values())
    return self_s, calls


# -- op_us.* direct timers ------------------------------------------------------


def _median_us(fn: Callable[[], Any], calls: int = 200) -> float:
    fn()  # first call builds lazily created tables and caches
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _median_each_us(fn: Callable[[Any], Any], items: List[Any]) -> float:
    samples = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def _wire_corpus(seed: int) -> List[bytes]:
    """Frames of a short sim-atomic-lan run, captured off the wire."""
    group = fast_group(LAN_SETUP.n, LAN_SETUP.t, SecurityParams.small(),
                       seed=("bench-corpus", seed))
    rt = SimRuntime(group, latency=LAN_SETUP.latency(), hosts=LAN_SETUP.hosts,
                    seed=("bench-corpus", seed))
    frames: List[bytes] = []
    rt.wire_taps.append(lambda src, dst, wire, depart: frames.append(wire))
    channels = [make_channel(p, "atomic", "corpus") for p in make_parties(rt)]
    for sender in (0, 2, 3):
        channels[sender].send(b"m:%02d" % sender)

    def reader():
        for _ in range(3):
            yield channels[0].receive()

    rt.run_until(rt.spawn(reader()).future, limit=50_000.0)
    return frames


def _codec_timers(seed: int, rng: random.Random) -> Dict[str, float]:
    frames = _wire_corpus(seed)
    values = [decode(frame) for frame in frames]
    # one candidate frame of tcp-kv-burst: (round, 64 records of 256 B, sig)
    vector = (7, [(k % 4, k, KIND_APP, rng.randbytes(256)) for k in range(64)],
              rng.getrandbits(512))
    vector_wire = encode(vector)
    return {
        "encode": _median_each_us(encode, values),
        "decode": _median_each_us(decode, frames),
        "encode_batch": _median_us(lambda: encode(vector)),
        "decode_batch": _median_us(lambda: decode(vector_wire)),
    }


def _crypto_timers(seed: int, rng: random.Random) -> Dict[str, float]:
    group = fast_group(4, 1, SecurityParams.small(), seed=("bench-ops", seed))
    party = group.party(0)
    message = rng.randbytes(64)
    modulus = party.rsa.n
    base, exponent = rng.getrandbits(511), rng.getrandbits(511)
    out = {
        "pow_512": _median_us(lambda: pow(base, exponent, modulus)),
        "invmod": _median_us(lambda: arith.invmod(base | 1, 1 << 512)),
        "fdh_to_zn": _median_us(lambda: hashing.fdh_to_zn("bench", message, modulus)),
        "hmac.tag": _median_us(lambda: party.link_auth(1).tag(message)),
    }

    scheme = party.cbc_scheme
    shares = {}
    for other in group.parties[: scheme.k]:
        share = other.cbc_signer.sign_share(message)
        shares[scheme.share_index(share)] = share
    own_share = party.cbc_signer.sign_share(message)
    signature = scheme.combine(message, shares)
    out["sig.sign_share"] = _median_us(lambda: party.cbc_signer.sign_share(message))
    out["sig.verify_share"] = _median_us(lambda: scheme.verify_share(message, own_share))
    out["sig.combine"] = _median_us(lambda: scheme.combine(message, shares))
    out["sig.verify"] = _median_us(lambda: scheme.verify(message, signature))

    coin = party.coin
    coin_shares = {
        other.index0 + 1: other.coin_holder.release(message)
        for other in group.parties[: coin.k]
    }
    out["coin.release"] = _median_us(lambda: party.coin_holder.release(message))
    out["coin.verify_share"] = _median_us(lambda: coin.verify_share(message, coin_shares[1]))
    out["coin.assemble"] = _median_us(lambda: coin.assemble_bit(message, coin_shares))

    enc = party.enc
    ctxt = enc.encrypt(message, b"bench", rng)
    dec_shares = {
        other.index0 + 1: other.enc_holder.decryption_share(ctxt)
        for other in group.parties[: enc.k]
    }
    out["tdh2.encrypt"] = _median_us(lambda: enc.encrypt(message, b"bench", rng))
    out["tdh2.decryption_share"] = _median_us(lambda: party.enc_holder.decryption_share(ctxt))
    out["tdh2.verify_share"] = _median_us(lambda: enc.verify_share(ctxt, dec_shares[1]))
    out["tdh2.combine"] = _median_us(lambda: enc.combine(ctxt, dec_shares))

    rsa_sig = party.sign("bench", message)
    public = party.party_public_keys[0]
    out["rsa.sign"] = _median_us(lambda: party.sign("bench", message))
    out["rsa.verify"] = _median_us(lambda: public.verify("bench", message, rsa_sig))
    return out


def _wal_timer(workdir: str, rng: random.Random) -> float:
    log = DeliveryLog(os.path.join(workdir, "op_us.wal"), fsync="always")
    data = rng.randbytes(256)
    index = iter(range(1 << 30))
    try:
        return _median_us(
            lambda: log.append_slot(next(index), 0, 0, KIND_APP, data, 1), calls=30)
    finally:
        log.close()


def _sim_event_timer() -> float:
    sim = Simulator(seed=0)

    def batch() -> None:
        for _ in range(10):
            sim.schedule(0.0, lambda: None)
        sim.run()

    return _median_us(batch) / 10


async def _frame_rtt(seed: int) -> float:
    """One authenticated protocol frame each way between two TcpNodes."""
    class Ping(Protocol):
        def __init__(self, ctx):
            super().__init__(ctx, "bench-ping")
            self.pong = None

        def on_message(self, sender, mtype, payload):
            if mtype == "ping":
                self.unicast(sender, "pong", payload)
            else:
                self.pong.set_result(None)

    group = fast_group(4, 1, SecurityParams.toy(), seed=("bench-rtt", seed))
    endpoints = local_endpoints(group.n)
    nodes = [TcpNode(group, i, endpoints, seed=(seed, "rtt", i)) for i in range(group.n)]
    await asyncio.gather(*(node.start() for node in nodes))
    try:
        pinger, _ = Ping(nodes[0].ctx), Ping(nodes[1].ctx)
        loop = asyncio.get_running_loop()
        samples = []
        for k in range(31):
            pinger.pong = loop.create_future()
            start = time.perf_counter()
            pinger.unicast(1, "ping", k)
            await asyncio.wait_for(pinger.pong, 10.0)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples[1:]) * 1e6  # first one dials the link
    finally:
        await asyncio.gather(*(node.stop() for node in nodes))


def time_ops(seed: int, workdir: str) -> Dict[str, float]:
    """Every ``op_us.*`` timer, in microseconds per call."""
    rng = random.Random(f"bench-ops/{seed}")
    out = _codec_timers(seed, rng)
    out.update(_crypto_timers(seed, rng))
    out["wal.append_fsync"] = _wal_timer(workdir, rng)
    out["sim.event"] = _sim_event_timer()
    out["tcp.frame_rtt"] = asyncio.run(_frame_rtt(seed))
    assert set(out) == set(OP_TIMERS), sorted(set(out) ^ set(OP_TIMERS))
    return out
