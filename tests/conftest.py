"""Shared test helpers: independent oracles and random fixture builders.

The oracles here deliberately avoid the library's own machinery — the
naive scanner compares window bytes directly, and the reference mixer is
a from-scratch rewrite of the documented hash — so that tests check the
implementation against something other than itself.
"""

from __future__ import annotations

import random
import struct
import warnings

import numpy as np

from nicsieve import Signature, SignatureSet
from nicsieve.codec import USEC, read_pcap

# hypothesis's pytest plugin imports this module while it reports a
# falsifying example; its dependencies raise a DeprecationWarning on
# import, which the warning filters in pyproject.toml would turn into an
# error inside pytest's report hook, hiding the example. Importing it
# once here, with that warning ignored, leaves the filters as they are.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def naive_exact_matches(signatures, payload: bytes) -> list[tuple[int, int, str]]:
    """All-offsets byte-comparison scanner: the ground-truth oracle."""
    out = []
    for sig in signatures:
        pat = sig.pattern
        for off in range(len(payload) - len(pat) + 1):
            if payload[off : off + len(pat)] == pat:
                out.append((off, len(pat), sig.id))
    out.sort()
    return out


def row_array(elements: list[bytes]) -> np.ndarray:
    """Equal-length ``bytes`` as a row array: 2-D uint8, one per row."""
    (width,) = {len(e) for e in elements}
    return np.frombuffer(b"".join(elements), dtype=np.uint8).reshape(
        len(elements), width)


def reference_finalize(value: int) -> int:
    """Independent rewrite of the documented two-round finalizer."""
    value = (value ^ (value >> 33)) % 2**64
    value = (value * 0xFF51AFD7ED558CCD) % 2**64
    return (value ^ (value >> 33)) % 2**64


def reference_fold(seed: int, data: bytes) -> int:
    """Independent rewrite of the documented byte fold, not finalized."""
    state = seed % 2**64
    for byte in data:
        state = ((state ^ byte) * 0x100000001B3) % 2**64
    return state


def reference_mix64(seed: int, data: bytes) -> int:
    """Independent rewrite of the documented byte-fold mixer."""
    return reference_finalize(reference_fold(seed, data))


def reference_probes(seed_a: int, seed_b: int, element: bytes, m: int,
                     k: int) -> list[int]:
    """Independent rewrite of the finalized double-hash probe sequence."""
    g1 = reference_mix64(seed_a, element)
    stride = reference_mix64(seed_b, element) | 1
    return [reference_finalize((g1 + i * stride) % 2**64) % m
            for i in range(k)]


def reference_check(filt, element: bytes) -> bool:
    """Oracle membership: all ``reference_probes`` bits set in the vector."""
    p = filt.params
    vector = filt.vector_bytes()
    return all(vector[i // 8] >> (i % 8) & 1
               for i in reference_probes(p.seed_a, p.seed_b, element, p.m, p.k))


def reference_candidates(filters, payload: bytes) -> list[tuple[int, int]]:
    """Bloom-route oracle: (offset, length) windows with all k bits set.

    ``filters`` maps pattern length to a programmed filter. Probes come
    from ``reference_probes`` and bits are read from the raw vector, so
    neither the library's hashing nor its query path is involved.
    """
    out = []
    for length, filt in filters.items():
        p = filt.params
        vector = filt.vector_bytes()
        for off in range(len(payload) - length + 1):
            probes = reference_probes(p.seed_a, p.seed_b,
                                      payload[off : off + length], p.m, p.k)
            if all(vector[i // 8] >> (i % 8) & 1 for i in probes):
                out.append((off, length))
    out.sort()
    return out


def reference_parse(data: bytes) -> bytes | None:
    """Scalar header walk: the frame's payload, or ``None`` if not parseable.

    Ethernet II, up to two 802.1Q / 802.1ad tags, IPv4 (IHL options, the
    total length ending the payload, and fragments not parseable) and TCP
    (data offset) or UDP, one field at a time; the oracle of the batch
    parse.
    """
    if len(data) < 14:
        return None
    head = 14
    ethertype = data[12] << 8 | data[13]
    for _ in range(2):
        if ethertype not in (0x8100, 0x88A8):
            break
        head += 4
        if len(data) < head:
            return None
        ethertype = data[head - 2] << 8 | data[head - 1]
    if ethertype != 0x0800:
        return data[head:]

    if len(data) < head + 20:
        return None
    version_ihl = data[head]
    if version_ihl >> 4 != 4:
        return None
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < head + ihl:
        return None
    if (data[head + 6] << 8 | data[head + 7]) & 0x3FFF:  # MF or an offset
        return None
    total_length = data[head + 2] << 8 | data[head + 3]
    datagram = data[head : head + total_length]  # padding and trailer cut
    protocol = data[head + 9]

    if protocol == 6:  # TCP
        if len(data) < head + ihl + 20:
            return None
        data_offset = (data[head + ihl + 12] >> 4) * 4
        if data_offset < 20 or len(data) < head + ihl + data_offset:
            return None
        header_len = ihl + data_offset
    elif protocol == 17:  # UDP
        if len(data) < head + ihl + 8:
            return None
        header_len = ihl + 8
    else:
        header_len = ihl
    if total_length < header_len:
        return None
    return datagram[header_len:]


def reference_ones_complement_sum(data: bytes) -> int:
    """Word-by-word 16-bit ones' complement sum with end-around carry."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(data[i] << 8 | data[i + 1] for i in range(0, len(data), 2))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def reference_tcp_frame(src_mac: bytes, dst_mac: bytes, src_ip: bytes,
                        dst_ip: bytes, src_port: int, dst_port: int,
                        payload: bytes, seq: int = 0) -> bytes:
    """Scalar Ethernet/IPv4/TCP frame builder: one header at a time."""
    eth = struct.pack("!6s6sH", dst_mac, src_mac, 0x0800)

    total_len = 20 + 20 + len(payload)
    ip_no_cksum = struct.pack("!BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0,
                              64, 6, 0, src_ip, dst_ip)
    cksum = ~reference_ones_complement_sum(ip_no_cksum) & 0xFFFF
    ip = ip_no_cksum[:10] + struct.pack("!H", cksum) + ip_no_cksum[12:]

    tcp_no_cksum = struct.pack("!HHIIBBHHH", src_port, dst_port, seq, 0,
                               5 << 4, 0x18, 65535, 0, 0)
    pseudo = struct.pack("!4s4sBBH", src_ip, dst_ip, 0, 6, 20 + len(payload))
    tcp_cksum = ~reference_ones_complement_sum(
        pseudo + tcp_no_cksum + payload) & 0xFFFF
    tcp = tcp_no_cksum[:16] + struct.pack("!H", tcp_cksum) + tcp_no_cksum[18:]

    return eth + ip + tcp + payload


def reference_capture(frames, endian: str, resolution: int) -> bytes:
    """Scalar classic capture writer, one struct-packed field at a time.

    ``endian`` is ``"<"`` or ``">"``; ``resolution`` 10**9 writes the
    nanosecond magic, any other the microsecond one. Each frame's
    ``ts_usec`` is written as its sub-second field and its ``orig_len``
    as it is, whatever their values.
    """
    magic = 0xA1B23C4D if resolution == 10**9 else 0xA1B2C3D4
    parts = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for f in frames:
        parts.append(struct.pack(endian + "IIII", f.ts_sec, f.ts_usec,
                                 len(f.data), f.orig_len))
        parts.append(f.data)
    return b"".join(parts)


def reference_trace(frames, resolution: int = USEC):
    """The ``Trace`` that ``read_pcap`` reads from ``reference_capture``'s
    little-endian capture of ``frames``."""
    return read_pcap(reference_capture(frames, "<", resolution))


def random_signature_set(rng: random.Random, count: int,
                         lengths: list[int] | None = None) -> SignatureSet:
    """Distinct random patterns with ids s0..s{count-1}."""
    if lengths is None:
        lengths = [rng.randint(2, 16) for _ in range(rng.randint(1, 5))]
    sigs: list[Signature] = []
    seen: set[bytes] = set()
    while len(sigs) < count:
        pattern = rng.randbytes(rng.choice(lengths))
        if pattern in seen:
            continue
        seen.add(pattern)
        sigs.append(Signature(id=f"s{len(sigs)}", pattern=pattern))
    return SignatureSet(signatures=sigs)
