"""Synthetic trace generation with exact ground truth.

Each generated packet is a well-formed Ethernet/IPv4/TCP frame (header
checksums included) carrying a random payload. A chosen fraction of
packets are attacks: one uniformly chosen pattern spliced in at a
uniformly chosen payload offset. Background payloads are rejection
sampled until no pattern occurs in them by chance, so the manifest --
which packet is an attack, which signature, at what offset -- is exact
ground truth for measuring detection and false-positive behavior.

The capture is laid out by column. Each frame's header draws are one
24-byte row and its payload length one integer, from which every
record's place in the capture follows; the capture is allocated once at
its final size, and each payload is drawn straight into its place there,
where attacks are spliced in and dirty background payloads redrawn. The
record, Ethernet, IPv4 and TCP headers are then written with numpy a
block of frames at a time, both checksums included: the payloads' word
sums are read where they lie, and carries are folded once at the end
(RFC 1071). No per-frame payload, frame or Python object is kept; the
manifest is two integer columns beside the payload lengths. Everything
is driven by one seeded generator: the same spec and seed reproduce the
trace and its manifest bit for bit.
"""

from __future__ import annotations

import csv
import io
import random
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from .analytics import columns_csv
from .codec import PROTO_TCP, USEC, Trace, file_header
from .signatures import ExactScanner, Payloads, SignatureSet

MAX_PAYLOAD = 1400  # keeps frames inside a standard Ethernet MTU

_TS_BASE = 1_600_000_000  # fixed epoch so generated captures are stable
_TS_STEP_USEC = 100
_HEADER_DRAWS = struct.Struct("<16sHHI")  # MACs and IP hosts, ports, seq
_DRAWS = np.dtype([("hosts", "u1", 16), ("src_port", "<u2"), ("dst_port", "<u2"),
                   ("seq", "<u4")])  # the same rows, as numpy reads them
_MANIFEST_HEADER = ["index", "is_attack", "signature_id", "embed_offset"]


@dataclass
class TrafficSpec:
    """What to generate: volume, attack mix, payload sizes, seed, rules."""

    packet_count: int
    attack_fraction: float = 0.0
    payload_len_range: tuple[int, int] = (40, MAX_PAYLOAD)
    seed: int = 0
    signatures: SignatureSet | None = None

    def __post_init__(self) -> None:
        if self.packet_count < 0:
            raise ValueError("packet_count must be >= 0")
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ValueError("attack_fraction must be within [0, 1]")
        lo, hi = self.payload_len_range
        if lo < 0 or hi > MAX_PAYLOAD or lo > hi:
            raise ValueError(
                f"payload_len_range must satisfy 0 <= min <= max <= {MAX_PAYLOAD}")
        if self.attack_fraction > 0 and (self.signatures is None
                                         or len(self.signatures) == 0):
            raise ValueError("attack packets requested but no signatures given")


@dataclass(eq=False)
class Manifest:
    """Per-frame ground truth emitted alongside a generated trace, as columns.

    Frame i carries signature ``ids[signature[i]]`` spliced in at payload
    offset ``offset[i]``; both columns hold -1 for a background frame.
    ``ids`` are the rule set's ids in rule order.
    """

    ids: list[str]
    signature: np.ndarray  # int64
    offset: np.ndarray  # int64

    def attack_indices(self) -> np.ndarray:
        return np.flatnonzero(self.signature >= 0)

    def to_csv(self) -> bytes:
        # each id's field is rendered once, quoted as csv.writer quotes it
        # with its default "\r\n" line end, which quotes a bare "\r" too;
        # a background frame's code, -1, picks the last label
        labels = []
        for sig_id in self.ids:
            out = io.StringIO()
            csv.writer(out).writerow([1, sig_id])
            labels.append(out.getvalue()[:-2])
        labels.append("0,")
        return columns_csv(",".join(_MANIFEST_HEADER),
                           (self.signature, labels), self.offset)


# One generated record: the capture's little-endian record header, then an
# Ethernet II, an IPv4 and a TCP header, neither with options; the payload
# follows. The IPv4 and TCP headers start at even offsets, so a big-endian
# 16-bit view of the records reads their checksum words.
_RECORD = np.dtype([
    ("ts_sec", "<u4"), ("ts_usec", "<u4"), ("caplen", "<u4"), ("orig_len", "<u4"),
    ("dst_mac", "u1", 6), ("src_mac", "u1", 6), ("ethertype", ">u2"),
    ("version_ihl", "u1"), ("tos", "u1"), ("total_len", ">u2"), ("ident", ">u2"),
    ("fragment", ">u2"), ("ttl", "u1"), ("protocol", "u1"),
    ("ip_checksum", ">u2"), ("src_ip", "u1", 4), ("dst_ip", "u1", 4),
    ("src_port", ">u2"), ("dst_port", ">u2"), ("seq", ">u4"), ("ack", ">u4"),
    ("data_offset", "u1"), ("flags", "u1"), ("window", ">u2"),
    ("tcp_checksum", ">u2"), ("urgent", ">u2"),
])
_RECORD_HEADER = _RECORD.fields["dst_mac"][1]
_IP_AT = _RECORD.fields["version_ihl"][1]
_TCP_AT = _RECORD.fields["src_port"][1]
_TCP_HEADER = _RECORD.itemsize - _TCP_AT
_FRAME_HEADERS = _RECORD.itemsize - _RECORD_HEADER  # Ethernet + IPv4 + TCP
_IP_WORDS = slice(_IP_AT // 2, _TCP_AT // 2)
_ADDRESS_WORDS = slice(_RECORD.fields["src_ip"][1] // 2, _TCP_AT // 2)
_TCP_WORDS = slice(_TCP_AT // 2, _RECORD.itemsize // 2)

# the fields every record shares; a generated frame's addresses are
# 10.0.x.x and 192.168.x.x, its host parts drawn per frame
_TEMPLATE = np.zeros(1, dtype=_RECORD)
for _name, _value in (("ethertype", 0x0800), ("version_ihl", 0x45), ("ttl", 64),
                      ("protocol", PROTO_TCP), ("src_ip", (10, 0, 0, 0)),
                      ("dst_ip", (192, 168, 0, 0)), ("data_offset", 5 << 4),
                      ("flags", 0x18), ("window", 65535)):  # flags: PSH, ACK
    _TEMPLATE[_name] = _value

# frame bounds of one pass of the header writer: its temporaries stay a
# few hundred KiB however long the trace
_BLOCK_FRAMES = 4096
_BLOCK_BYTES = 64 * 1024  # payload bytes, past a block's first frame


def _word_sums(u8: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each ``u8[starts[i] : starts[i] + lengths[i]]``'s big-endian word sum.

    An odd last byte is a word's high byte. The payloads ascend and do not
    overlap, and are summed where they lie: a byte is a high byte where
    it has its payload start's parity, so with ``plain`` the bytes' sum
    and ``high`` the sum weighting bytes at even offsets by 256, a payload
    that starts at an even offset sums to ``high`` and one at an odd
    offset to ``257 * plain - high``.
    """
    lo, hi = int(starts[0]), int(starts[-1] + lengths[-1])
    span = np.zeros(hi - lo + 1, dtype=np.uint16)  # reduceat reads inside only
    span[:-1] = u8[lo:hi]
    bounds = np.empty(2 * starts.size, dtype=np.int64)
    bounds[0::2] = starts - lo
    bounds[1::2] = bounds[0::2] + lengths
    plain = np.add.reduceat(span, bounds, dtype=np.int64)[0::2]
    span[lo % 2 :: 2] <<= 8
    high = np.add.reduceat(span, bounds, dtype=np.int64)[0::2]
    sums = np.where(starts % 2 == 0, high, 257 * plain - high)
    sums[lengths == 0] = 0  # reduceat reads one byte for an empty range
    return sums


def _fold(sums: np.ndarray) -> np.ndarray:
    """The 16-bit ones' complement sum of each word sum.

    2**16 is 1 mod 0xFFFF, so carries can wait to the end (RFC 1071):
    the sum is its residue mod 0xFFFF, except that end-around carries
    never fold a nonzero sum to 0, so that residue reads 0xFFFF.
    """
    folded = sums % 0xFFFF
    folded[(folded == 0) & (sums != 0)] = 0xFFFF
    return folded


def _write_records(u8: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   records: np.ndarray) -> None:
    """Complete ``records`` and write record i just before ``u8[starts[i]:]``.

    Record i's payload, ``lengths[i]`` bytes, already lies at ``starts[i]``.
    The lengths and both checksums are filled in here, the checksum
    fields being 0 until then; the TCP checksum covers the pseudo-header
    (addresses, protocol, segment length), the TCP header and the payload.
    """
    records["caplen"] = records["orig_len"] = lengths + _FRAME_HEADERS
    records["total_len"] = lengths + (_RECORD.itemsize - _IP_AT)
    words = records.view(">u2").reshape(records.size, -1)
    ip = words[:, _IP_WORDS].sum(axis=1, dtype=np.int64)
    tcp = (words[:, _ADDRESS_WORDS].sum(axis=1, dtype=np.int64) + PROTO_TCP
           + _TCP_HEADER + lengths + words[:, _TCP_WORDS].sum(axis=1, dtype=np.int64)
           + _word_sums(u8, starts, lengths))
    records["ip_checksum"] = ~_fold(ip) & 0xFFFF
    records["tcp_checksum"] = ~_fold(tcp) & 0xFFFF
    u8[starts[:, None] + np.arange(-_RECORD.itemsize, 0)] = records.view(
        np.uint8).reshape(records.size, -1)


def build_tcp_frame(src_mac: bytes, dst_mac: bytes, src_ip: bytes,
                    dst_ip: bytes, src_port: int, dst_port: int,
                    payload: bytes, seq: int = 0) -> bytes:
    """Assemble an Ethernet/IPv4/TCP frame with valid checksums."""
    record = np.repeat(_TEMPLATE, 1)
    for name, value in (("src_mac", src_mac), ("dst_mac", dst_mac),
                        ("src_ip", src_ip), ("dst_ip", dst_ip)):
        record[name] = np.frombuffer(value, dtype=np.uint8)
    record["src_port"], record["dst_port"], record["seq"] = src_port, dst_port, seq
    out = bytearray(_RECORD.itemsize) + payload
    _write_records(np.frombuffer(out, dtype=np.uint8), np.array([_RECORD.itemsize]),
                   np.array([len(payload)]), record)
    return bytes(out[_RECORD_HEADER:])


def _redraw_dirty(rng: random.Random, signatures: SignatureSet,
                  capture: bytearray, payloads: Payloads) -> None:
    """Redraw in place, until none does, the payloads holding a pattern."""
    scanner = ExactScanner(signatures)
    rounds = 0
    while len(payloads):
        dirty = scanner.contains_any_batch(payloads)
        payloads = Payloads(payloads.buf, payloads.starts[dirty], payloads.ends[dirty])
        for a, b in zip(payloads.starts.tolist(), payloads.ends.tolist()):
            capture[a:b] = rng.randbytes(b - a)
        rounds += 1
        if rounds > 100 and len(payloads):
            # dense short patterns can make pattern-free payloads
            # vanishingly rare; give up loudly rather than spin
            raise ValueError(
                "cannot draw pattern-free background payloads; the rule "
                "set matches random bytes too often")


def _attack_count(fraction: float, count: int) -> int:
    """The floor of ``fraction`` as written, ``repr(fraction)``, times ``count``.

    Exact, in integers: 0.29 * 100 is 28.999... in floats, and 29 here.
    ``repr`` writes a decimal mantissa, perhaps with an exponent (1e-05).
    """
    mantissa, _, exponent = repr(fraction).partition("e")
    whole, _, decimals = mantissa.partition(".")
    scale = int(exponent or 0) - len(decimals)
    product = int(whole + decimals) * count
    return product * 10**scale if scale >= 0 else product // 10**-scale


def generate_trace(spec: TrafficSpec) -> tuple[Trace, Manifest]:
    """Generate a trace and its manifest, deterministically from the seed."""
    rng = random.Random(spec.seed)
    lo, hi = spec.payload_len_range
    signatures = spec.signatures.signatures if spec.signatures else []
    attack_count = _attack_count(spec.attack_fraction, spec.packet_count)
    attack_set = set(rng.sample(range(spec.packet_count), attack_count))

    if attack_count:
        longest = max(len(s.pattern) for s in signatures)
        if longest > hi:
            raise ValueError(
                f"longest pattern ({longest} bytes) exceeds max payload ({hi})")

    # Pass 1: per-packet metadata, drawn in index order.
    headers = bytearray()
    lengths, signature, offset = array("q"), array("q"), array("q")
    ports = (80, 443, 25, 53, 8080)
    for index in range(spec.packet_count):
        headers += _HEADER_DRAWS.pack(
            rng.randbytes(16),                       # MACs, IP host parts
            1024 + rng.getrandbits(16) % 64512,      # src port
            ports[rng.getrandbits(8) % len(ports)],  # dst port
            rng.getrandbits(32))                     # seq
        code = splice = -1  # background: no signature, no splice offset
        if index in attack_set:
            code = rng.randrange(len(signatures))
            size = len(signatures[code].pattern)
            length = rng.randint(max(lo, size), hi)
            splice = rng.randint(0, length - size)
        else:
            length = rng.randint(lo, hi)
        lengths.append(length)
        signature.append(code)
        offset.append(splice)

    # Pass 2: the capture laid out from the lengths, each record's headers
    # followed by its payload; payload bytes drawn where they lie, attacks
    # spliced in place.
    header = file_header(USEC)
    payload_len = np.frombuffer(lengths, dtype=np.int64)
    ends = np.cumsum(np.append(len(header), payload_len + _RECORD.itemsize))
    capture = bytearray(int(ends[-1]))
    capture[: len(header)] = header
    payloads = Payloads(np.frombuffer(capture, dtype=np.uint8),
                        ends[1:] - payload_len, ends[1:])
    for a, b, code, splice in zip(memoryview(payloads.starts),
                                  memoryview(payloads.ends), signature, offset):
        capture[a:b] = rng.randbytes(b - a)
        if code >= 0:
            pattern = signatures[code].pattern
            capture[a + splice : a + splice + len(pattern)] = pattern
    manifest = Manifest([s.id for s in signatures],
                        np.frombuffer(signature, dtype=np.int64),
                        np.frombuffer(offset, dtype=np.int64))

    # Pass 3: redraw in place background payloads holding a pattern by chance.
    if signatures:
        background = manifest.signature < 0
        _redraw_dirty(rng, spec.signatures, capture,
                      Payloads(payloads.buf, payloads.starts[background],
                               payloads.ends[background]))

    # Pass 4: the headers and checksums, a block of frames at a time.
    draws = np.frombuffer(headers, dtype=_DRAWS)
    for first, stop in payloads.blocks(_BLOCK_FRAMES, _BLOCK_BYTES):
        records = np.repeat(_TEMPLATE, stop - first)
        block = draws[first:stop]
        hosts = block["hosts"]
        records["src_mac"] = hosts[:, 0:6]
        records["dst_mac"] = hosts[:, 6:12]
        records["src_ip"][:, 2:] = hosts[:, 12:14]
        records["dst_ip"][:, 2:] = hosts[:, 14:16]
        records["src_port"] = block["src_port"]
        records["dst_port"] = block["dst_port"]
        records["seq"] = block["seq"]
        usec = _TS_STEP_USEC * np.arange(first, stop)
        records["ts_sec"] = _TS_BASE + usec // 1_000_000
        records["ts_usec"] = usec % 1_000_000
        _write_records(payloads.buf, payloads.starts[first:stop],
                       payload_len[first:stop], records)

    trace = Trace(capture, payloads.starts - _FRAME_HEADERS,
                  (payload_len + _FRAME_HEADERS).astype(np.uint32))
    return trace, manifest
