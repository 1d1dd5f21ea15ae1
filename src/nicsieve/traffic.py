"""Synthetic trace generation with exact ground truth.

Each generated packet is a well-formed Ethernet/IPv4/TCP frame (header
checksums included) carrying a random payload. A chosen fraction of
packets are attacks: one uniformly chosen pattern spliced in at a
uniformly chosen payload offset. Background payloads are rejection
sampled until no pattern occurs in them by chance, so the manifest --
which packet is an attack, which signature, at what offset -- is exact
ground truth for measuring detection and false-positive behavior.

Every payload is drawn into one buffer, where attacks are spliced in and
dirty background payloads redrawn, and each frame is appended to the
capture buffer as it is built, so no per-frame payload or frame is kept;
the manifest is two integer columns beside the payload lengths, so no
per-frame ground-truth object is kept either. Everything is driven by
one seeded generator: the same spec and seed reproduce the trace and its
manifest bit for bit.
"""

from __future__ import annotations

import csv
import io
import random
import struct
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytics import columns_csv
from .codec import RawFrame, Trace
from .signatures import ExactScanner, Payloads, SignatureSet

MAX_PAYLOAD = 1400  # keeps frames inside a standard Ethernet MTU

_TS_BASE = 1_600_000_000  # fixed epoch so generated captures are stable
_TS_STEP_USEC = 100
_HEADER_DRAWS = struct.Struct("<16sHHI")  # MACs and IP hosts, ports, seq
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
    ``ids`` are the rule set's ids in rule order, or, for a manifest read
    from a file, the ids in the order they first appear there.
    """

    ids: list[str]
    signature: np.ndarray  # int64
    offset: np.ndarray  # int64

    def attack_indices(self) -> np.ndarray:
        return np.flatnonzero(self.signature >= 0)

    def to_csv(self) -> bytes:
        # each id's field is rendered once, quoted as csv.writer quotes it;
        # a background frame's code, -1, picks the last label
        labels = []
        for sig_id in self.ids:
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerow([1, sig_id])
            labels.append(out.getvalue()[:-1])
        labels.append("0,")
        return columns_csv(",".join(_MANIFEST_HEADER),
                           (self.signature, labels), self.offset)

    @classmethod
    def from_csv(cls, data: bytes) -> Manifest:
        """Read a manifest file, refusing any row ``to_csv`` would not write."""
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
        if next(reader, None) != _MANIFEST_HEADER:
            raise ValueError("not a manifest file")
        codes: dict[str, int] = {}
        signature, offset = array("q"), array("q")
        for row in reader:
            index, is_attack, sig_id, at = row if len(row) == 4 else [""] * 4
            attack = is_attack == "1" and sig_id != "" and at.isdecimal()
            if index != str(len(signature)) or not (
                    attack or row[1:] == ["0", "", ""]):
                raise ValueError(
                    f"manifest line {reader.line_num}: expected "
                    f"'{len(signature)},0,,' or '{len(signature)},1,id,offset', "
                    f"got {row!r}")
            signature.append(codes.setdefault(sig_id, len(codes)) if attack else -1)
            offset.append(int(at) if attack else -1)
        return cls(list(codes), np.frombuffer(signature, dtype=np.int64),
                   np.frombuffer(offset, dtype=np.int64))


def _ones_complement_sum(data: bytes) -> int:
    """The 16-bit ones' complement sum of ``data`` as big-endian words.

    2**16 is 1 mod 0xFFFF, so the words' sum is, mod 0xFFFF, the number
    the (even-length) bytes spell; end-around carries never fold a
    nonzero sum to 0, so that residue reads 0xFFFF.
    """
    if len(data) % 2:
        data += b"\x00"
    value = int.from_bytes(data, "big")
    return value % 0xFFFF or (0xFFFF if value else 0)


def build_tcp_frame(src_mac: bytes, dst_mac: bytes, src_ip: bytes,
                    dst_ip: bytes, src_port: int, dst_port: int,
                    payload: bytes, seq: int = 0) -> bytes:
    """Assemble an Ethernet/IPv4/TCP frame with valid checksums."""
    eth = struct.pack("!6s6sH", dst_mac, src_mac, 0x0800)

    total_len = 20 + 20 + len(payload)
    ip_no_cksum = struct.pack("!BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0,
                              64, 6, 0, src_ip, dst_ip)
    cksum = ~_ones_complement_sum(ip_no_cksum) & 0xFFFF
    ip = ip_no_cksum[:10] + struct.pack("!H", cksum) + ip_no_cksum[12:]

    tcp_no_cksum = struct.pack("!HHIIBBHHH", src_port, dst_port, seq, 0,
                               5 << 4, 0x18, 65535, 0, 0)
    pseudo = struct.pack("!4s4sBBH", src_ip, dst_ip, 0, 6, 20 + len(payload))
    tcp_cksum = ~_ones_complement_sum(pseudo + tcp_no_cksum + payload) & 0xFFFF
    tcp = tcp_no_cksum[:16] + struct.pack("!H", tcp_cksum) + tcp_no_cksum[18:]

    return eth + ip + tcp + payload


def generate_trace(spec: TrafficSpec) -> tuple[Trace, Manifest]:
    """Generate a trace and its manifest, deterministically from the seed."""
    rng = random.Random(spec.seed)
    lo, hi = spec.payload_len_range
    signatures = spec.signatures.signatures if spec.signatures else []
    # the floor of the fraction as written: 0.29 * 100 is 28.999... in floats
    attack_count = int(Fraction(repr(spec.attack_fraction)) * spec.packet_count)
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

    # Pass 2: payload bytes, drawn into one buffer; attacks spliced in place.
    buf = bytearray(sum(lengths))
    at = 0
    for code, splice, length in zip(signature, offset, lengths):
        buf[at : at + length] = rng.randbytes(length)
        if code >= 0:
            pattern = signatures[code].pattern
            buf[at + splice : at + splice + len(pattern)] = pattern
        at += length
    manifest = Manifest([s.id for s in signatures],
                        np.frombuffer(signature, dtype=np.int64),
                        np.frombuffer(offset, dtype=np.int64))

    # Pass 3: redraw in place background payloads holding a pattern by chance.
    if signatures:
        scanner = ExactScanner(spec.signatures)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        background = np.flatnonzero(manifest.signature < 0)
        rounds = 0
        while background.size:
            background = background[scanner.contains_any_batch(Payloads(
                np.frombuffer(buf, dtype=np.uint8), starts[background],
                ends[background]))]
            for a, b in zip(starts[background].tolist(),
                            ends[background].tolist()):
                buf[a:b] = rng.randbytes(b - a)
            rounds += 1
            if rounds > 100 and background.size:
                # dense short patterns can make pattern-free payloads
                # vanishingly rare; give up loudly rather than spin
                raise ValueError(
                    "cannot draw pattern-free background payloads; the rule "
                    "set matches random bytes too often")

    def frames():
        at = 0
        for index, ((raw, sport, dport, seq), length) in enumerate(
                zip(_HEADER_DRAWS.iter_unpack(headers), lengths)):
            data = build_tcp_frame(raw[0:6], raw[6:12],
                                   b"\x0a\x00" + raw[12:14],  # 10.0.x.x
                                   b"\xc0\xa8" + raw[14:16],  # 192.168.x.x
                                   sport, dport, buf[at : at + length], seq=seq)
            at += length
            usec = _TS_STEP_USEC * index
            yield RawFrame(data, _TS_BASE + usec // 1_000_000, usec % 1_000_000)

    return Trace.from_frames(frames()), manifest
