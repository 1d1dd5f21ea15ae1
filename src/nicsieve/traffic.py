"""Synthetic trace generation with exact ground truth.

Each generated packet is a well-formed Ethernet/IPv4/TCP frame (header
checksums included) carrying a random payload. A chosen fraction of
packets are attacks: one uniformly chosen pattern spliced in at a
uniformly chosen payload offset. Background payloads are rejection
sampled until no pattern occurs in them by chance, so the manifest --
which packet is an attack, which signature, at what offset -- is exact
ground truth for measuring detection and false-positive behavior.

Everything is driven by one seeded generator: the same spec and seed
reproduce the trace bit for bit.
"""

from __future__ import annotations

import csv
import io
import random
import struct
from dataclasses import dataclass, field
from fractions import Fraction

from .codec import RawFrame, Trace
from .signatures import ExactScanner, SignatureSet

MAX_PAYLOAD = 1400  # keeps frames inside a standard Ethernet MTU

_TS_BASE = 1_600_000_000  # fixed epoch so generated captures are stable
_TS_STEP_USEC = 100


@dataclass
class TrafficSpec:
    """What to generate: volume, attack mix, payload sizes, seed, rules."""

    packet_count: int
    attack_fraction: float = 0.0
    payload_len_range: tuple[int, int] = (40, 1400)
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


@dataclass
class ManifestEntry:
    index: int
    is_attack: bool
    signature_id: str | None = None
    embed_offset: int | None = None


@dataclass
class Manifest:
    """Per-packet ground truth emitted alongside a generated trace."""

    entries: list[ManifestEntry] = field(default_factory=list)

    def attack_indices(self) -> list[int]:
        return [e.index for e in self.entries if e.is_attack]

    def to_csv(self) -> bytes:
        out = io.StringIO(newline="")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["index", "is_attack", "signature_id", "embed_offset"])
        for e in self.entries:
            writer.writerow([e.index, int(e.is_attack), e.signature_id or "",
                             "" if e.embed_offset is None else e.embed_offset])
        return out.getvalue().encode("utf-8")

    @classmethod
    def from_csv(cls, data: bytes) -> Manifest:
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
        header = next(reader, None)
        if header != ["index", "is_attack", "signature_id", "embed_offset"]:
            raise ValueError("not a manifest file")
        entries = []
        for row in reader:
            entries.append(ManifestEntry(
                index=int(row[0]), is_attack=bool(int(row[1])),
                signature_id=row[2] or None,
                embed_offset=int(row[3]) if row[3] else None))
        return cls(entries=entries)


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


def _ipv4_checksum(header: bytes) -> int:
    return ~_ones_complement_sum(header) & 0xFFFF


def build_tcp_frame(src_mac: bytes, dst_mac: bytes, src_ip: bytes,
                    dst_ip: bytes, src_port: int, dst_port: int,
                    payload: bytes, seq: int = 0) -> bytes:
    """Assemble an Ethernet/IPv4/TCP frame with valid checksums."""
    eth = struct.pack("!6s6sH", dst_mac, src_mac, 0x0800)

    total_len = 20 + 20 + len(payload)
    ip_no_cksum = struct.pack("!BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0,
                              64, 6, 0, src_ip, dst_ip)
    cksum = _ipv4_checksum(ip_no_cksum)
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
    headers = []
    entries = []
    payload_lens = []
    embeds: list[tuple[bytes, int] | None] = []
    ports = (80, 443, 25, 53, 8080)
    for index in range(spec.packet_count):
        raw = rng.randbytes(16)  # src/dst MAC + both IP host parts
        headers.append((
            raw[0:6], raw[6:12],
            b"\x0a\x00" + raw[12:14],                  # src 10.0.x.x
            b"\xc0\xa8" + raw[14:16],                  # dst 192.168.x.x
            1024 + rng.getrandbits(16) % 64512,        # src port
            ports[rng.getrandbits(8) % len(ports)],    # dst port
            rng.getrandbits(32),                       # seq
        ))
        if index in attack_set:
            sig = signatures[rng.randrange(len(signatures))]
            length = rng.randint(max(lo, len(sig.pattern)), hi)
            offset = rng.randint(0, length - len(sig.pattern))
            embeds.append((sig.pattern, offset))
            entries.append(ManifestEntry(index=index, is_attack=True,
                                         signature_id=sig.id,
                                         embed_offset=offset))
        else:
            length = rng.randint(lo, hi)
            embeds.append(None)
            entries.append(ManifestEntry(index=index, is_attack=False))
        payload_lens.append(length)

    # Pass 2: payload bytes; attacks get their pattern spliced in.
    payloads: list[bytes] = []
    for index in range(spec.packet_count):
        body = rng.randbytes(payload_lens[index])
        embed = embeds[index]
        if embed is not None:
            pattern, offset = embed
            body = body[:offset] + pattern + body[offset + len(pattern):]
        payloads.append(body)

    # Pass 3: resample background payloads that contain a pattern by chance.
    if signatures:
        scanner = ExactScanner(spec.signatures)
        background = [i for i in range(spec.packet_count) if i not in attack_set]
        rounds = 0
        while background:
            dirty = [i for i, hit in zip(
                background,
                scanner.contains_any_batch([payloads[i] for i in background]))
                if hit]
            for i in dirty:
                payloads[i] = rng.randbytes(payload_lens[i])
            background = dirty
            rounds += 1
            if rounds > 100 and background:
                # dense short patterns can make pattern-free payloads
                # vanishingly rare; give up loudly rather than spin
                raise ValueError(
                    "cannot draw pattern-free background payloads; the rule "
                    "set matches random bytes too often")

    frames = []
    for index in range(spec.packet_count):
        src_mac, dst_mac, src_ip, dst_ip, sport, dport, seq = headers[index]
        data = build_tcp_frame(src_mac, dst_mac, src_ip, dst_ip, sport, dport,
                               payloads[index], seq=seq)
        usec = _TS_STEP_USEC * index
        frames.append(RawFrame(data=data,
                               ts_sec=_TS_BASE + usec // 1_000_000,
                               ts_usec=usec % 1_000_000))
    return Trace.from_frames(frames), Manifest(entries=entries)
