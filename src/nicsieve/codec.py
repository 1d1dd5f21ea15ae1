"""Payload location and classic capture-file I/O.

``parse_packet`` locates the payload of Ethernet II / IPv4 / TCP / UDP
frames (IPv4 options honored via IHL, TCP options via the data offset)
and returns it: the bytes after the last header it could walk. Parsing
is total -- anything truncated or malformed comes back as ``None`` (not
parseable) instead of raising, because the filtering pipeline must still
carry such frames. IPv4 fragments are not parseable too: the card
decides each frame on its own and does not reassemble, and a non-first
fragment's body would otherwise be read as a transport header.

``read_pcap``/``write_pcap`` speak the classic capture format (version
2.4, link type 1) in either byte order, so traces interchange with
standard capture tooling. Magic 0xA1B2C3D4 marks microsecond timestamps
and 0xA1B23C4D nanosecond ones; a trace keeps the resolution it was read
in and is written back in it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17

LINKTYPE_ETHERNET = 1

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_NSEC = 0xA1B23C4D
USEC = 1_000_000
NSEC = 1_000_000_000
_MAGIC_RESOLUTION = {PCAP_MAGIC: USEC, PCAP_MAGIC_NSEC: NSEC}
_PCAP_SNAPLEN = 65535

_ETH_LEN = 14  # dst MAC, src MAC, ethertype
_IPV4_MORE_FRAGMENTS = 0x2000
_IPV4_FRAGMENT_OFFSET = 0x1FFF
_UDP_LEN = 8


class PcapError(ValueError):
    """Raised for malformed capture files."""


@dataclass(slots=True)
class RawFrame:
    """A captured frame: bytes plus timestamp and original wire length.

    ``ts_usec`` is the sub-second part of the timestamp in its trace's
    resolution: microseconds, or nanoseconds in a nanosecond trace.
    """

    data: bytes
    ts_sec: int = 0
    ts_usec: int = 0
    orig_len: int = -1  # -1: same as len(data)

    def __post_init__(self) -> None:
        if self.orig_len < 0:
            self.orig_len = len(self.data)


@dataclass
class Trace:
    """An ordered sequence of Ethernet frames.

    ``ts_resolution`` is the number of timestamp ticks per second:
    ``USEC`` or ``NSEC``.
    """

    frames: list[RawFrame] = field(default_factory=list)
    ts_resolution: int = USEC

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)


def parse_packet(frame: RawFrame) -> bytes | None:
    """Return the frame's payload; ``None`` means not parseable.

    Payload placement: after the TCP/UDP header when one decodes, after
    the IPv4 header for other IP protocols, and directly after the
    Ethernet header for non-IPv4 ethertypes. An IPv4 fragment (MF set
    or a non-zero fragment offset) is not parseable; DF alone is fine.
    """
    data = frame.data
    if len(data) < _ETH_LEN:
        return None
    if data[12] << 8 | data[13] != ETHERTYPE_IPV4:
        return data[_ETH_LEN:]

    ip_off = _ETH_LEN
    if len(data) < ip_off + 20:
        return None
    version_ihl = data[ip_off]
    if version_ihl >> 4 != 4:
        return None
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < ip_off + ihl:
        return None
    flags_offset = data[ip_off + 6] << 8 | data[ip_off + 7]
    if flags_offset & (_IPV4_MORE_FRAGMENTS | _IPV4_FRAGMENT_OFFSET):
        return None
    protocol = data[ip_off + 9]
    l4_off = ip_off + ihl

    if protocol == PROTO_TCP:
        if len(data) < l4_off + 20:
            return None
        data_offset = (data[l4_off + 12] >> 4) * 4
        if data_offset < 20 or len(data) < l4_off + data_offset:
            return None
        return data[l4_off + data_offset:]
    if protocol == PROTO_UDP:
        if len(data) < l4_off + _UDP_LEN:
            return None
        return data[l4_off + _UDP_LEN:]
    return data[l4_off:]


def read_pcap(data: bytes) -> Trace:
    """Parse a classic capture file: either byte order, µs or ns timestamps."""
    if len(data) < 24:
        raise PcapError("bad magic: file too short for a capture header")
    (magic,) = struct.unpack_from("<I", data)
    (swapped,) = struct.unpack_from(">I", data)
    if magic in _MAGIC_RESOLUTION:
        endian = "<"
    elif swapped in _MAGIC_RESOLUTION:
        endian, magic = ">", swapped
    else:
        raise PcapError(f"bad magic: 0x{magic:08X}")
    _, _, _, _, _, network = struct.unpack_from(endian + "HHiIII", data, 4)
    if network != LINKTYPE_ETHERNET:
        raise PcapError(f"unsupported link type {network}")

    rec = struct.Struct(endian + "IIII")
    frames = []
    off = 24
    while off < len(data):
        if off + rec.size > len(data):
            raise PcapError("truncated record: incomplete record header")
        ts_sec, ts_usec, incl_len, orig_len = rec.unpack_from(data, off)
        off += rec.size
        if off + incl_len > len(data):
            raise PcapError(
                f"truncated record: {incl_len} bytes declared, "
                f"{len(data) - off} remain")
        frames.append(RawFrame(data=data[off : off + incl_len],
                               ts_sec=ts_sec, ts_usec=ts_usec,
                               orig_len=orig_len))
        off += incl_len
    return Trace(frames=frames, ts_resolution=_MAGIC_RESOLUTION[magic])


def write_pcap(trace: Trace) -> bytes:
    """Encode a trace as a little-endian classic capture file."""
    magic = PCAP_MAGIC_NSEC if trace.ts_resolution == NSEC else PCAP_MAGIC
    parts = [struct.pack("<IHHiIII", magic, 2, 4, 0, 0,
                         _PCAP_SNAPLEN, LINKTYPE_ETHERNET)]
    for frame in trace.frames:
        parts.append(struct.pack("<IIII", frame.ts_sec, frame.ts_usec,
                                 len(frame.data), frame.orig_len))
        parts.append(frame.data)
    return b"".join(parts)
