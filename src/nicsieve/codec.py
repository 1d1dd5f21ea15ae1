"""Payload location and classic capture-file I/O, over columnar traces.

A ``Trace`` is one capture buffer plus two numpy columns: per record, the
offset of its data in the buffer and its captured length. The buffer is
the only store of the record headers: ``read_pcap`` walks the records
keeping only their offsets, from which their captured lengths follow,
and a frame's timestamp and original length are read from its header
when the trace is indexed, so a frame costs no Python object until then.

``parse_payloads`` locates the payload of every frame at once with numpy
over the header bytes; it is the one header walk, and ``parse_packet`` is
``parse_payloads`` of a one-frame trace. It reads Ethernet II, stepping
over up to two 802.1Q / 802.1ad VLAN tags to the inner ethertype, then
IPv4 (options honored via IHL) and TCP (options via the data offset) or
UDP. The payload is the bytes after the last header that could be walked;
an IPv4 payload ends at the datagram's total length, so Ethernet padding
and trailers, which the end host's transport never sees, are not scanned.
Parsing is total -- anything truncated or malformed, a frame cut inside
a VLAN tag included, is not parseable instead of raising, because the
filtering pipeline must still carry such frames. IPv4 fragments are not
parseable too: the card decides each frame on its own and does not
reassemble, and a non-first fragment's body would otherwise be read as a
transport header. The tests check the walk against an independent
scalar parse, ``reference_parse`` in ``tests/conftest.py``.

``read_pcap``/``write_pcap`` speak the classic capture format (version
2.4, link type 1) in either byte order, so traces interchange with
standard capture tooling. Magic 0xA1B2C3D4 marks microsecond timestamps
and 0xA1B23C4D nanosecond ones; a trace keeps the resolution it was read
in and is written back in it. A trace's record headers are always
little-endian: ``read_pcap`` uses a little-endian capture as it is, and
copies a big-endian one once, rewriting its record headers in the copy,
so ``write_pcap`` copies the selected records from the buffer as they
are.
"""

from __future__ import annotations

import struct
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

ETHERTYPE_IPV4 = 0x0800
VLAN_TPIDS = (0x8100, 0x88A8)  # 802.1Q and 802.1ad tag protocol ids
MAX_VLAN_TAGS = 2
PROTO_TCP = 6
PROTO_UDP = 17

LINKTYPE_ETHERNET = 1

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_NSEC = 0xA1B23C4D
USEC = 1_000_000
NSEC = 1_000_000_000
_MAGIC_RESOLUTION = {PCAP_MAGIC: USEC, PCAP_MAGIC_NSEC: NSEC}
_PCAP_SNAPLEN = 65535
_FILE_HEADER = 24
_RECORD = struct.Struct("<IIII")  # ts_sec, ts_frac, caplen, orig_len
_RECORD_HEADER = _RECORD.size

_ETH_LEN = 14  # dst MAC, src MAC, ethertype
_VLAN_TAG = 4  # tag protocol id + tag control; the next ethertype follows
_IPV4_MIN = 20
_IPV4_FRAGMENT_BITS = 0x3FFF  # more-fragments flag and fragment offset
_TCP_MIN = 20
_UDP_LEN = 8
_PARSE_FRAMES = 64 * 1024  # frames per block of the batch parse


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


@dataclass(eq=False)
class Trace(Sequence):
    """An ordered sequence of Ethernet frames: one buffer plus columns.

    Record i's data is ``buf[data_offset[i] : data_offset[i] + caplen[i]]``
    and its 16-byte little-endian record header lies just before it; the
    header's sub-second part is in ``ts_resolution`` ticks per second
    (``USEC`` or ``NSEC``). Indexing makes the frame's ``RawFrame``.
    """

    buf: bytes | bytearray = field(repr=False)
    data_offset: np.ndarray  # int64
    caplen: np.ndarray  # uint32
    ts_resolution: int = USEC

    @classmethod
    def from_frames(cls, frames: Iterable[RawFrame],
                    ts_resolution: int = USEC) -> Trace:
        """Append each frame's record, as it arrives, to one little-endian
        capture, and read that capture back (``read_pcap``)."""
        buf = bytearray(file_header(ts_resolution))
        for f in frames:
            buf += _RECORD.pack(f.ts_sec, f.ts_usec, len(f.data), f.orig_len)
            buf += f.data
        return read_pcap(buf)

    def __len__(self) -> int:
        return self.data_offset.size

    def __getitem__(self, i: int) -> RawFrame:
        i = range(len(self))[i]
        start = int(self.data_offset[i])
        ts_sec, ts_frac, caplen, orig_len = _RECORD.unpack_from(
            self.buf, start - _RECORD_HEADER)
        return RawFrame(bytes(self.buf[start : start + caplen]), ts_sec,
                        ts_frac, orig_len)

    @property
    def frames(self) -> Trace:
        """The trace itself, as its frames; only bench/tracer.py reads it."""
        return self

    def select(self, mask: np.ndarray) -> Trace:
        """The records where ``mask`` is set, in order, sharing the buffer."""
        return replace(self, data_offset=self.data_offset[mask],
                       caplen=self.caplen[mask])


def parse_packet(frame: RawFrame) -> bytes | None:
    """The frame's payload, or ``None`` if not parseable: ``parse_payloads``
    of a one-frame trace. Only ``bench/tracer.py`` reads it."""
    trace = Trace.from_frames([frame])
    (start,), (end,), (unparseable,) = parse_payloads(trace)
    return None if unparseable else bytes(trace.buf[start:end])


def parse_payloads(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Locate the payload of every frame: (start, end, unparseable).

    ``start`` and ``end`` bound each payload in ``trace.buf``; a frame
    that is not parseable gets ``start == end``, an empty payload. The
    payload follows the TCP/UDP header when one decodes, the IPv4 header
    for other IP protocols, and the link header (VLAN tags included) for
    other ethertypes. An IPv4 payload ends at the datagram's total length,
    or at the capture's end if that comes first; others run to the end.
    A total length shorter than the headers, or an IPv4 fragment (MF set
    or a non-zero fragment offset; DF alone is fine), is not parseable.
    The frames are parsed ``_PARSE_FRAMES`` at a time, so the temporaries
    stay small however long the trace.
    """
    u8 = np.frombuffer(trace.buf, dtype=np.uint8)
    start = np.empty(len(trace), dtype=np.int64)
    end = np.empty_like(start)
    unparseable = np.empty(len(trace), dtype=bool)
    for a in range(0, len(trace), _PARSE_FRAMES):
        b = a + _PARSE_FRAMES
        start[a:b], end[a:b], parsed = _payload_bounds(
            u8, trace.data_offset[a:b], trace.caplen[a:b])
        unparseable[a:b] = ~parsed
    return start, end, unparseable


def _payload_bounds(u8: np.ndarray, base: np.ndarray, caplen: np.ndarray):
    """(payload start, payload end, parseable) of the frames at ``base``.

    An unparseable frame gets an empty payload at its end. Every test
    reads a frame's own bytes only where its length allows; the other
    lanes read some in-buffer byte and are masked out.
    """
    size = caplen.astype(np.int64)
    last = u8.size - 1  # a capture buffer is never empty

    def byte(rel):
        return u8[np.minimum(base + rel, last)].astype(np.int64)

    def word(rel):
        return byte(rel) << 8 | byte(rel + 1)

    ok = size >= _ETH_LEN
    head = np.full(size.size, _ETH_LEN, dtype=np.int64)
    ethertype = word(12)
    for _ in range(MAX_VLAN_TAGS):
        tagged = ok & np.isin(ethertype, VLAN_TPIDS)
        head += _VLAN_TAG * tagged
        ok &= size >= head
        ethertype = np.where(tagged, word(head - 2), ethertype)

    ip = ethertype == ETHERTYPE_IPV4
    version_ihl = byte(head)
    ihl = (version_ihl & 0x0F) * 4
    total_len = word(head + 2)
    l4 = head + ihl
    protocol = byte(head + 9)
    ip_ok = ((size >= head + _IPV4_MIN) & (version_ihl >> 4 == 4)
             & (ihl >= _IPV4_MIN)
             & (word(head + 6) & _IPV4_FRAGMENT_BITS == 0))
    tcp, udp = protocol == PROTO_TCP, protocol == PROTO_UDP
    tcp_len = (byte(l4 + 12) >> 4) * 4
    l4_len = np.where(tcp, tcp_len, np.where(udp, _UDP_LEN, 0))
    l4_ok = ((~tcp | ((size >= l4 + _TCP_MIN) & (tcp_len >= _TCP_MIN)))
             & (size >= l4 + l4_len) & (total_len >= ihl + l4_len))
    parsed = ok & (~ip | (ip_ok & l4_ok))
    end = base + np.where(ip & parsed, np.minimum(size, head + total_len),
                          size)
    start = np.where(parsed, base + np.where(ip, l4 + l4_len, head), end)
    return start, end, parsed


def read_pcap(data: bytes) -> Trace:
    """Parse a classic capture file: either byte order, µs or ns timestamps."""
    if len(data) < _FILE_HEADER:
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

    # the walk keeps each record's offset; the records lie back to back,
    # so each one's captured length is the gap to the next, less its header
    caplen_at = struct.Struct(endian + "I").unpack_from
    offsets = array("q")
    keep = offsets.append
    off, end = _FILE_HEADER, len(data)
    while off < end:
        if off + _RECORD_HEADER > end:
            raise PcapError("truncated record: incomplete record header")
        keep(off)
        off += _RECORD_HEADER + caplen_at(data, off + 8)[0]
    if off > end:
        declared = caplen_at(data, offsets[-1] + 8)[0]
        raise PcapError(
            f"truncated record: {declared} bytes declared, "
            f"{end - offsets[-1] - _RECORD_HEADER} remain")
    rec = np.frombuffer(offsets, dtype=np.int64)
    caplen = (np.diff(rec, append=end) - _RECORD_HEADER).astype(np.uint32)

    # header byte j is byte j ^ 3 of a big-endian file: such a capture is
    # copied once and its record headers rewritten little-endian in place
    buf = data
    if endian == ">":
        buf = bytearray(data)
        src, out = (np.frombuffer(b, dtype=np.uint8) for b in (data, buf))
        for j in range(_RECORD_HEADER):
            out[rec + j] = src[rec + (j ^ 3)]
    return Trace(buf, rec + _RECORD_HEADER, caplen, _MAGIC_RESOLUTION[magic])


def file_header(ts_resolution: int, snaplen: int = _PCAP_SNAPLEN) -> bytes:
    """The 24-byte little-endian header of a classic capture file."""
    magic = PCAP_MAGIC_NSEC if ts_resolution == NSEC else PCAP_MAGIC
    return struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snaplen,
                       LINKTYPE_ETHERNET)


def write_pcap(trace: Trace) -> bytes:
    """Encode a trace as a little-endian classic capture file, whose
    snapshot length is 65,535 or, if longer, the longest record's."""
    header = file_header(trace.ts_resolution,
                         max(_PCAP_SNAPLEN, int(trace.caplen.max(initial=0))))
    if not len(trace):
        return header
    # copy each run of records that lie back to back in the buffer
    starts = trace.data_offset - _RECORD_HEADER
    ends = trace.data_offset + trace.caplen
    breaks = np.flatnonzero(starts[1:] != ends[:-1]) + 1
    runs = list(zip(starts[np.concatenate(([0], breaks))].tolist(),
                    ends[np.concatenate((breaks - 1, [ends.size - 1]))].tolist()))
    buf = memoryview(trace.buf)
    return b"".join([header] + [buf[a:b] for a, b in runs])
