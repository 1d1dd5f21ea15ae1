"""Payload location and classic capture-file I/O, over columnar traces.

A ``Trace`` is one capture buffer plus numpy columns: per record, the
offset of its data in the buffer, its captured and original lengths and
its timestamp. ``read_pcap`` walks the records keeping only their
offsets and reads the record headers into the columns with numpy, so a
frame costs no Python object until someone asks for one (``frames``).

``parse_payloads`` locates the payload of every frame at once with numpy
over the header bytes; ``parse_packet`` is the same definition for one
frame. Both read Ethernet II, stepping over up to two 802.1Q / 802.1ad
VLAN tags to the inner ethertype, then IPv4 (options honored via IHL)
and TCP (options via the data offset) or UDP. The payload is the bytes
after the last header that could be walked. Parsing is total -- anything
truncated or malformed, a frame cut inside a VLAN tag included, is not
parseable instead of raising, because the filtering pipeline must still
carry such frames. IPv4 fragments are not parseable too: the card
decides each frame on its own and does not reassemble, and a non-first
fragment's body would otherwise be read as a transport header.

``read_pcap``/``write_pcap`` speak the classic capture format (version
2.4, link type 1) in either byte order, so traces interchange with
standard capture tooling. Magic 0xA1B2C3D4 marks microsecond timestamps
and 0xA1B23C4D nanosecond ones; a trace keeps the resolution it was read
in and is written back in it. ``write_pcap`` always writes little-endian:
it copies the selected records from the buffer as they are and encodes
their record headers anew only when the buffer's are big-endian.
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
_RECORD_HEADER = 16  # ts_sec, ts_frac, caplen, orig_len: four uint32

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
    and its 16-byte record header, in the byte order ``endian`` (``"<"``
    or ``">"``), lies just before it. The other columns hold that header's
    fields: ``orig_len``, ``ts_sec`` and ``ts_frac``, the sub-second part
    in ``ts_resolution`` ticks per second (``USEC`` or ``NSEC``). Indexing
    makes the frame's ``RawFrame``.
    """

    buf: bytes = field(repr=False)
    data_offset: np.ndarray  # int64
    caplen: np.ndarray  # uint32, like the other header columns
    orig_len: np.ndarray
    ts_sec: np.ndarray
    ts_frac: np.ndarray
    ts_resolution: int = USEC
    endian: str = "<"

    @classmethod
    def from_frames(cls, frames: Iterable[RawFrame],
                    ts_resolution: int = USEC) -> Trace:
        """Lay frames out as a little-endian capture file in one buffer."""
        pack = struct.Struct("<IIII").pack
        parts = [_file_header(ts_resolution)]
        for f in frames:
            parts.append(pack(f.ts_sec, f.ts_usec, len(f.data), f.orig_len))
            parts.append(f.data)
        header = np.frombuffer(b"".join(parts[1::2]), dtype="<u4").reshape(-1, 4)
        caplen = header[:, 2]
        data_offset = (np.cumsum(caplen + _RECORD_HEADER, dtype=np.int64)
                       - caplen + _FILE_HEADER)
        return cls(b"".join(parts), data_offset, caplen, header[:, 3],
                   header[:, 0], header[:, 1], ts_resolution)

    def __len__(self) -> int:
        return self.data_offset.size

    def __getitem__(self, i: int) -> RawFrame:
        i = range(len(self))[i]
        start = int(self.data_offset[i])
        return RawFrame(self.buf[start : start + int(self.caplen[i])],
                        int(self.ts_sec[i]), int(self.ts_frac[i]),
                        int(self.orig_len[i]))

    @property
    def frames(self) -> Trace:
        """The trace itself, as the sequence of its frames."""
        return self

    def select(self, mask: np.ndarray) -> Trace:
        """The records where ``mask`` is set, in order, sharing the buffer."""
        return replace(self, data_offset=self.data_offset[mask],
                       caplen=self.caplen[mask], orig_len=self.orig_len[mask],
                       ts_sec=self.ts_sec[mask], ts_frac=self.ts_frac[mask])


def parse_packet(frame: RawFrame) -> bytes | None:
    """Return the frame's payload; ``None`` means not parseable.

    Payload placement: after the TCP/UDP header when one decodes, after
    the IPv4 header for other IP protocols, and directly after the
    link header (VLAN tags included) for other ethertypes. An IPv4
    fragment (MF set or a non-zero fragment offset) is not parseable;
    DF alone is fine.
    """
    data = frame.data
    if len(data) < _ETH_LEN:
        return None
    head = _ETH_LEN
    ethertype = data[12] << 8 | data[13]
    for _ in range(MAX_VLAN_TAGS):
        if ethertype not in VLAN_TPIDS:
            break
        head += _VLAN_TAG
        if len(data) < head:
            return None
        ethertype = data[head - 2] << 8 | data[head - 1]
    if ethertype != ETHERTYPE_IPV4:
        return data[head:]

    if len(data) < head + _IPV4_MIN:
        return None
    version_ihl = data[head]
    if version_ihl >> 4 != 4:
        return None
    ihl = (version_ihl & 0x0F) * 4
    if ihl < _IPV4_MIN or len(data) < head + ihl:
        return None
    if (data[head + 6] << 8 | data[head + 7]) & _IPV4_FRAGMENT_BITS:
        return None
    protocol = data[head + 9]
    l4_off = head + ihl

    if protocol == PROTO_TCP:
        if len(data) < l4_off + _TCP_MIN:
            return None
        data_offset = (data[l4_off + 12] >> 4) * 4
        if data_offset < _TCP_MIN or len(data) < l4_off + data_offset:
            return None
        return data[l4_off + data_offset:]
    if protocol == PROTO_UDP:
        if len(data) < l4_off + _UDP_LEN:
            return None
        return data[l4_off + _UDP_LEN:]
    return data[l4_off:]


def parse_payloads(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``parse_packet`` over every frame: (start, end, unparseable).

    ``start`` and ``end`` bound each payload in ``trace.buf``; a frame
    that is not parseable gets ``start == end``, an empty payload. The
    frames are parsed ``_PARSE_FRAMES`` at a time, so the temporaries
    stay small however long the trace.
    """
    u8 = np.frombuffer(trace.buf, dtype=np.uint8)
    end = trace.data_offset + trace.caplen
    start = end.copy()
    unparseable = np.ones(len(trace), dtype=bool)
    for a in range(0, len(trace), _PARSE_FRAMES):
        b = a + _PARSE_FRAMES
        payload_start, parsed = _payload_starts(u8, trace.data_offset[a:b],
                                                trace.caplen[a:b])
        start[a:b][parsed] = payload_start[parsed]
        unparseable[a:b] = ~parsed
    return start, end, unparseable


def _payload_starts(u8: np.ndarray, base: np.ndarray, caplen: np.ndarray):
    """(payload start in ``u8``, parseable) of the frames at ``base``.

    Every test reads a frame's own bytes only where its length allows;
    the other lanes read some in-buffer byte and are masked out.
    """
    size = caplen.astype(np.int64)
    last = max(u8.size - 1, 0)

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
    l4 = head + ihl
    protocol = byte(head + 9)
    ip_ok = ((size >= head + _IPV4_MIN) & (version_ihl >> 4 == 4)
             & (ihl >= _IPV4_MIN)
             & (word(head + 6) & _IPV4_FRAGMENT_BITS == 0))
    tcp, udp = protocol == PROTO_TCP, protocol == PROTO_UDP
    tcp_len = (byte(l4 + 12) >> 4) * 4
    l4_len = np.where(tcp, tcp_len, np.where(udp, _UDP_LEN, 0))
    l4_ok = ((~tcp | ((size >= l4 + _TCP_MIN) & (tcp_len >= _TCP_MIN)))
             & (size >= l4 + l4_len))
    parsed = ok & (~ip | (ip_ok & l4_ok))
    return base + np.where(ip, l4 + l4_len, head), parsed


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

    # the walk keeps each record's offset; numpy reads the headers after
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
    u8 = np.frombuffer(data, dtype=np.uint8)
    raw = np.empty((rec.size, _RECORD_HEADER), dtype=np.uint8)
    for j in range(_RECORD_HEADER):
        raw[:, j] = u8[rec + j]
    header = raw.view(endian + "u4").astype(np.uint32)
    return Trace(bytes(data), rec + _RECORD_HEADER, header[:, 2], header[:, 3],
                 header[:, 0], header[:, 1], _MAGIC_RESOLUTION[magic], endian)


def _file_header(ts_resolution: int) -> bytes:
    magic = PCAP_MAGIC_NSEC if ts_resolution == NSEC else PCAP_MAGIC
    return struct.pack("<IHHiIII", magic, 2, 4, 0, 0, _PCAP_SNAPLEN,
                       LINKTYPE_ETHERNET)


def write_pcap(trace: Trace) -> bytes:
    """Encode a trace as a little-endian classic capture file."""
    if trace.endian != "<":  # record headers are encoded anew, little-endian
        return write_pcap(Trace.from_frames(trace, trace.ts_resolution))
    header = _file_header(trace.ts_resolution)
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
