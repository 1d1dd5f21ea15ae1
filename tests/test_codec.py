import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsieve.codec import (
    NSEC,
    USEC,
    PcapError,
    RawFrame,
    Trace,
    parse_packet,
    read_pcap,
    write_pcap,
)


def eth_header(ethertype, dst=b"\x02" * 6, src=b"\x04" * 6):
    return struct.pack("!6s6sH", dst, src, ethertype)


def ipv4_header(protocol, src=b"\x0a\x00\x00\x01", dst=b"\xc0\xa8\x00\x02",
                ihl_words=5, options=b"", flags_offset=0):
    total = ihl_words * 4  # total_length field is not used for slicing
    return struct.pack("!BBHHHBBH4s4s", 0x40 | ihl_words, 0, total, 0,
                       flags_offset, 64, protocol, 0, src, dst) + options


def tcp_header(sport, dport, offset_words=5, options=b""):
    return struct.pack("!HHIIBBHHH", sport, dport, 0, 0,
                       offset_words << 4, 0x18, 1024, 0, 0) + options


def udp_header(sport, dport, length=8):
    return struct.pack("!HHHH", sport, dport, length, 0)


# --- parse_packet -----------------------------------------------------------

def test_parse_minimal_tcp_frame():
    frame = RawFrame(data=eth_header(0x0800) + ipv4_header(6)
                     + tcp_header(4321, 80) + b"GET")
    assert parse_packet(frame) == b"GET"
    # don't-fragment alone is not a fragment
    frame = RawFrame(data=eth_header(0x0800) + ipv4_header(6, flags_offset=0x4000)
                     + tcp_header(4321, 80) + b"GET")
    assert parse_packet(frame) == b"GET"


def test_parse_udp_frame():
    frame = RawFrame(data=eth_header(0x0800) + ipv4_header(17)
                     + udp_header(53, 5353) + b"query")
    assert parse_packet(frame) == b"query"


def test_parse_ipv4_options_honored():
    options = b"\x01" * 8  # ihl 7 words
    frame = RawFrame(data=eth_header(0x0800) + ipv4_header(6, ihl_words=7, options=options)
                     + tcp_header(1, 2) + b"pay")
    assert parse_packet(frame) == b"pay"


def test_parse_tcp_options_honored():
    frame = RawFrame(data=eth_header(0x0800) + ipv4_header(6)
                     + tcp_header(1, 2, offset_words=6, options=b"\x00" * 4) + b"pp")
    assert parse_packet(frame) == b"pp"


def test_parse_short_frame_not_parseable():
    assert parse_packet(RawFrame(data=b"\x00" * 13)) is None


def test_parse_arp_payload_after_ethernet():
    body = b"arp-ish body bytes"
    assert parse_packet(RawFrame(data=eth_header(0x0806) + body)) == body


def test_parse_non_tcp_udp_payload_after_ip():
    frame = RawFrame(data=eth_header(0x0800) + ipv4_header(47) + b"gre-body")
    assert parse_packet(frame) == b"gre-body"


@pytest.mark.parametrize("data", [
    eth_header(0x0800) + ipv4_header(6)[:12],          # truncated IPv4
    eth_header(0x0800) + ipv4_header(6, ihl_words=4),  # bad IHL
    eth_header(0x0800) + b"\x65" + ipv4_header(6)[1:], # version != 4
    eth_header(0x0800) + ipv4_header(6) + tcp_header(1, 2)[:10],  # short TCP
    eth_header(0x0800) + ipv4_header(6)                # TCP offset < 5
    + struct.pack("!HHIIBBHHH", 1, 2, 0, 0, 4 << 4, 0, 0, 0, 0),
    eth_header(0x0800) + ipv4_header(6, ihl_words=7),  # options cut short
    eth_header(0x0800) + ipv4_header(17) + udp_header(1, 2)[:6],  # short UDP
    eth_header(0x0800) + ipv4_header(6, flags_offset=0x2000)  # first fragment
    + tcp_header(1, 2) + b"GET",
    eth_header(0x0800) + ipv4_header(6, flags_offset=185)     # later fragment
    + tcp_header(1, 2) + b"GET",
    eth_header(0x0800) + ipv4_header(6, flags_offset=0x4000 | 185)
    + tcp_header(1, 2) + b"GET",                               # DF + offset
])
def test_parse_malformed_frames_not_parseable(data):
    assert parse_packet(RawFrame(data=data)) is None


@given(st.binary(min_size=0, max_size=120))
def test_parse_is_total_and_payload_in_bounds(data):
    payload = parse_packet(RawFrame(data=data))
    if payload is not None:
        assert len(payload) <= len(data) - 14
        assert data[len(data) - len(payload):] == payload


def test_parse_fuzz_bulk():
    # volume fuzz: parsing must never raise, payload must be a frame suffix
    rng = random.Random(99)
    for _ in range(100_000):
        size = rng.randint(0, 80)
        data = rng.randbytes(size)
        payload = parse_packet(RawFrame(data=data))
        if payload is not None:
            assert len(payload) <= len(data) - 14
            assert data[len(data) - len(payload):] == payload


# --- capture files ----------------------------------------------------------

def sample_trace():
    rng = random.Random(7)
    frames = [RawFrame(data=rng.randbytes(rng.randint(10, 80)),
                       ts_sec=1_600_000_000 + i, ts_usec=i * 250,
                       orig_len=90 + i)
              for i in range(25)]
    return Trace(frames=frames)


def test_pcap_roundtrip_exact():
    trace = sample_trace()
    back = read_pcap(write_pcap(trace))
    assert len(back) == len(trace)
    for a, b in zip(trace, back):
        assert (a.data, a.ts_sec, a.ts_usec, a.orig_len) == \
               (b.data, b.ts_sec, b.ts_usec, b.orig_len)
    # canonical re-encoding is stable
    assert write_pcap(back) == write_pcap(trace)


def test_pcap_global_header_layout():
    data = write_pcap(Trace(frames=[]))
    magic, major, minor, zone, sigfigs, snaplen, network = \
        struct.unpack("<IHHiIII", data)
    assert (magic, major, minor, zone, sigfigs, snaplen, network) == \
        (0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)


def test_pcap_reads_swapped_byte_order():
    trace = sample_trace()
    little = write_pcap(trace)

    # rewrite the same capture big-endian by hand
    parts = [struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for f in trace:
        parts.append(struct.pack(">IIII", f.ts_sec, f.ts_usec,
                                 len(f.data), f.orig_len))
        parts.append(f.data)
    big = b"".join(parts)
    assert big != little

    back = read_pcap(big)
    assert [f.data for f in back] == [f.data for f in trace]
    assert [f.ts_usec for f in back] == [f.ts_usec for f in trace]


@pytest.mark.parametrize("endian", ["<", ">"])
def test_pcap_reads_nanosecond_captures(endian):
    trace = sample_trace()
    # a nanosecond capture written by hand: magic 0xA1B23C4D, ns fractions
    parts = [struct.pack(endian + "IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)]
    for i, f in enumerate(trace):
        parts.append(struct.pack(endian + "IIII", f.ts_sec, 999_999_000 + i,
                                 len(f.data), f.orig_len))
        parts.append(f.data)
    data = b"".join(parts)

    back = read_pcap(data)
    assert back.ts_resolution == NSEC
    assert [f.data for f in back] == [f.data for f in trace]
    assert [f.ts_usec for f in back] == [999_999_000 + i for i in range(25)]
    # written back at the resolution it was read in
    rewritten = write_pcap(back)
    assert struct.unpack_from("<I", rewritten)[0] == 0xA1B23C4D
    if endian == "<":
        assert rewritten == data
    assert read_pcap(rewritten) == back
    assert read_pcap(write_pcap(trace)).ts_resolution == USEC


def test_pcap_bad_magic():
    with pytest.raises(PcapError, match="magic"):
        read_pcap(b"\x00\x01\x02\x03" + b"\x00" * 20)
    with pytest.raises(PcapError, match="magic"):
        read_pcap(b"\xd4\xc3")


def test_pcap_unsupported_link_type():
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
    with pytest.raises(PcapError, match="link type"):
        read_pcap(header)


def test_pcap_truncated_record():
    good = write_pcap(Trace(frames=[RawFrame(data=b"\xaa" * 100)]))
    with pytest.raises(PcapError, match="truncated"):
        read_pcap(good[:-60])  # 100 declared, 40 remain
    with pytest.raises(PcapError, match="truncated"):
        read_pcap(good[: 24 + 7])  # record header cut short


@given(st.lists(st.binary(min_size=0, max_size=60), max_size=20))
@settings(max_examples=50)
def test_pcap_roundtrip_property(datas):
    trace = Trace(frames=[RawFrame(data=d, ts_sec=i, ts_usec=i * 7)
                          for i, d in enumerate(datas)])
    back = read_pcap(write_pcap(trace))
    assert [f.data for f in back] == datas
