import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsieve.codec import (
    NSEC,
    PROTO_TCP,
    PROTO_UDP,
    USEC,
    PcapError,
    RawFrame,
    parse_packet,
    parse_payloads,
    read_pcap,
    write_pcap,
)

from conftest import reference_capture, reference_parse, reference_trace


def eth_header(ethertype, dst=b"\x02" * 6, src=b"\x04" * 6):
    return struct.pack("!6s6sH", dst, src, ethertype)


def ipv4_header(protocol, body=b"", src=b"\x0a\x00\x00\x01",
                dst=b"\xc0\xa8\x00\x02", ihl_words=5, options=b"",
                flags_offset=0, total=None):
    """An IPv4 header, then ``body``; the total length counts both."""
    if total is None:
        total = 20 + len(options) + len(body)
    return struct.pack("!BBHHHBBH4s4s", 0x40 | ihl_words, 0, total, 0,
                       flags_offset, 64, protocol, 0, src, dst) + options + body


def tcp_header(sport, dport, offset_words=5, options=b""):
    return struct.pack("!HHIIBBHHH", sport, dport, 0, 0,
                       offset_words << 4, 0x18, 1024, 0, 0) + options


def udp_header(sport, dport, length=8):
    return struct.pack("!HHHH", sport, dport, length, 0)


def tagged_eth_header(tpids, ethertype):
    """Ethernet header with one 4-byte VLAN tag (id 5) per tag protocol id."""
    tags = b"".join(struct.pack("!HH", tpid, 5) for tpid in tpids)
    return b"\x02" * 6 + b"\x04" * 6 + tags + struct.pack("!H", ethertype)


def batch_bounds(datas):
    """``parse_payloads`` per frame: (start, end) within the frame, or None."""
    trace = reference_trace([RawFrame(data=d) for d in datas])
    start, end, unparseable = parse_payloads(trace)
    out = []
    for i, offset in enumerate(trace.data_offset.tolist()):
        if unparseable[i]:
            assert start[i] == end[i]
            out.append(None)
        else:
            out.append((int(start[i]) - offset, int(end[i]) - offset))
    return out


def payload_of(data):
    """``parse_payloads``' payload of ``data`` in a capture, between two
    neighbour frames, or ``None`` if not parseable: the masked lanes of a
    short frame read the next record's bytes, as they do in a capture."""
    neighbour = eth_header(0x0800) + ipv4_header(
        6, tcp_header(1, 2) + b"neighbour payload")
    bounds = batch_bounds([neighbour, data, neighbour])
    assert bounds[0] == bounds[2] == (54, len(neighbour))
    return None if bounds[1] is None else data[slice(*bounds[1])]


def payload_end(data):
    """Where a parseable frame's payload ends: its IPv4 datagram's end, or
    the frame's end if that comes first or the frame is not IPv4."""
    head = 14
    while head < 22 and data[head - 2 : head] in (b"\x81\x00", b"\x88\xa8"):
        head += 4
    if data[head - 2 : head] != b"\x08\x00":
        return len(data)
    return min(len(data), head + int.from_bytes(data[head + 2 : head + 4], "big"))


def scalar_bounds(data):
    """``reference_parse``'s payload as (start, end) within the frame, or None."""
    payload = reference_parse(data)
    if payload is None:
        return None
    end = payload_end(data)
    assert data[end - len(payload) : end] == payload
    return end - len(payload), end


# --- the header walk --------------------------------------------------------

def test_parse_minimal_tcp_frame():
    frame = eth_header(0x0800) + ipv4_header(6, tcp_header(4321, 80) + b"GET")
    assert payload_of(frame) == b"GET"
    # don't-fragment alone is not a fragment
    frame = eth_header(0x0800) + ipv4_header(
        6, tcp_header(4321, 80) + b"GET", flags_offset=0x4000)
    assert payload_of(frame) == b"GET"


def test_parse_udp_frame():
    frame = eth_header(0x0800) + ipv4_header(17, udp_header(53, 5353) + b"query")
    assert payload_of(frame) == b"query"


def test_parse_ipv4_options_honored():
    options = b"\x01" * 8  # ihl 7 words
    frame = eth_header(0x0800) + ipv4_header(
        6, tcp_header(1, 2) + b"pay", ihl_words=7, options=options)
    assert payload_of(frame) == b"pay"


def test_parse_tcp_options_honored():
    frame = eth_header(0x0800) + ipv4_header(
        6, tcp_header(1, 2, offset_words=6, options=b"\x00" * 4) + b"pp")
    assert payload_of(frame) == b"pp"


def test_parse_short_frame_not_parseable():
    assert payload_of(b"\x00" * 13) is None


def test_parse_arp_payload_after_ethernet():
    body = b"arp-ish body bytes"
    assert payload_of(eth_header(0x0806) + body) == body


def test_parse_non_tcp_udp_payload_after_ip():
    frame = eth_header(0x0800) + ipv4_header(47, b"gre-body")
    assert payload_of(frame) == b"gre-body"


@pytest.mark.parametrize("protocol,l4", [
    (PROTO_TCP, tcp_header(1, 2)), (PROTO_UDP, udp_header(1, 2)), (47, b"")],
    ids=["tcp", "udp", "other"])
def test_parse_ipv4_payload_ends_at_total_length(protocol, l4):
    # Ethernet padding and trailers lie past the datagram: not payload; a
    # capture cut inside the datagram keeps what it has
    datagram = eth_header(0x0800) + ipv4_header(protocol, l4 + b"GET")
    for data, payload in [(datagram + b"\x00" * 6, b"GET"),
                          (datagram + b"TRLR", b"GET"),
                          (datagram[:-1], b"GE")]:
        assert payload_of(data) == payload
        assert batch_bounds([data]) == [(len(datagram) - 3,
                                         len(datagram) - 3 + len(payload))]


@pytest.mark.parametrize("data", [
    eth_header(0x0800) + ipv4_header(6)[:12],          # truncated IPv4
    eth_header(0x0800) + ipv4_header(6, ihl_words=4),  # bad IHL
    eth_header(0x0800) + b"\x65" + ipv4_header(6)[1:], # version != 4
    eth_header(0x0800) + ipv4_header(6, tcp_header(1, 2))[:30],  # short TCP
    eth_header(0x0800) + ipv4_header(6, struct.pack(   # TCP offset < 5
        "!HHIIBBHHH", 1, 2, 0, 0, 4 << 4, 0, 0, 0, 0)),
    eth_header(0x0800)                                 # options cut short
    + ipv4_header(6, ihl_words=7, options=b"\x01" * 8)[:24],
    eth_header(0x0800) + ipv4_header(17, udp_header(1, 2))[:26],  # short UDP
    eth_header(0x0800)                                 # total < IPv4 + TCP
    + ipv4_header(6, tcp_header(1, 2) + b"GET", total=39),
    eth_header(0x0800) + ipv4_header(17, udp_header(1, 2), total=27),
    eth_header(0x0800) + ipv4_header(47, b"GET", total=19),
    eth_header(0x0800) + ipv4_header(6, tcp_header(1, 2) + b"GET", total=0),
    eth_header(0x0800) + ipv4_header(                  # first fragment
        6, tcp_header(1, 2) + b"GET", flags_offset=0x2000),
    eth_header(0x0800) + ipv4_header(                  # later fragment
        6, tcp_header(1, 2) + b"GET", flags_offset=185),
    eth_header(0x0800) + ipv4_header(                  # DF + offset
        6, tcp_header(1, 2) + b"GET", flags_offset=0x4000 | 185),
])
def test_parse_malformed_frames_not_parseable(data):
    assert payload_of(data) is None
    assert batch_bounds([data]) == [None]


@pytest.mark.parametrize("tpids", [(0x8100,), (0x88A8,), (0x88A8, 0x8100)],
                         ids=["802.1Q", "802.1ad", "double"])
def test_parse_steps_over_vlan_tags(tpids):
    tcp = (tagged_eth_header(tpids, 0x0800)
           + ipv4_header(6, tcp_header(4321, 80) + b"GET"))
    udp = (tagged_eth_header(tpids, 0x0800)
           + ipv4_header(17, udp_header(53, 5353) + b"query"))
    fragment = (tagged_eth_header(tpids, 0x0800) + ipv4_header(
        6, tcp_header(1, 2) + b"GET", flags_offset=0x2000))
    arp = tagged_eth_header(tpids, 0x0806) + b"arp body"
    assert payload_of(tcp) == b"GET"
    assert payload_of(udp) == b"query"
    assert payload_of(fragment) is None
    assert payload_of(arp) == b"arp body"
    # cut inside the last tag: not parseable, so the card fails open
    head = len(tagged_eth_header(tpids, 0x0800))
    for cut in range(head - 4, head):
        assert payload_of(tcp[:cut]) is None
    datas = [tcp, udp, fragment, arp] + [tcp[:cut] for cut in range(head - 4, head)]
    assert batch_bounds(datas) == [scalar_bounds(d) for d in datas]


def test_parse_third_vlan_tag_is_payload():
    # two tags are stepped over; a third one's bytes are the payload
    frame = tagged_eth_header((0x88A8, 0x8100, 0x8100), 0x0800) + b"body"
    assert payload_of(frame) == frame[18 + 4:]
    assert batch_bounds([frame]) == [(22, len(frame))]


@given(st.binary(min_size=0, max_size=120))
def test_parse_is_total_and_payload_in_bounds(data):
    payload = parse_packet(RawFrame(data=data))
    assert payload == reference_parse(data)
    if payload is not None:
        assert len(payload) <= len(data) - 14
        end = payload_end(data)
        assert data[end - len(payload) : end] == payload


def test_parse_fuzz_bulk():
    # volume fuzz: parsing must never raise, and a payload ends where the
    # frame or its IPv4 datagram does, whichever comes first
    rng = random.Random(99)
    datas = [rng.randbytes(rng.randint(0, 80)) for _ in range(100_000)]
    bounds = batch_bounds(datas)  # one batch call over every frame
    for data, bound in zip(datas, bounds):
        if bound is not None:
            start, end = bound
            assert 14 <= start <= end == payload_end(data)
    assert bounds == [scalar_bounds(d) for d in datas]


@st.composite
def mutated_frames(draw):
    """A frame built header by header, with every field that steers the
    parse drawn, then cut at or next to a header boundary (or anywhere)."""
    # weighted towards frames that parse as far as TCP or UDP
    tpids = draw(st.lists(st.sampled_from([0x8100, 0x88A8]), max_size=3))
    ethertype = draw(st.sampled_from([0x0800] * 3 + [0x0806, 0x8100]))
    eth = tagged_eth_header(tpids, ethertype)
    ihl = draw(st.sampled_from([5, 5, 6]) | st.integers(0, 15))
    version = draw(st.sampled_from([4, 4, 4, 6]))
    flags = draw(st.sampled_from([0, 0, 0x4000, 0x2000]))
    fragment_offset = draw(st.sampled_from([0, 0, 0, 1, 185, 0x1FFF]))
    protocol = draw(st.sampled_from([PROTO_TCP, PROTO_TCP, PROTO_UDP, 47]))
    options = draw(st.binary(min_size=max(0, ihl * 4 - 20),
                             max_size=max(0, ihl * 4 - 20)))
    data_offset = draw(st.integers(0, 15))
    if protocol == PROTO_TCP:
        l4 = tcp_header(1, 2, offset_words=data_offset,
                        options=bytes(max(0, data_offset * 4 - 20)))
    elif protocol == PROTO_UDP:
        l4 = udp_header(53, 5353)
    else:
        l4 = b""
    body = l4 + draw(st.binary(max_size=24))
    # the total length: exact, short (into the headers too), long, or 0
    exact = 20 + len(options) + len(body)
    total = draw(st.sampled_from([exact, exact, 0, exact + 6])
                 | st.integers(0, exact))
    ip = struct.pack("!BBHHHBBH4s4s", version << 4 | ihl, 0, total, 0,
                     flags | fragment_offset, 64, protocol, 0,
                     b"\x0a\x00\x00\x01", b"\xc0\xa8\x00\x02") + options
    frame = eth + ip + body
    edges = [0, 12, 14, len(eth) - 2, len(eth), len(eth) + 20,
             len(eth) + len(ip), len(eth) + len(ip) + 8,
             len(eth) + len(ip) + 13, len(eth) + len(ip) + 20,
             len(eth) + len(ip) + len(l4), len(eth) + total, len(frame)]
    edges += [4 * i + 14 for i in range(1, len(tpids) + 1)]
    cuts = sorted({e + d for e in edges for d in (-1, 0, 1)
                   if 0 <= e + d <= len(frame)})
    cut = draw(st.sampled_from(cuts) | st.integers(0, len(frame)))
    return frame[:cut]


# the batch parse against the scalar oracle: equal payload
# bounds, or both not parseable; frames share a buffer, so a lane that
# read past its own frame would see its neighbour's bytes
@pytest.mark.parametrize("frames", [
    st.lists(st.binary(max_size=120), max_size=8),
    st.lists(mutated_frames(), min_size=1, max_size=8)],
    ids=["random-bytes", "mutated-headers"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_batch_parse_equals_scalar_parse(frames, data):
    datas = data.draw(frames)
    assert batch_bounds(datas) == [scalar_bounds(d) for d in datas]


# --- capture files ----------------------------------------------------------

def sample_trace():
    rng = random.Random(7)
    frames = [RawFrame(data=rng.randbytes(rng.randint(10, 80)),
                       ts_sec=1_600_000_000 + i, ts_usec=i * 250,
                       orig_len=90 + i)
              for i in range(25)]
    return reference_trace(frames)


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
    data = write_pcap(reference_trace([]))
    magic, major, minor, zone, sigfigs, snaplen, network = \
        struct.unpack("<IHHiIII", data)
    assert (magic, major, minor, zone, sigfigs, snaplen, network) == \
        (0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)


def test_pcap_snaplen_covers_the_longest_record():
    # no record may be longer than its file's snapshot length
    jumbo = RawFrame(data=bytes(range(256)) * 273 + b"end")  # 69,891 bytes
    for frames, snaplen in [([RawFrame(b"\xaa" * 60)], 65535),
                            ([RawFrame(b"\xaa" * 60), jumbo], len(jumbo.data))]:
        data = write_pcap(reference_trace(frames))
        assert struct.unpack_from("<I", data, 16)[0] == snaplen
        assert list(read_pcap(data)) == frames


def test_pcap_reads_swapped_byte_order():
    trace = sample_trace()
    little = write_pcap(trace)
    big = reference_capture(trace, ">", USEC)
    assert big != little

    back = read_pcap(big)
    assert [f.data for f in back] == [f.data for f in trace]
    assert [f.ts_usec for f in back] == [f.ts_usec for f in trace]
    # written back little-endian, the same file as the little-endian capture
    assert write_pcap(back) == little


def test_pcap_read_keeps_one_copy():
    # a little-endian capture is the trace's buffer as it is; a big-endian
    # one is copied once, its record headers rewritten in the copy
    rng = random.Random(11)
    trace = reference_trace([RawFrame(rng.randbytes(rng.randint(84, 174)),
                                      ts_sec=i, ts_usec=i % USEC)
                             for i in range(20_000)])
    little = write_pcap(trace)
    assert read_pcap(little).buf is little
    big = reference_capture(trace, ">", USEC)
    tracemalloc.start()
    try:
        back = read_pcap(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(big), f"peaked at {peak / len(big):.2f}x the file"
    assert write_pcap(back) == little


@pytest.mark.parametrize("endian", ["<", ">"])
def test_pcap_reads_nanosecond_captures(endian):
    trace = sample_trace()
    # a nanosecond capture written by hand: magic 0xA1B23C4D, ns fractions
    data = reference_capture(
        [RawFrame(f.data, f.ts_sec, 999_999_000 + i, f.orig_len)
         for i, f in enumerate(trace)], endian, NSEC)

    back = read_pcap(data)
    assert back.ts_resolution == NSEC
    assert [f.data for f in back] == [f.data for f in trace]
    assert [f.ts_usec for f in back] == [999_999_000 + i for i in range(25)]
    # written back at the resolution it was read in
    rewritten = write_pcap(back)
    assert struct.unpack_from("<I", rewritten)[0] == 0xA1B23C4D
    if endian == "<":
        assert rewritten == data
    again = read_pcap(rewritten)
    assert (list(again), again.ts_resolution) == (list(back), back.ts_resolution)
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
    good = reference_capture([RawFrame(data=b"\xaa" * 100)], "<", USEC)
    with pytest.raises(PcapError, match="truncated"):
        read_pcap(good[:-60])  # 100 declared, 40 remain
    with pytest.raises(PcapError, match="truncated"):
        read_pcap(good[: 24 + 7])  # record header cut short


# the capture reader and writer against the scalar writer: any
# timestamp fraction (even one past a second) and any original length
# are kept as they are
@pytest.mark.parametrize("resolution", [USEC, NSEC], ids=["usec", "nsec"])
@pytest.mark.parametrize("endian", ["<", ">"], ids=["little", "big"])
@given(rows=st.lists(st.tuples(st.binary(max_size=60),
                               *[st.integers(0, 2**32 - 1)] * 3), max_size=12))
@settings(max_examples=50, deadline=None)
def test_capture_io_equals_reference_capture(endian, resolution, rows):
    frames = [RawFrame(data, ts_sec, frac, orig_len)
              for data, ts_sec, frac, orig_len in rows]
    little = reference_capture(frames, "<", resolution)
    back = read_pcap(reference_capture(frames, endian, resolution))
    assert (list(back), back.ts_resolution) == (frames, resolution)
    assert write_pcap(back) == little


@given(st.lists(st.binary(min_size=0, max_size=60), max_size=20))
@settings(max_examples=50)
def test_pcap_roundtrip_property(datas):
    trace = reference_trace([RawFrame(data=d, ts_sec=i, ts_usec=i * 7)
                             for i, d in enumerate(datas)])
    back = read_pcap(write_pcap(trace))
    assert [f.data for f in back] == datas
