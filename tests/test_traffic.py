import csv
import io
import random
import struct
import tracemalloc
from fractions import Fraction
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicsieve.codec import write_pcap
from nicsieve.signatures import Signature, SignatureSet, load_rules
from nicsieve import traffic
from nicsieve.traffic import (
    Manifest,
    TrafficSpec,
    _fold,
    _word_sums,
    build_tcp_frame,
    generate_trace,
)

from conftest import (
    naive_exact_matches,
    random_signature_set,
    reference_ones_complement_sum,
    reference_parse,
    reference_tcp_frame,
)


def payloads_of(trace):
    """Every frame's payload, from the scalar oracle parse."""
    payloads = [reference_parse(frame.data) for frame in trace]
    assert None not in payloads
    return payloads


def manifest_rows(manifest):
    """Each frame's (position, is_attack, signature id, offset), ids resolved."""
    return [(i, code >= 0, manifest.ids[code] if code >= 0 else None,
             at if at >= 0 else None)
            for i, (code, at) in enumerate(zip(manifest.signature.tolist(),
                                               manifest.offset.tolist()))]


def csv_rows(data: bytes):
    """A manifest file's rows as ``manifest_rows`` gives them, read with the
    csv module; a field that ``to_csv`` would not write raises."""
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    assert header == ["index", "is_attack", "signature_id", "embed_offset"]
    out = []
    for index, is_attack, sig_id, at in rows:
        attack = {"0": False, "1": True}[is_attack]
        assert index == str(len(out)) and attack == (sig_id != "") == (at != "")
        assert not attack or at == str(int(at))
        out.append((len(out), attack, sig_id or None,
                    int(at) if attack else None))
    return out


def small_rules():
    return SignatureSet([Signature("a", b"ATTACK-ONE"),
                         Signature("b", b"\xde\xad\xbe\xef"),
                         Signature("c", b"malware!")])


# --- spec validation --------------------------------------------------------

def test_spec_validation():
    TrafficSpec(packet_count=0)
    with pytest.raises(ValueError):
        TrafficSpec(packet_count=-1)
    with pytest.raises(ValueError):
        TrafficSpec(packet_count=10, attack_fraction=1.5)
    with pytest.raises(ValueError):
        TrafficSpec(packet_count=10, payload_len_range=(100, 50))
    with pytest.raises(ValueError):
        TrafficSpec(packet_count=10, payload_len_range=(0, 1500))
    with pytest.raises(ValueError, match="signatures"):
        TrafficSpec(packet_count=10, attack_fraction=0.5)
    with pytest.raises(ValueError, match="signatures"):
        TrafficSpec(packet_count=10, attack_fraction=0.5,
                    signatures=SignatureSet(signatures=[]))


def test_pattern_longer_than_max_payload_rejected():
    spec = TrafficSpec(packet_count=10, attack_fraction=0.5,
                       payload_len_range=(4, 6), signatures=small_rules())
    with pytest.raises(ValueError, match="longest pattern"):
        generate_trace(spec)


# --- generation -------------------------------------------------------------

def test_generation_deterministic():
    spec = TrafficSpec(packet_count=1000, attack_fraction=0.05, seed=7,
                       payload_len_range=(40, 200), signatures=small_rules())
    t1, m1 = generate_trace(spec)
    t2, m2 = generate_trace(spec)
    assert write_pcap(t1) == write_pcap(t2)
    assert m1.to_csv() == m2.to_csv()
    # a different seed changes the bytes
    spec2 = TrafficSpec(packet_count=1000, attack_fraction=0.05, seed=8,
                        payload_len_range=(40, 200), signatures=small_rules())
    t3, _ = generate_trace(spec2)
    assert write_pcap(t3) != write_pcap(t1)


def test_attack_count_is_floor_of_fraction():
    rules = small_rules()
    for count, fraction, expected in [(1000, 0.05, 50), (999, 0.05, 49),
                                      (10, 0.19, 1), (10, 0.0, 0),
                                      (100, 0.29, 29), (100, 0.57, 57)]:
        spec = TrafficSpec(packet_count=count, attack_fraction=fraction,
                           payload_len_range=(20, 60), signatures=rules)
        _, manifest = generate_trace(spec)
        assert len(manifest.attack_indices()) == expected
        assert manifest.signature.size == manifest.offset.size == count


@given(fraction=st.floats(0.0, 1.0), count=st.integers(0, 10**9))
@example(fraction=0.29, count=100)
@example(fraction=1e-05, count=300_000)
@example(fraction=5e-324, count=10**9)
@example(fraction=1.0, count=7)
@example(fraction=-0.0, count=7)  # TrafficSpec takes it: -0.0 >= 0.0
@settings(max_examples=500, deadline=None)
def test_attack_count_is_exact_on_the_written_fraction(fraction, count):
    # repr gives a decimal, with an exponent below 1e-4 and at the
    # subnormals; the count is the exact floor of that decimal times count
    expected = int(Fraction(repr(fraction)) * count)
    assert traffic._attack_count(fraction, count) == expected


def test_frames_are_well_formed_tcp():
    spec = TrafficSpec(packet_count=50, attack_fraction=0.1, seed=3,
                       payload_len_range=(20, 80), signatures=small_rules())
    trace, _ = generate_trace(spec)
    for frame, payload in zip(trace, payloads_of(trace)):
        data = frame.data
        assert data[12:14] == b"\x08\x00"  # IPv4
        assert data[23] == 6  # TCP
        assert payload == data[54:]
        assert 20 <= len(payload) <= 80


def test_manifest_matches_independent_scanner():
    rng = random.Random(11)
    rules = random_signature_set(rng, 25)
    spec = TrafficSpec(packet_count=400, attack_fraction=0.08, seed=12,
                       payload_len_range=(24, 120), signatures=rules)
    trace, manifest = generate_trace(spec)
    payloads = payloads_of(trace)

    flagged = set()
    for i, payload in enumerate(payloads):
        if naive_exact_matches(rules.signatures, payload):
            flagged.add(i)
    assert flagged == set(manifest.attack_indices())

    # embedded signature is present at the recorded offset
    assert manifest.ids == [s.id for s in rules.signatures]
    by_id = {s.id: s.pattern for s in rules.signatures}
    for i, is_attack, sig_id, at in manifest_rows(manifest):
        if is_attack:
            pattern = by_id[sig_id]
            assert payloads[i][at : at + len(pattern)] == pattern


def test_zero_fraction_background_is_clean():
    rng = random.Random(13)
    rules = random_signature_set(rng, 40, lengths=[2, 3])
    spec = TrafficSpec(packet_count=300, attack_fraction=0.0, seed=14,
                       payload_len_range=(40, 200), signatures=rules)
    trace, manifest = generate_trace(spec)
    assert manifest.attack_indices().size == 0
    for payload in payloads_of(trace):
        assert naive_exact_matches(rules.signatures, payload) == []


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_attacks_spliced_and_background_redrawn_in_place(data):
    # every payload is drawn into one buffer, attacks spliced in there and
    # dirty background payloads redrawn in place: each attack's pattern
    # sits at its manifest offset, no background payload holds a pattern,
    # and the capture is the same on every run
    rules = random_signature_set(random.Random(data.draw(st.integers(0, 2**32))),
                                 data.draw(st.integers(1, 20)))
    longest = max(len(s.pattern) for s in rules.signatures)
    attack_fraction = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    hi = data.draw(st.integers(longest if attack_fraction else 0, longest + 80))
    lo = data.draw(st.integers(0, hi))
    spec = TrafficSpec(packet_count=data.draw(st.integers(0, 60)),
                       attack_fraction=attack_fraction,
                       payload_len_range=(lo, hi),
                       seed=data.draw(st.integers(0, 2**32)), signatures=rules)
    trace, manifest = generate_trace(spec)

    by_id = {s.id: s.pattern for s in rules.signatures}
    payloads = payloads_of(trace)
    rows = manifest_rows(manifest)
    assert len(payloads) == len(rows) == spec.packet_count
    for (_, is_attack, sig_id, at), payload in zip(rows, payloads):
        assert lo <= len(payload) <= hi
        if is_attack:
            pattern = by_id[sig_id]
            assert payload[at : at + len(pattern)] == pattern
        else:
            assert naive_exact_matches(rules.signatures, payload) == []
    assert write_pcap(generate_trace(spec)[0]) == write_pcap(trace)


@pytest.mark.parametrize(
    "lengths, patterns, payload_len_range, attack_fraction, frames, bound",
    [([6, 9, 14], 300, (30, 120), 0.02, 10_000, 6.0),
     (list(range(6, 16)), 2000, (200, 1400), 0.25, 3_000, 3.0)],
    ids=["small-frames", "large-payloads"])
def test_generation_memory_is_a_small_multiple_of_the_capture(
        lengths, patterns, payload_len_range, attack_fraction, frames, bound):
    # one payload buffer and one capture buffer, with no per-frame payload,
    # frame or record object held until the end: the traced peak stays a
    # small multiple of the capture, 4.5x and 2.7x here, where a payload
    # list, a frame list and a joined record list took 9.6x and 4.5x
    rules = random_signature_set(random.Random(5), patterns, lengths=lengths)
    spec = TrafficSpec(packet_count=frames, attack_fraction=attack_fraction,
                       payload_len_range=payload_len_range, seed=2,
                       signatures=rules)
    tracemalloc.start()
    try:
        trace, _ = generate_trace(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * len(write_pcap(trace))


def test_generation_without_rules():
    trace, manifest = generate_trace(TrafficSpec(packet_count=25, seed=5,
                                                 payload_len_range=(10, 40)))
    assert len(trace) == 25
    assert manifest.attack_indices().size == 0


def test_timestamps_nondecreasing():
    trace, _ = generate_trace(TrafficSpec(packet_count=100, seed=1,
                                          payload_len_range=(10, 20)))
    stamps = [(f.ts_sec, f.ts_usec) for f in trace]
    assert stamps == sorted(stamps)


# --- frame builder ----------------------------------------------------------

def test_build_tcp_frame_checksums():
    frame = build_tcp_frame(b"\x01" * 6, b"\x02" * 6, b"\x0a\x00\x00\x01",
                            b"\xc0\xa8\x00\x02", 1234, 80, b"hello")
    # ones-complement sum over the IPv4 header must be 0xFFFF
    assert reference_ones_complement_sum(frame[14:34]) == 0xFFFF
    # same for TCP with its pseudo-header
    seg = frame[34:]
    pseudo = frame[26:34] + b"\x00\x06" + len(seg).to_bytes(2, "big")
    assert reference_ones_complement_sum(pseudo + seg) == 0xFFFF


def test_checksums_that_fold_to_zero_are_written_as_zero():
    # with a 2-byte payload the IPv4 header's words (checksum 0) sum to
    # 0x4500 + 42 + 0x4006 = 0x8530, and the source address adds 0x7ACF:
    # the sum is 0xFFFF, so the checksum field is 0x0000, not 0xFFFF
    head = (b"\x01" * 6, b"\x02" * 6, b"\x7a\xcf\x00\x00", b"\x00" * 4, 1234, 80)
    probe = build_tcp_frame(*head, b"\x00\x00")
    assert probe[24:26] == b"\x00\x00"
    # a payload word equal to the probe's TCP checksum brings that sum
    # to 0xFFFF too
    payload = probe[50:52]
    frame = build_tcp_frame(*head, payload)
    assert frame[24:26] == frame[50:52] == b"\x00\x00"
    assert frame == reference_tcp_frame(*head, payload)
    assert reference_ones_complement_sum(frame[14:34]) == 0xFFFF


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_frame_writer_equals_scalar_builder_across_block_edges(data):
    # the block writer's frames, with blocks of a few frames and bytes so
    # that many block edges fall inside the trace, equal the scalar
    # builder's frame by frame, and both checksums verify; the payloads
    # include empty and odd-length ones
    hi = data.draw(st.integers(0, 64))
    lo = data.draw(st.integers(0, hi))
    spec = TrafficSpec(packet_count=data.draw(st.integers(0, 40)),
                       payload_len_range=(lo, hi),
                       seed=data.draw(st.integers(0, 2**32)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traffic, "_BLOCK_FRAMES", data.draw(st.integers(1, 5)))
        mp.setattr(traffic, "_BLOCK_BYTES", data.draw(st.integers(0, 100)))
        trace, _ = generate_trace(spec)
    assert len(trace) == spec.packet_count
    for frame in trace:
        raw = frame.data
        payload = raw[54:]
        assert lo <= len(payload) <= hi
        assert frame.orig_len == len(raw)
        fields = (raw[6:12], raw[0:6], raw[26:30], raw[30:34],
                  *struct.unpack("!HH", raw[34:38]), payload,
                  int.from_bytes(raw[38:42], "big"))
        assert raw == reference_tcp_frame(*fields) == build_tcp_frame(*fields)
        assert reference_ones_complement_sum(raw[14:34]) == 0xFFFF
        segment = raw[34:]
        pseudo = raw[26:34] + b"\x00\x06" + len(segment).to_bytes(2, "big")
        assert reference_ones_complement_sum(pseudo + segment) == 0xFFFF


@given(st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from([b"\x00\x00", b"\xff\xff", b"\x00", b"\xff",
                              b"\x80\x01"]), max_size=12).map(b"".join)))
@example(b"")
@example(b"\x00" * 7)
@example(b"\xff\xff" * 3)
@example(b"\xff")
@example(b"\x00\x01\xff\xfe")  # words summing to 0xFFFF exactly
def test_ones_complement_sum_equals_end_around_carry(data):
    # the word sums are read where the bytes lie, here twice in one
    # buffer at an even and an odd offset, and the first copy at both
    for pad in (b"", b"\x07"):
        u8 = np.frombuffer(pad + data + b"\xab" + data, dtype=np.uint8)
        starts = np.array([len(pad), len(pad) + len(data) + 1])
        lengths = np.array([len(data), len(data)])
        assert _fold(_word_sums(u8, starts, lengths)).tolist() == (
            [reference_ones_complement_sum(data)] * 2)


def test_generated_capture_bytes_are_pinned():
    # one small spec's capture and manifest, byte for byte: a change to the
    # draws, the frame builder, the checksum or the capture layout shows here
    spec = TrafficSpec(packet_count=200, attack_fraction=0.1, seed=3,
                       payload_len_range=(0, 300), signatures=small_rules())
    trace, manifest = generate_trace(spec)
    assert sha256(write_pcap(trace)).hexdigest() == (
        "2c86088e6f343d892324918c4336b0f9a4947b1675ceda2c533aa36ba2597cdd")
    assert sha256(manifest.to_csv()).hexdigest() == (
        "f01acdf97e4d647b46a6b4504b20a8b6ba28a29614fb50ff9d9291b045d8a655")


def test_multi_block_capture_bytes_are_pinned():
    # about 2 MiB of payloads: the header writer runs over some thirty
    # blocks, where the spec above fits in one
    spec = TrafficSpec(packet_count=3000, attack_fraction=0.25, seed=9,
                       payload_len_range=(0, 1400), signatures=small_rules())
    trace, manifest = generate_trace(spec)
    assert sha256(write_pcap(trace)).hexdigest() == (
        "fac3cb586ee90757436f5d0c1826ce0b59d46f1076d307548d780680b0dbe729")
    assert sha256(manifest.to_csv()).hexdigest() == (
        "864c9eee575ab718ec829ddf968b39e8cafe698b2704a1e7078d3f0deec3079e")


# --- manifest file ----------------------------------------------------------

def test_manifest_csv_roundtrip():
    manifest = Manifest(ids=["sY", "sX"], signature=np.array([-1, 1]),
                        offset=np.array([-1, 17]))
    text = manifest.to_csv().decode()
    assert text.splitlines()[0] == "index,is_attack,signature_id,embed_offset"
    assert text.splitlines()[1:] == ["0,0,,", "1,1,sX,17"]
    assert csv_rows(manifest.to_csv()) == manifest_rows(manifest) == [
        (0, False, None, None), (1, True, "sX", 17)]
    # a generated manifest: every column survives
    spec = TrafficSpec(packet_count=300, attack_fraction=0.3, seed=4,
                       payload_len_range=(10, 60), signatures=small_rules())
    _, manifest = generate_trace(spec)
    assert csv_rows(manifest.to_csv()) == manifest_rows(manifest)


def writer_csv(manifest):
    """The manifest file as ``csv.writer`` renders ``manifest_rows``, with
    its default quoting and each row's "\r\n" ended as "\n"."""
    rows = [["index", "is_attack", "signature_id", "embed_offset"]] + [
        [i, int(is_attack), sig_id or "", "" if at is None else at]
        for i, is_attack, sig_id, at in manifest_rows(manifest)]
    lines = []
    for row in rows:
        out = io.StringIO(newline="")
        csv.writer(out).writerow(row)
        lines.append(out.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines).encode("utf-8")


def test_manifest_csv_quotes_ids_as_csv_writer_does():
    # each id's field is rendered once, with the csv module's quoting
    spec = TrafficSpec(packet_count=50, attack_fraction=0.2, seed=6,
                       payload_len_range=(10, 40),
                       signatures=load_rules(b'q"1,ascii,EVIL\n'))
    _, manifest = generate_trace(spec)
    data = manifest.to_csv()
    assert data == writer_csv(manifest)
    assert b',1,"q""1",' in data
    assert csv_rows(data) == manifest_rows(manifest)


@pytest.mark.parametrize("sig_id", [
    "sig-1", "a,b", 'q"1', '""', "a\nb", "a\rb", "a\r\nb", " a b ",
    "\u00fcn\u00ef-\u0663", "007", "-3", "0,",
], ids=["plain", "comma", "double-quote", "only-quotes", "newline",
        "carriage-return", "crlf", "spaces", "non-ascii", "leading-zeros",
        "negative-number", "background-lookalike"])
def test_manifest_csv_reads_back_any_id(sig_id):
    # an id is any non-empty string (Signature builds one that rule text
    # cannot); its field is quoted as csv.writer quotes it, so the csv
    # module reads every row back, and no id passes for another column
    manifest = Manifest([sig_id], np.array([-1, 0, -1, 0], dtype=np.int64),
                        np.array([-1, 0, -1, 12345], dtype=np.int64))
    data = manifest.to_csv()
    assert data == writer_csv(manifest)
    assert csv_rows(data) == manifest_rows(manifest) == [
        (0, False, None, None), (1, True, sig_id, 0),
        (2, False, None, None), (3, True, sig_id, 12345)]


def test_manifest_memory_is_two_int64_columns():
    # the manifest holds two int64 columns, about 16 B per frame, where a
    # ManifestEntry per frame took about 105; to_csv renders a block of
    # rows at a time (2.2x the file's size above the manifest here),
    # where one csv.writer row per frame peaked at 8.7x
    rules = random_signature_set(random.Random(5), 300, lengths=[6, 9, 14])
    spec = TrafficSpec(packet_count=20_000, attack_fraction=0.02, seed=2,
                       payload_len_range=(30, 120), signatures=rules)
    tracemalloc.start()
    try:
        trace, manifest = generate_trace(spec)
        del trace
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data = manifest.to_csv()
        rendered = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert held < 24 * spec.packet_count
    assert rendered < 3 * len(data)
