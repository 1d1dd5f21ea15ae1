import random
from hashlib import sha256

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nicsieve.codec import parse_packet, write_pcap
from nicsieve.signatures import Signature, SignatureSet
from nicsieve.traffic import (
    Manifest,
    ManifestEntry,
    TrafficSpec,
    _ones_complement_sum,
    build_tcp_frame,
    generate_trace,
)

from conftest import (
    naive_exact_matches,
    random_signature_set,
    reference_ones_complement_sum,
)


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
        assert len(manifest.entries) == count


def test_frames_are_well_formed_tcp():
    spec = TrafficSpec(packet_count=50, attack_fraction=0.1, seed=3,
                       payload_len_range=(20, 80), signatures=small_rules())
    trace, _ = generate_trace(spec)
    for frame, entry in zip(trace, generate_trace(spec)[1].entries):
        data = frame.data
        assert data[12:14] == b"\x08\x00"  # IPv4
        assert data[23] == 6  # TCP
        payload = parse_packet(frame)
        assert payload == data[54:]
        assert 20 <= len(payload) <= 80


def test_manifest_matches_independent_scanner():
    rng = random.Random(11)
    rules = random_signature_set(rng, 25)
    spec = TrafficSpec(packet_count=400, attack_fraction=0.08, seed=12,
                       payload_len_range=(24, 120), signatures=rules)
    trace, manifest = generate_trace(spec)

    flagged = set()
    for i, frame in enumerate(trace):
        payload = parse_packet(frame)
        if naive_exact_matches(rules.signatures, payload):
            flagged.add(i)
    assert flagged == set(manifest.attack_indices())

    # embedded signature is present at the recorded offset
    by_id = {s.id: s.pattern for s in rules.signatures}
    for entry in manifest.entries:
        if entry.is_attack:
            payload = parse_packet(trace.frames[entry.index])
            pattern = by_id[entry.signature_id]
            assert payload[entry.embed_offset : entry.embed_offset
                           + len(pattern)] == pattern


def test_zero_fraction_background_is_clean():
    rng = random.Random(13)
    rules = random_signature_set(rng, 40, lengths=[2, 3])
    spec = TrafficSpec(packet_count=300, attack_fraction=0.0, seed=14,
                       payload_len_range=(40, 200), signatures=rules)
    trace, manifest = generate_trace(spec)
    assert manifest.attack_indices() == []
    for frame in trace:
        payload = parse_packet(frame)
        assert naive_exact_matches(rules.signatures, payload) == []


def test_generation_without_rules():
    trace, manifest = generate_trace(TrafficSpec(packet_count=25, seed=5,
                                                 payload_len_range=(10, 40)))
    assert len(trace) == 25
    assert manifest.attack_indices() == []


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
    assert _ones_complement_sum(data) == reference_ones_complement_sum(data)


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


# --- manifest file ----------------------------------------------------------

def test_manifest_csv_roundtrip():
    manifest = Manifest(entries=[
        ManifestEntry(index=0, is_attack=False),
        ManifestEntry(index=1, is_attack=True, signature_id="sX",
                      embed_offset=17),
    ])
    text = manifest.to_csv().decode()
    assert text.splitlines()[0] == "index,is_attack,signature_id,embed_offset"
    assert text.splitlines()[2] == "1,1,sX,17"
    back = Manifest.from_csv(manifest.to_csv())
    assert back == manifest


def test_manifest_rejects_foreign_csv():
    with pytest.raises(ValueError, match="manifest"):
        Manifest.from_csv(b"a,b\n1,2\n")
