import random
from hashlib import sha256

import pytest

from nicsieve.analytics import emit_csv
from nicsieve.bloom import BloomParams
from nicsieve.codec import RawFrame, write_pcap
from nicsieve.pipeline import (
    REASONS,
    Reason,
    compare_baseline,
    decision_log_csv,
)
from nicsieve.signatures import (
    Signature,
    SignatureMatcher,
    SignatureSet,
    load_rules,
)
from nicsieve.traffic import TrafficSpec, build_tcp_frame, generate_trace

from conftest import (
    naive_exact_matches,
    random_signature_set,
    reference_candidates,
    reference_parse,
    reference_tcp_frame,
    reference_trace,
)

PARAMS = BloomParams(m=16384, k=4, seed_a=55, seed_b=56)


def frame_with_payload(payload: bytes) -> RawFrame:
    data = build_tcp_frame(b"\x02" * 6, b"\x04" * 6, b"\x0a\x00\x00\x01",
                           b"\xc0\xa8\x00\x01", 1234, 80, payload)
    return RawFrame(data=data)


def simple_matcher(patterns=(b"EVIL",)):
    sset = SignatureSet([Signature(f"s{i}", p) for i, p in enumerate(patterns)])
    return SignatureMatcher.program(sset, PARAMS)


def oracle_decision(matcher, frame):
    """Per-frame (reason, verified tuples) from the conftest oracles alone."""
    payload = reference_parse(frame.data)
    if payload is None:
        return Reason.NON_PARSEABLE, []
    if not reference_candidates(matcher.filters, payload):
        return Reason.CLEAN, []
    signatures = matcher.signature_set.signatures
    return Reason.MATCH_CANDIDATE, naive_exact_matches(signatures, payload)


def decide_one(matcher, frame):
    """The card's (reason, verified matches, payload length) for one frame,
    which it forwards exactly when the reason is not ``CLEAN``."""
    report = compare_baseline(matcher, reference_trace([frame]))
    log = report.records
    reason = REASONS[log.reason[0]]
    assert log.reason.size == report.stats.total == 1
    assert len(report.forwarded) == report.stats.forwarded == \
        (reason is not Reason.CLEAN)
    return reason, log.verified.get(0, ()), log.payload_len[0]


# --- single-frame decisions -------------------------------------------------

def test_attack_packet_forwarded_with_match():
    matcher = simple_matcher()
    reason, verified, _ = decide_one(matcher, frame_with_payload(b"xxEVILxx"))
    assert reason is Reason.MATCH_CANDIDATE
    assert [(v.offset, v.length, v.signature_id) for v in verified] == \
        [(2, 4, "s0")]


def test_clean_packet_dropped():
    matcher = simple_matcher()
    reason, verified, _ = decide_one(matcher, frame_with_payload(b"hello world"))
    assert reason is Reason.CLEAN
    assert verified == ()


def test_empty_payload_is_clean_not_unparseable():
    matcher = simple_matcher()
    assert decide_one(matcher, frame_with_payload(b"")) == (Reason.CLEAN, (), 0)


def test_garbage_frame_fails_open():
    matcher = simple_matcher()
    reason, verified, _ = decide_one(matcher, RawFrame(data=b"\x01" * 13))
    assert reason is Reason.NON_PARSEABLE
    assert verified == ()


def test_ipv4_fragment_forwarded_unscanned():
    # a non-first fragment (offset 185 x 8 bytes, protocol TCP) has no TCP
    # header; reading its body as one would skip the pattern and drop it
    matcher = simple_matcher((b"cmd.exe",))
    head = frame_with_payload(b"").data[:34]  # Ethernet + IPv4 headers
    body = b"cmd.exe /c dir " + b"A" * 40
    frame = RawFrame(data=head[:20] + (185).to_bytes(2, "big") + head[22:] + body)
    reason, verified, _ = decide_one(matcher, frame)
    assert reason is Reason.NON_PARSEABLE
    assert verified == ()


def test_vlan_tagged_frames_are_scanned_from_their_tcp_payload():
    # tagged TCP frames are decided on the TCP payload, not on the tags and
    # the IP and TCP headers; a tagged fragment is not parseable
    matcher = simple_matcher((b"cmd.exe",))
    plain = frame_with_payload(b"run cmd.exe now").data
    for tags in (b"\x81\x00\x00\x05", b"\x88\xa8\x00\x05\x81\x00\x00\x07"):
        data = plain[:12] + tags + plain[12:]
        reason, verified, payload_len = decide_one(matcher, RawFrame(data=data))
        assert reason is Reason.MATCH_CANDIDATE
        assert payload_len == len(b"run cmd.exe now")
        assert [(v.offset, v.length) for v in verified] == [(4, 7)]
        fragment = data[:len(tags) + 20] + b"\x20\x00" + data[len(tags) + 22:]
        reason, verified, _ = decide_one(matcher, RawFrame(data=fragment))
        assert reason is Reason.NON_PARSEABLE
        assert verified == ()


def test_ethernet_padding_is_not_payload():
    # a bare ACK padded with zeros to the 60-byte Ethernet minimum has an
    # empty payload, like the same ACK unpadded
    matcher = simple_matcher((b"\x00\x00\x00", b"GET /x"))
    ack = frame_with_payload(b"").data
    assert len(ack) == 54
    for data in (ack + bytes(6), ack):
        assert decide_one(matcher, RawFrame(data=data)) == (Reason.CLEAN, (), 0)


def test_ethernet_trailer_is_not_payload():
    # a pattern ending on the payload's last byte is found; one that runs
    # on into the 4-byte trailer after the datagram is not
    matcher = simple_matcher((b"EVIL", b"ILTR"))
    data = frame_with_payload(b"xxEVIL").data + b"TRLR"
    reason, verified, payload_len = decide_one(matcher, RawFrame(data=data))
    assert (reason, payload_len) == (Reason.MATCH_CANDIDATE, 6)
    assert [(v.offset, v.length, v.signature_id) for v in verified] == \
        [(2, 4, "s0")]


def test_total_length_shorter_than_the_headers_fails_open():
    # the IPv4 and TCP headers take 40 bytes: a total length of 39 is not
    # parseable, and one of 40 leaves the datagram no payload
    matcher = simple_matcher()
    data = bytearray(frame_with_payload(b"xxEVILxx").data)
    data[16:18] = (39).to_bytes(2, "big")
    assert decide_one(matcher, RawFrame(data=bytes(data)))[:2] == \
        (Reason.NON_PARSEABLE, ())
    data[16:18] = (40).to_bytes(2, "big")
    assert decide_one(matcher, RawFrame(data=bytes(data))) == \
        (Reason.CLEAN, (), 0)


# --- the card over a trace --------------------------------------------------------------

def mixed_trace(matcher):
    frames = [
        frame_with_payload(b"nothing to see here....."),
        frame_with_payload(b"an EVIL payload"),
        RawFrame(data=b"\xff" * 9),  # not parseable
        frame_with_payload(b"EVIL at the start"),
        frame_with_payload(b"clean again, really clean"),
    ]
    return reference_trace(frames)


def test_run_trace_counters_and_forwarded_trace():
    matcher = simple_matcher()
    trace = mixed_trace(matcher)
    report = compare_baseline(matcher, trace)
    stats, forwarded, log = report.stats, report.forwarded, report.records

    assert stats.total == 5
    assert stats.forwarded == 3 and stats.dropped == 2
    assert stats.true_matches == 2
    assert stats.non_parseable_forwards == 1
    assert stats.false_positive_forwards == 0
    assert stats.total == stats.forwarded + stats.dropped
    assert stats.forwarded == (stats.true_matches + stats.false_positive_forwards
                               + stats.non_parseable_forwards)
    assert stats.bytes_total == sum(len(f.data) for f in trace)
    assert stats.bytes_forwarded == sum(len(f.data) for f in forwarded)

    # forwarded trace: exactly the FORWARD frames, bytes untouched, in order
    expected = [trace[i] for i, code in enumerate(log.reason)
                if REASONS[code] is not Reason.CLEAN]
    assert [f.data for f in forwarded] == [f.data for f in expected]
    assert [f.ts_sec for f in forwarded] == [f.ts_sec for f in expected]


def test_run_trace_matches_per_packet_processing():
    rng = random.Random(60)
    sset = random_signature_set(rng, 150)
    matcher = SignatureMatcher.program(sset, PARAMS)
    frames = []
    for _ in range(200):
        kind = rng.random()
        if kind < 0.15:
            frames.append(RawFrame(data=rng.randbytes(rng.randint(0, 30))))
        else:
            payload = bytearray(rng.randbytes(rng.randint(0, 120)))
            if kind < 0.5 and len(payload) > 20:
                sig = rng.choice(sset.signatures)
                payload[1 : 1 + len(sig.pattern)] = sig.pattern
            frames.append(frame_with_payload(bytes(payload)))
    trace = reference_trace(frames)

    report = compare_baseline(matcher, trace)
    stats, log = report.stats, report.records
    expected = [oracle_decision(matcher, f) for f in frames]

    assert [(REASONS[log.reason[i]],
             [(v.offset, v.length, v.signature_id)
              for v in log.verified.get(i, ())])
            for i in range(len(frames))] == expected
    # the log's verdict is DROP exactly when its reason is CLEAN, every row
    rows = [line.split(",")
            for line in decision_log_csv(log).decode().splitlines()[1:]]
    assert len(rows) == len(frames)
    assert all((row[1] == "DROP") == (row[2] == "CLEAN") for row in rows)
    assert stats.total == len(frames)
    assert stats.forwarded == sum(reason is not Reason.CLEAN
                                  for reason, _ in expected)


def test_empty_signature_equivalent_trace_only_forwards_non_parseable():
    # nothing programmed that can occur: drop all parseable traffic
    matcher = simple_matcher(patterns=(b"\x00never-there\x00",))
    frames = [frame_with_payload(b"plain text payload") for _ in range(10)]
    frames.append(RawFrame(data=b"xx"))
    stats = compare_baseline(matcher, reference_trace(frames)).stats
    assert stats.forwarded == stats.non_parseable_forwards == 1


def test_saturated_trace_forwards_everything():
    matcher = simple_matcher()
    frames = [frame_with_payload(b"EVIL" * 3) for _ in range(8)]
    stats = compare_baseline(matcher, reference_trace(frames)).stats
    assert stats.forwarded == stats.total == 8
    assert stats.dropped == 0


# --- compare_baseline -------------------------------------------------------

def test_compare_baseline_equivalence_and_reduction():
    rng = random.Random(62)
    sset = random_signature_set(rng, 300)
    matcher = SignatureMatcher.program(sset, PARAMS)
    spec = TrafficSpec(packet_count=1500, attack_fraction=0.04, seed=8,
                       payload_len_range=(30, 150), signatures=sset)
    trace, manifest = generate_trace(spec)
    report = compare_baseline(matcher, trace)

    assert report.stats.equivalent
    assert report.baseline_detections == report.records.verified
    assert report.stats.true_matches == len(manifest.attack_indices())
    # reduction recomputed from raw counters
    assert report.stats.reduction == pytest.approx(
        1.0 - report.stats.forwarded / report.stats.total)
    # forwarded trace is an order-preserving subsequence of the input
    assert report.stats.forwarded == len(report.forwarded)
    it = iter(trace)
    assert all(any(f == g for g in it) for f in report.forwarded)


def test_compare_baseline_no_attacks():
    rng = random.Random(63)
    sset = random_signature_set(rng, 50)
    matcher = SignatureMatcher.program(sset, PARAMS)
    spec = TrafficSpec(packet_count=800, attack_fraction=0.0, seed=9,
                       payload_len_range=(30, 120), signatures=sset)
    trace, _ = generate_trace(spec)
    report = compare_baseline(matcher, trace)
    assert report.stats.equivalent
    assert report.baseline_detections == {}
    assert report.stats.true_matches == 0
    # only false positives can be forwarded; reduction stays near 1
    assert report.stats.reduction >= 0.95


def test_compare_baseline_two_calls_return_their_own_records():
    rng = random.Random(66)
    sset = random_signature_set(rng, 50)
    matcher = SignatureMatcher.program(sset, PARAMS)
    spec = TrafficSpec(packet_count=100, attack_fraction=0.1, seed=10,
                       payload_len_range=(30, 120), signatures=sset)
    trace, _ = generate_trace(spec)
    first = compare_baseline(matcher, trace)
    second = compare_baseline(matcher, trace)
    assert first.stats.equivalent and second.stats.equivalent
    assert second.records.verified == first.records.verified
    assert first.records.verified is not second.records.verified
    assert first.records.reason.size == second.records.reason.size == len(trace)


def test_compare_baseline_duplicate_patterns_carry_every_id():
    sset = load_rules(b"a,ascii,EVILX\nb,ascii,EVILX\nc,hex,deadbeef\n")
    matcher = SignatureMatcher.program(sset, PARAMS)
    spec = TrafficSpec(packet_count=400, attack_fraction=0.2, seed=11,
                       payload_len_range=(30, 120), signatures=sset)
    trace, manifest = generate_trace(spec)
    report = compare_baseline(matcher, trace)
    assert report.stats.equivalent
    codes = {manifest.ids.index("a"), manifest.ids.index("b")}
    evil = [i for i, code in enumerate(manifest.signature.tolist())
            if code in codes]
    assert evil
    for i in evil:
        for detections in (report.baseline_detections[i],
                           report.records.verified[i]):
            ids = {m.signature_id for m in detections
                   if m.offset == manifest.offset[i] and m.length == 5}
            assert ids == {"a", "b"}


def test_compare_baseline_nop_sled_matches_every_window():
    # dense matches: every 14-byte window of a 1,400-byte NOP sled is one
    # of the rules, so every frame is forwarded with 1,387 verified windows
    rules = load_rules(b"nop,hex," + b"90" * 14 + b"\nweb,ascii,GET /x\n")
    matcher = SignatureMatcher.program(rules, BloomParams())
    data = reference_tcp_frame(b"\x02" * 6, b"\x04" * 6, b"\x0a\0\0\x01",
                               b"\xc0\xa8\0\x01", 1234, 80, b"\x90" * 1400)
    report = compare_baseline(matcher, reference_trace([RawFrame(data)] * 20))
    assert report.stats.equivalent
    assert report.stats.forwarded == len(report.forwarded) == 20
    sled = [(offset, 14, "nop") for offset in range(1387)]
    assert naive_exact_matches(rules.signatures, reference_parse(data)) == sled
    for i in range(20):
        assert report.baseline_detections[i] == report.records.verified[i]
        assert [(m.offset, m.length, m.signature_id)
                for m in report.records.verified[i]] == sled
    rows = decision_log_csv(report.records).decode().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["1387"] * 20


def test_compare_baseline_empty_trace():
    matcher = simple_matcher()
    report = compare_baseline(matcher, reference_trace([]))
    assert report.stats.equivalent
    assert report.stats.reduction == 0.0
    assert report.stats.total == 0


def test_clean_traffic_forward_rate_within_union_bound():
    # with zero attacks, forwards are pure false positives: their rate must
    # sit under the window-count x per-window-FPR union bound, 4 sigma slack
    import math

    from nicsieve.bloom import fpr_theoretical

    rng = random.Random(64)
    sset = random_signature_set(rng, 800, lengths=[6, 8, 10, 12])
    matcher = SignatureMatcher.program(sset, PARAMS)
    spec = TrafficSpec(packet_count=4000, attack_fraction=0.0, seed=65,
                       payload_len_range=(100, 600), signatures=sset)
    trace, _ = generate_trace(spec)
    stats = compare_baseline(matcher, trace).stats

    per_packet = []
    for frame in trace:
        plen = len(reference_parse(frame.data))
        p = sum(max(0, plen - length + 1)
                * fpr_theoretical(PARAMS.m, PARAMS.k,
                                  matcher.filters[length].count_programmed).fpr
                for length in matcher.lengths)
        per_packet.append(min(1.0, p))
    bound = (sum(per_packet)
             + 4.0 * math.sqrt(sum(p * (1 - p) for p in per_packet)))
    assert stats.forwarded <= math.ceil(bound)
    assert stats.true_matches == 0


def test_compare_baseline_outputs_are_pinned():
    # one fixed trace with 10 pattern lengths (2-byte patterns among them):
    # the forwarded capture, the report and the decision log, byte for
    # byte, so a change to either route that moves one decision, candidate
    # count or match shows here
    rules = random_signature_set(random.Random(70), 400,
                                 lengths=list(range(2, 22, 2)))
    matcher = SignatureMatcher.program(
        rules, BloomParams(m=4096, k=3, seed_a=55, seed_b=56))
    spec = TrafficSpec(packet_count=600, attack_fraction=0.2, seed=71,
                       payload_len_range=(0, 400), signatures=rules)
    trace, _ = generate_trace(spec)
    report = compare_baseline(matcher, trace)
    assert report.stats.equivalent and report.stats.true_matches == 120
    outputs = (write_pcap(report.forwarded), emit_csv([report.stats]),
               decision_log_csv(report.records))
    assert [sha256(out).hexdigest() for out in outputs] == [
        "ce85a3dc7250beeb9261bc591be450676cd1cbc9e24f2300c7a70eba7da3e15f",
        "bebfba5a979b34f1e7eb750091ace07206427540c76d7b04e58aae1c95db1811",
        "15e311c54d9979ee9fcb91daf39cd2432ba49d611da96e293db468b871d4df52"]


# --- decision log -----------------------------------------------------------

def test_decision_log_csv_layout():
    matcher = simple_matcher()
    report = compare_baseline(matcher, mixed_trace(matcher))
    text = decision_log_csv(report.records).decode()
    lines = text.splitlines()
    assert lines[0] == "index,verdict,reason,candidates,verified,payload_len"
    assert len(lines) == 6
    row = lines[2].split(",")
    assert row[0] == "1" and row[1] == "FORWARD" and row[2] == "MATCH_CANDIDATE"
    assert int(row[4]) >= 1
    garbage_row = lines[3].split(",")
    assert garbage_row[1] == "FORWARD" and garbage_row[2] == "NON_PARSEABLE"
    assert garbage_row[5] == "0"
