"""Acceptance suite: every exit criterion, at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
inline) and asserts both the property and its runtime bound.
"""

import math
import random
import time

from nicsieve.analytics import fpr_sweep
from nicsieve.bloom import BloomFilter, BloomParams, fpr_theoretical, optimal_k
from nicsieve.codec import RawFrame, read_pcap, write_pcap
from nicsieve.pipeline import compare_baseline
from nicsieve.signatures import Payloads, SignatureMatcher
from nicsieve.traffic import TrafficSpec, generate_trace

from conftest import (naive_exact_matches, random_signature_set,
                      reference_parse, reference_trace, row_array)


def report(number: int, ok: bool, elapsed: float, bound: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail} "
          f"({elapsed:.1f}s, bound {bound:.0f}s)")


def test_criterion_1_zero_false_negatives():
    # 200 randomized (signature set, trace) pairs: filtered and unfiltered
    # paths must report identical verified-detection sets, 200/200
    t0 = time.perf_counter()
    rng = random.Random(0xC1)
    failures = []
    for trial in range(200):
        n = rng.randint(10, 2000)
        packets = rng.randint(1000, 10000)
        fraction = rng.uniform(0.01, 0.10)
        lengths = rng.sample(range(6, 17), rng.randint(1, 5))
        sset = random_signature_set(rng, n, lengths=lengths)
        params = BloomParams(m=16384, k=4, seed_a=rng.getrandbits(64),
                             seed_b=rng.getrandbits(64) | 1)
        matcher = SignatureMatcher.program(sset, params)
        trace, _ = generate_trace(TrafficSpec(
            packet_count=packets, attack_fraction=fraction,
            payload_len_range=(30, 120), seed=rng.getrandbits(32),
            signatures=sset))
        outcome = compare_baseline(matcher, trace)
        if not outcome.stats.equivalent:
            failures.append(trial)
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 120.0
    report(1, ok, elapsed, 120,
           f"zero false negatives, {200 - len(failures)}/200 pairs identical")
    assert failures == []
    assert elapsed < 120.0


def test_criterion_2_fpr_calibration():
    # m=16384, k in {2,4,6,8}, n in {100,500,1000,2000}, 100k non-member
    # queries per cell: empirical within 4 standard errors in >= 15 of 16
    t0 = time.perf_counter()
    rows = fpr_sweep(16384, [2, 4, 6, 8], [100, 500, 1000, 2000],
                     trials=100_000, seed=0xC2)
    within = sum(abs(r.fpr_empirical - r.fpr_theory) <= 4 * r.std_err
                 for r in rows)
    spot = next(r for r in rows if r.k == 4 and r.n == 2000)
    elapsed = time.perf_counter() - t0

    ok = within >= 15 and abs(spot.fpr_theory - 0.02227) <= 1e-4 \
        and elapsed < 60.0
    report(2, ok, elapsed, 60,
           f"FPR calibration, {within}/16 cells within 4 std errs, "
           f"spot theory {spot.fpr_theory:.5f}")
    assert within >= 15
    assert abs(spot.fpr_theory - 0.02227) <= 1e-4
    assert elapsed < 60.0


def test_criterion_3_host_load_reduction():
    # 10000 packets, 5% attacks, n=1000, k=4, m=16384: the host analyzes
    # at least the attacks and at most attacks + union-bound FPR + 4 sigma
    t0 = time.perf_counter()
    rng = random.Random(0xC3)
    sset = random_signature_set(rng, 1000, lengths=list(range(6, 14)))
    params = BloomParams(m=16384, k=4)
    matcher = SignatureMatcher.program(sset, params)
    trace, manifest = generate_trace(TrafficSpec(
        packet_count=10_000, attack_fraction=0.05, seed=0xC3,
        signatures=sset))
    outcome = compare_baseline(matcher, trace)
    percent = 100.0 * outcome.stats.forwarded / outcome.stats.total

    # per-packet forward probability, union bound over window counts
    attack_set = set(manifest.attack_indices())
    per_length_fpr = {
        length: fpr_theoretical(params.m, params.k,
                                matcher.filters[length].count_programmed).fpr
        for length in matcher.lengths}
    p_clean = []
    for i, frame in enumerate(trace):
        if i in attack_set:
            continue
        plen = len(reference_parse(frame.data))
        p = sum(max(0, plen - length + 1) * fpr
                for length, fpr in per_length_fpr.items())
        p_clean.append(min(1.0, p))
    bound_pct = (100.0 * (len(attack_set) + sum(p_clean)) / len(trace)
                 + 400.0 * math.sqrt(sum(p * (1 - p) for p in p_clean))
                 / len(trace))
    elapsed = time.perf_counter() - t0

    ok = 5.0 <= percent <= bound_pct and elapsed < 30.0
    report(3, ok, elapsed, 30,
           f"host load {percent:.3f}% analyzed, bound [5.0, {bound_pct:.3f}]%")
    assert percent >= 5.0
    assert percent <= bound_pct
    assert elapsed < 30.0


def test_criterion_4_scanner_oracle_equivalence():
    # verify(scan_batch([payload])) equals the naive all-offsets matcher,
    # 500 pairs
    t0 = time.perf_counter()
    rng = random.Random(0xC4)
    mismatches = 0
    for _ in range(500):
        sset = random_signature_set(rng, rng.randint(1, 40))
        matcher = SignatureMatcher.program(sset)
        payload = bytearray(rng.randbytes(rng.randint(0, 300)))
        for _ in range(rng.randint(0, 3)):
            sig = rng.choice(sset.signatures)
            if len(payload) >= len(sig.pattern):
                off = rng.randint(0, len(payload) - len(sig.pattern))
                payload[off : off + len(sig.pattern)] = sig.pattern
        payload = bytes(payload)
        windows = matcher.scan_batch(Payloads.of([payload]))
        candidates = windows.by_payload().get(0, [])
        got = [(v.offset, v.length, v.signature_id)
               for v in matcher.verify(payload, candidates)]
        if got != naive_exact_matches(sset.signatures, payload):
            mismatches += 1
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and elapsed < 30.0
    report(4, ok, elapsed, 30,
           f"scanner oracle equivalence, {500 - mismatches}/500 pairs exact")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_5_bit_exact_persistence():
    t0 = time.perf_counter()
    rng = random.Random(0xC5)

    # filter images: round-trip byte-identical, CRC included
    image_ok = True
    for _ in range(25):
        params = BloomParams(m=rng.choice([64, 1024, 16384]),
                             k=rng.randint(1, 8),
                             seed_a=rng.getrandbits(64),
                             seed_b=rng.getrandbits(64) | 1)
        filt = BloomFilter(params)
        elements = [rng.randbytes(rng.randint(1, 32))
                    for _ in range(rng.randint(0, 400))] or [b"x"]
        _add_by_length(filt, elements)
        image = filt.to_image()
        image_ok &= BloomFilter.from_image(image).to_image() == image

    # capture round-trip preserves every frame field
    frames = [RawFrame(data=rng.randbytes(rng.randint(0, 200)),
                       ts_sec=rng.getrandbits(31), ts_usec=rng.randint(0, 999999),
                       orig_len=rng.randint(0, 300)) for _ in range(500)]
    trace = reference_trace(frames)
    back = read_pcap(write_pcap(trace))
    pcap_ok = len(back) == len(trace) and all(
        (a.data, a.ts_sec, a.ts_usec, a.orig_len)
        == (b.data, b.ts_sec, b.ts_usec, b.orig_len)
        for a, b in zip(trace, back))
    pcap_ok &= write_pcap(back) == write_pcap(trace)

    # rebuilding with identical seeds is byte-identical
    sset = random_signature_set(rng, 300)
    params = BloomParams(m=16384, k=4, seed_a=77, seed_b=78)
    first = SignatureMatcher.program(sset, params).filter_images()
    second = SignatureMatcher.program(sset, params).filter_images()
    rebuild_ok = first == second

    elapsed = time.perf_counter() - t0
    ok = image_ok and pcap_ok and rebuild_ok
    report(5, ok, elapsed, 30,
           f"bit-exact persistence (images {image_ok}, captures {pcap_ok}, "
           f"rebuild {rebuild_ok})")
    assert image_ok and pcap_ok and rebuild_ok


def test_criterion_6_bloom_structural_properties():
    # no false negatives over random sets (sizes 1..5000, 100 trials),
    # query purity, add monotonicity
    t0 = time.perf_counter()
    rng = random.Random(0xC6)

    false_negatives = 0
    for trial in range(100):
        size = rng.randint(1, 5000)
        params = BloomParams(m=16384, k=rng.randint(1, 8),
                             seed_a=rng.getrandbits(64),
                             seed_b=rng.getrandbits(64) | 1)
        filt = BloomFilter(params)
        elements = [rng.randbytes(rng.randint(1, 16)) for _ in range(size)]
        if trial % 2:
            _add_by_length(filt, elements)
        else:
            _add_in_slices(filt, elements)
        false_negatives += sum(not hit for hit in _grouped_check(filt, elements))

    # purity: checks leave the serialized image untouched
    filt = BloomFilter(BloomParams(m=4096, k=4, seed_a=1, seed_b=2))
    filt.add_many(row_array([rng.randbytes(8) for _ in range(100)]))
    before = filt.to_image()
    _grouped_check(filt, [rng.randbytes(rng.randint(1, 12)) for _ in range(2000)])
    purity_ok = filt.to_image() == before

    # monotonicity: later adds never clear bits or revoke membership
    filt = BloomFilter(BloomParams(m=2048, k=3, seed_a=3, seed_b=4))
    first = [rng.randbytes(6) for _ in range(50)]
    filt.add_many(row_array(first))
    bits_before = filt.vector_bytes()
    _add_in_slices(filt, [rng.randbytes(6) for _ in range(500)])
    bits_after = filt.vector_bytes()
    monotone_ok = all(b & a == b for b, a in zip(bits_before, bits_after))
    monotone_ok &= all(_grouped_check(filt, first))

    elapsed = time.perf_counter() - t0
    ok = false_negatives == 0 and purity_ok and monotone_ok
    report(6, ok, elapsed, 60,
           f"structural properties (false negatives {false_negatives}, "
           f"purity {purity_ok}, monotonicity {monotone_ok})")
    assert false_negatives == 0
    assert purity_ok
    assert monotone_ok


def _by_length(elements):
    """``elements`` as row arrays, one per length, in first-seen order."""
    groups = {}
    for e in elements:
        groups.setdefault(len(e), []).append(e)
    return [row_array(group) for group in groups.values()]


def _add_by_length(filt, elements):
    """Program ``elements``, one ``add_many`` call per length."""
    for rows in _by_length(elements):
        filt.add_many(rows)


def _add_in_slices(filt, elements, size=64):
    """Program ``elements`` incrementally, ``size`` at a time."""
    for start in range(0, len(elements), size):
        _add_by_length(filt, elements[start : start + size])


def _grouped_check(filt, elements):
    """Membership of ``elements``, grouped by length (not in their order)."""
    return [hit for rows in _by_length(elements)
            for hit in filt.check_many(rows)]


def test_criterion_7_optimal_k_consistency():
    t0 = time.perf_counter()
    m = 16384
    worst = 0
    for n in (100, 250, 500, 1000, 2000, 4000):
        exhaustive = min(range(1, 33),
                         key=lambda k: fpr_theoretical(m, k, n).fpr)
        # the scan caps at k=32; clamp the formula's answer the same way
        worst = max(worst, abs(min(optimal_k(m, n), 32) - exhaustive))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1
    report(7, ok, elapsed, 30,
           f"optimal_k within +-1 of exhaustive argmin (worst {worst})")
    assert worst <= 1
