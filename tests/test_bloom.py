import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsieve.bloom import (
    BloomFilter,
    BloomParams,
    FilterImageError,
    fpr_theoretical,
    hash_indices,
    mix64,
    mix64_at,
    mix64_matrix,
    mix64_windows,
    optimal_k,
)

from conftest import reference_mix64, reference_probes

PARAMS = BloomParams(m=16384, k=4, seed_a=101, seed_b=202)


# --- parameters -------------------------------------------------------------

def test_params_validation():
    BloomParams(m=8, k=1, seed_a=0, seed_b=1)
    with pytest.raises(ValueError):
        BloomParams(m=7, k=4)
    with pytest.raises(ValueError):
        BloomParams(m=16384, k=0)
    with pytest.raises(ValueError):
        BloomParams(m=16384, k=4, seed_a=5, seed_b=5)
    with pytest.raises(ValueError):
        BloomParams(m=16384, k=4, seed_a=-1, seed_b=5)
    with pytest.raises(ValueError):
        BloomParams(m=16384, k=4, seed_a=1 << 64, seed_b=5)


def test_new_filter_all_zero():
    filt = BloomFilter(BloomParams(m=16384, k=4, seed_a=1, seed_b=2))
    assert filt.popcount() == 0
    assert filt.count_programmed == 0
    assert not filt.check(b"anything")


# --- hash indices -----------------------------------------------------------

def test_hash_indices_deterministic_and_in_range():
    for element in (b"abc", b"\x00", b"x" * 100):
        first = hash_indices(PARAMS, element)
        assert first == hash_indices(PARAMS, element)
        assert len(first) == PARAMS.k
        assert all(0 <= i < PARAMS.m for i in first)


def test_hash_indices_rejects_empty_element():
    with pytest.raises(ValueError):
        hash_indices(PARAMS, b"")
    filt = BloomFilter(PARAMS)
    with pytest.raises(ValueError):
        filt.add(b"")
    with pytest.raises(ValueError):
        filt.check(b"")


def test_hash_indices_match_independent_mixer():
    # probe construction recomputed from an independent mixer rewrite
    for element in (b"abc", b"GET /", bytes(range(64))):
        expected = reference_probes(PARAMS.seed_a, PARAMS.seed_b, element,
                                    PARAMS.m, PARAMS.k)
        assert hash_indices(PARAMS, element) == expected


@given(st.binary(min_size=1, max_size=64))
def test_mix64_matches_reference(data):
    assert mix64(0x1234, data) == reference_mix64(0x1234, data)


@given(st.binary(min_size=4, max_size=200), st.integers(1, 4))
@settings(max_examples=50)
def test_vectorized_digests_match_scalar(buf, length):
    arr = np.frombuffer(buf, dtype=np.uint8)
    for seed in (PARAMS.seed_a, PARAMS.seed_b):
        windows = mix64_windows(seed, arr, length)
        expected = [mix64(seed, buf[o : o + length])
                    for o in range(len(buf) - length + 1)]
        assert windows.tolist() == expected
        pos = np.arange(len(buf) - length + 1, dtype=np.int64)
        assert mix64_at(seed, arr, length, pos).tolist() == expected
    rows = np.frombuffer(buf[: (len(buf) // length) * length],
                         dtype=np.uint8).reshape(-1, length)
    digests = mix64_matrix(PARAMS.seed_a, rows)
    assert digests.tolist() == [mix64(PARAMS.seed_a, r.tobytes()) for r in rows]


# --- add / check ------------------------------------------------------------

def test_add_sets_k_bits_and_counts():
    filt = BloomFilter(PARAMS)
    filt.add(b"element-1")
    assert 1 <= filt.popcount() <= PARAMS.k
    assert filt.count_programmed == 1
    assert filt.check(b"element-1")


def test_add_twice_is_idempotent_on_bits():
    filt = BloomFilter(PARAMS)
    filt.add(b"dup")
    once = filt.vector_bytes()
    filt.add(b"dup")
    assert filt.vector_bytes() == once
    assert filt.count_programmed == 2


def test_check_does_not_mutate():
    filt = BloomFilter(PARAMS)
    filt.add(b"stored")
    before = filt.to_image()
    for probe in (b"stored", b"missing", b"\xff" * 32):
        filt.check(probe)
    assert filt.to_image() == before


def test_add_many_equals_sequential_adds():
    rng = random.Random(5)
    elements = [rng.randbytes(rng.randint(1, 24)) for _ in range(500)]
    a = BloomFilter(PARAMS)
    for e in elements:
        a.add(e)
    b = BloomFilter(PARAMS)
    b.add_many(elements)
    assert a.vector_bytes() == b.vector_bytes()
    assert a.count_programmed == b.count_programmed


def test_check_many_equals_scalar_checks():
    rng = random.Random(6)
    filt = BloomFilter(PARAMS)
    filt.add_many([rng.randbytes(8) for _ in range(300)])
    probes = [rng.randbytes(8) for _ in range(2000)]
    assert filt.check_many(probes) == [filt.check(p) for p in probes]


@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=60))
@settings(max_examples=60)
def test_no_false_negatives(elements):
    filt = BloomFilter(BloomParams(m=512, k=3, seed_a=7, seed_b=9))
    for e in elements:
        filt.add(e)
    assert all(filt.check(e) for e in elements)


@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40),
       st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40))
@settings(max_examples=40)
def test_adds_are_monotone(first, later):
    params = BloomParams(m=256, k=2, seed_a=3, seed_b=4)
    filt = BloomFilter(params)
    for e in first:
        filt.add(e)
    bits_before = filt.vector_bytes()
    members_before = [p for p in first + later if filt.check(p)]
    for e in later:
        filt.add(e)
    bits_after = filt.vector_bytes()
    # no bit flips 1 -> 0, and member answers never regress
    assert all(b & a == b for b, a in zip(bits_before, bits_after))
    assert all(filt.check(p) for p in members_before)


def test_popcount_bounded_by_k_times_n():
    rng = random.Random(8)
    filt = BloomFilter(PARAMS)
    for _ in range(200):
        filt.add(rng.randbytes(12))
    assert filt.popcount() <= PARAMS.k * filt.count_programmed


def test_member_rate_tracks_theory():
    # 2000 members, 100000 fresh probes: empirical rate within 4 binomial
    # standard deviations of the closed form
    rng = random.Random(123)
    filt = BloomFilter(BloomParams(m=16384, k=4, seed_a=41, seed_b=43))
    filt.add_many([rng.randbytes(8) for _ in range(2000)])
    probes = [rng.randbytes(10) for _ in range(100_000)]
    rate = sum(filt.check_many(probes)) / len(probes)
    theory = fpr_theoretical(16384, 4, 2000).fpr
    assert abs(theory - 0.0223) < 1e-4 + 5e-5
    sigma = math.sqrt(theory * (1 - theory) / len(probes))
    assert abs(rate - theory) <= 4 * sigma


# --- closed-form FPR and optimal k -----------------------------------------

def test_fpr_theoretical_known_values():
    # reference values from a 50-digit evaluation of the closed form
    assert fpr_theoretical(16384, 4, 0).fpr == 0.0
    assert fpr_theoretical(16384, 4, 0).p_zero == 1.0
    assert abs(fpr_theoretical(16384, 4, 2000).fpr - 0.022273457621504) < 1e-4
    assert abs(fpr_theoretical(16384, 1, 1000).fpr - 0.059209835459610) < 1e-4


def test_fpr_theoretical_structure():
    est = fpr_theoretical(1024, 3, 100)
    assert est.fpr == pytest.approx((1 - est.p_zero) ** 3)
    assert 0.0 <= est.fpr <= 1.0
    with pytest.raises(ValueError):
        fpr_theoretical(0, 4, 10)
    with pytest.raises(ValueError):
        fpr_theoretical(16384, 0, 10)
    with pytest.raises(ValueError):
        fpr_theoretical(16384, 4, -1)


def test_fpr_theoretical_nondecreasing_in_n():
    values = [fpr_theoretical(16384, 4, n).fpr for n in range(0, 5000, 97)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_optimal_k_known_values():
    assert optimal_k(16384, 2000) == 6  # (m/n) ln2 = 5.678
    assert optimal_k(16384, 16384) == 1
    with pytest.raises(ValueError):
        optimal_k(16384, 0)


@pytest.mark.parametrize("n", [50, 100, 250, 500, 1000, 2000, 4000, 16384])
def test_optimal_k_matches_exhaustive_argmin(n):
    # the scan range caps at 32, so compare the clamped value: for n small
    # enough the true optimum lies past the cap and both sides saturate
    m = 16384
    best = min(range(1, 33), key=lambda k: fpr_theoretical(m, k, n).fpr)
    returned = optimal_k(m, n)
    assert abs(min(returned, 32) - best) <= 1
    # never worse than its immediate neighbors (unclamped)
    here = fpr_theoretical(m, returned, n).fpr
    for neighbor in (returned - 1, returned + 1):
        if neighbor >= 1:
            assert here <= fpr_theoretical(m, neighbor, n).fpr or \
                math.isclose(here, fpr_theoretical(m, neighbor, n).fpr)


# --- image serialization ----------------------------------------------------

def test_image_roundtrip_bit_identical():
    rng = random.Random(44)
    filt = BloomFilter(BloomParams(m=2048, k=3, seed_a=11, seed_b=12))
    filt.add_many([rng.randbytes(rng.randint(1, 20)) for _ in range(100)])
    image = filt.to_image()
    back = BloomFilter.from_image(image)
    assert back.to_image() == image
    assert back.params == filt.params
    assert back.count_programmed == filt.count_programmed
    assert back.vector_bytes() == filt.vector_bytes()


def test_image_layout_matches_documented_format():
    import struct
    import zlib

    filt = BloomFilter(BloomParams(m=64, k=2, seed_a=9, seed_b=10))
    filt.add(b"ab")
    image = filt.to_image()
    assert image[:4] == b"PEIC"
    version, k = struct.unpack_from("<HH", image, 4)
    m, seed_a, seed_b, count = struct.unpack_from("<QQQQ", image, 8)
    assert (version, k, m, seed_a, seed_b, count) == (1, 2, 64, 9, 10, 1)
    vector = image[40:48]
    # LSB-first bit layout: recompute positions from the hash family
    expected = bytearray(8)
    for i in hash_indices(filt.params, b"ab"):
        expected[i // 8] |= 1 << (i % 8)
    assert vector == bytes(expected)
    (crc,) = struct.unpack_from("<I", image, 48)
    assert crc == zlib.crc32(image[:48])
    assert len(image) == 52


def test_image_error_cases():
    filt = BloomFilter(BloomParams(m=256, k=2, seed_a=1, seed_b=2))
    filt.add(b"xy")
    image = filt.to_image()

    with pytest.raises(FilterImageError, match="magic"):
        BloomFilter.from_image(b"NOPE" + image[4:])
    with pytest.raises(FilterImageError, match="version"):
        BloomFilter.from_image(image[:4] + b"\x63\x00" + image[6:])
    with pytest.raises(FilterImageError, match="truncated"):
        BloomFilter.from_image(image[: 40 + 7])
    with pytest.raises(FilterImageError, match="truncated"):
        BloomFilter.from_image(image[:10])
    with pytest.raises(FilterImageError, match="checksum"):
        corrupt = bytearray(image)
        corrupt[41] ^= 0x01
        BloomFilter.from_image(bytes(corrupt))
    with pytest.raises(FilterImageError, match="trailing"):
        BloomFilter.from_image(image + b"\x00")
    BloomFilter.from_image(image)  # pristine image still loads


@given(st.lists(st.binary(min_size=1, max_size=12), max_size=30),
       st.integers(8, 600), st.integers(1, 5))
@settings(max_examples=40)
def test_image_roundtrip_property(elements, m, k):
    filt = BloomFilter(BloomParams(m=m, k=k, seed_a=21, seed_b=22))
    for e in elements:
        filt.add(e)
    assert BloomFilter.from_image(filt.to_image()).to_image() == filt.to_image()
