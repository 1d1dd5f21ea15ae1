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
    WindowFold,
    first_probes,
    fold_at,
    fpr_theoretical,
    mix64_at,
    mix64_windows,
    optimal_k,
)

from conftest import (reference_check, reference_fold, reference_mix64,
                      reference_probes)

PARAMS = BloomParams(m=16384, k=4, seed_a=101, seed_b=202)
# m neither a power of two nor a multiple of 8: probes reduce modulo m and
# the vector has padding bits
ODD_M = BloomParams(m=1001, k=3, seed_a=101, seed_b=202)


def reference_vector(params, elements):
    """The bit vector programming ``elements`` must give, from the oracle."""
    vector = bytearray((params.m + 7) // 8)
    for e in elements:
        for i in reference_probes(params.seed_a, params.seed_b, e,
                                  params.m, params.k):
            vector[i // 8] |= 1 << (i % 8)
    return bytes(vector)


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
    assert filt.check_many([b"anything"]).tolist() == [False]


# --- hash indices -----------------------------------------------------------

def test_hash_indices_deterministic_and_in_range():
    filt = BloomFilter(PARAMS)
    for element in (b"abc", b"\x00", b"x" * 100):
        buf = np.frombuffer(element, dtype=np.uint8)
        start = np.zeros(1, dtype=np.int64)
        g1 = mix64_at(PARAMS.seed_a, buf, len(element), start)
        stride = mix64_at(PARAMS.seed_b, buf, len(element), start) | np.uint64(1)
        first = [int(filt.probe_indices(g1, stride, i)[0])
                 for i in range(PARAMS.k)]
        assert first == [int(filt.probe_indices(g1, stride, i)[0])
                         for i in range(PARAMS.k)]
        assert len(first) == PARAMS.k
        assert all(0 <= i < PARAMS.m for i in first)


def test_hash_indices_rejects_empty_element():
    filt = BloomFilter(PARAMS)
    with pytest.raises(ValueError):
        filt.add_many([b""])
    with pytest.raises(ValueError, match="non-empty"):
        filt.check_many([b""])


def test_hash_indices_match_independent_mixer():
    # programmed bits recomputed from an independent mixer rewrite
    for element in (b"abc", b"GET /", bytes(range(64))):
        filt = BloomFilter(PARAMS)
        filt.add_many([element])
        assert filt.vector_bytes() == reference_vector(PARAMS, [element])


@given(st.binary(min_size=4, max_size=200), st.integers(1, 4))
@settings(max_examples=50)
def test_vectorized_digests_match_scalar(buf, length):
    arr = np.frombuffer(buf, dtype=np.uint8)
    for seed in (PARAMS.seed_a, PARAMS.seed_b):
        windows = mix64_windows(seed, arr, length)
        expected = [reference_mix64(seed, buf[o : o + length])
                    for o in range(len(buf) - length + 1)]
        assert windows.tolist() == expected
        pos = np.arange(len(buf) - length + 1, dtype=np.int64)
        assert mix64_at(seed, arr, length, pos).tolist() == expected
        # one fold shared by ascending, non-contiguous lengths
        fold = WindowFold(seed, arr)
        for shared in (length, length + 2, length + 5):
            assert mix64_windows(seed, arr, shared, fold=fold).tolist() == \
                [reference_mix64(seed, buf[o : o + shared])
                 for o in range(len(buf) - shared + 1)]
        with pytest.raises(ValueError, match="already covers"):
            mix64_windows(seed, arr, length, fold=fold)
        with pytest.raises(ValueError, match="another buffer or seed"):
            mix64_windows(seed ^ 1, arr, length + 6, fold=fold)


@given(st.binary(min_size=1, max_size=120), st.data())
@settings(max_examples=50)
def test_fold_at_yields_reference_folds_of_the_windows_that_fit(buf, data):
    arr = np.frombuffer(buf, dtype=np.uint8)
    seed = data.draw(st.integers(0, 2**64 - 1))
    # the positions reach the buffer's end, so longer windows drop out
    picked = data.draw(st.sets(st.integers(0, len(buf) - 1)))
    positions = np.array(sorted(picked | {len(buf) - 1}), dtype=np.int64)
    steps = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    lengths = np.cumsum(steps).tolist()
    seen = []
    for length, at, state in fold_at(seed, arr, positions, lengths):
        fits = [p for p in positions.tolist() if p + length <= len(buf)]
        assert at.tolist() == fits
        assert state.tolist() == [reference_fold(seed, buf[p : p + length])
                                  for p in fits]
        seen.append(length)
    assert seen == lengths


@given(st.binary(min_size=1, max_size=80), st.integers(1, 8),
       st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
       st.one_of(st.just(8), st.sampled_from([2**j for j in range(4, 34)]),
                 st.integers(4, 2**20).map(lambda h: 2 * h + 1)))
@settings(max_examples=150, deadline=None)
def test_first_probes_equal_the_two_finalizer_oracle(buf, length, seed_a,
                                                     seed_b, m):
    # round 0 probes F(F(fold state)) mod m as xs(C**2 * xs(state)) mod m;
    # the oracle finalizes twice, through g1
    if seed_a == seed_b:
        seed_b ^= 1
    length = min(length, len(buf))
    arr = np.frombuffer(buf, dtype=np.uint8)
    state = WindowFold(seed_a, arr).advance(length)
    windows = [buf[o : o + length] for o in range(len(buf) - length + 1)]
    expected = [reference_probes(seed_a, seed_b, w, m, 1)[0] for w in windows]
    assert first_probes(state, m).tolist() == expected
    # into given arrays, which are overwritten and returned
    out, tmp = np.full(state.size, 7, dtype=np.uint64), np.empty_like(state)
    assert first_probes(state, m, out, tmp) is out
    assert out.tolist() == expected
    # a k = 1 filter's round-0 hit is its membership (a filter of at most
    # 2**20 bits, whose table is one bool per bit)
    filt = BloomFilter(BloomParams(m=min(m, 2**20 + 1), k=1, seed_a=seed_a,
                                   seed_b=seed_b))
    filt.add_many(windows[::2])
    assert filt.first_hits(state).tolist() == \
        [reference_check(filt, w) for w in windows]


@given(st.binary(min_size=1, max_size=120), st.data())
@settings(max_examples=50)
def test_folds_of_a_widened_buffer_into_a_given_state(buf, data):
    # the scan folds a slice's bytes widened to uint64, into one state
    # array that it reuses for every slice
    arr = np.frombuffer(buf, dtype=np.uint8)
    wide = arr.astype(np.uint64)
    seed = data.draw(st.integers(0, 2**64 - 1))
    state = np.full(len(buf) + data.draw(st.integers(0, 3)), 9, dtype=np.uint64)
    fold = WindowFold(seed, wide, state)
    for length in sorted(data.draw(st.sets(st.integers(1, len(buf)),
                                           min_size=1))):
        folded = fold.advance(length)
        assert np.shares_memory(folded, state)
        assert folded.tolist() == \
            [reference_fold(seed, buf[o : o + length])
             for o in range(len(buf) - length + 1)]
    with pytest.raises(ValueError, match="cannot fold"):
        WindowFold(seed, wide, state[: len(buf) - 1])
    positions = np.arange(0, len(buf), 3)
    length = data.draw(st.integers(1, len(buf)))
    fits = positions[positions + length <= len(buf)]
    assert mix64_at(seed, wide, length, fits).tolist() == \
        mix64_at(seed, arr, length, fits).tolist() == \
        [reference_mix64(seed, buf[p : p + length]) for p in fits.tolist()]


def test_mix64_at_refuses_a_window_past_the_end():
    arr = np.frombuffer(b"abcdef", dtype=np.uint8)
    assert mix64_at(5, arr, 3, np.array([0, 3])).tolist() == \
        [reference_mix64(5, b"abc"), reference_mix64(5, b"def")]
    with pytest.raises(ValueError, match="past the 6-byte buffer"):
        mix64_at(5, arr, 3, np.array([0, 4]))


# --- add / check ------------------------------------------------------------

def test_add_sets_k_bits_and_counts():
    filt = BloomFilter(PARAMS)
    filt.add_many([b"element-1"])
    assert 1 <= filt.popcount() <= PARAMS.k
    assert filt.count_programmed == 1
    assert filt.check_many([b"element-1"])[0]


def test_add_twice_is_idempotent_on_bits():
    filt = BloomFilter(PARAMS)
    filt.add_many([b"dup"])
    once = filt.vector_bytes()
    filt.add_many([b"dup"])
    assert filt.vector_bytes() == once
    assert filt.count_programmed == 2


def test_check_does_not_mutate():
    filt = BloomFilter(PARAMS)
    filt.add_many([b"stored"])
    before = filt.to_image()
    for probe in (b"stored", b"missing", b"\xff" * 32):
        filt.check_many([probe])
    assert filt.to_image() == before


def test_check_many_input_checks():
    # the empty element is in test_hash_indices_rejects_empty_element
    filt = BloomFilter(PARAMS)
    filt.add_many([b"ab", b"abc"])
    assert filt.check_many([]).tolist() == []
    with pytest.raises(ValueError, match="equal-length"):
        filt.check_many([b"ab", b"abc"])


def test_add_many_equals_sequential_adds():
    rng = random.Random(5)
    elements = [rng.randbytes(rng.randint(1, 24)) for _ in range(500)]
    for params in (PARAMS, ODD_M):
        filt = BloomFilter(params)
        filt.add_many(elements)
        assert filt.vector_bytes() == reference_vector(params, elements)
        assert filt.count_programmed == len(elements)


def test_check_many_equals_scalar_checks():
    rng = random.Random(6)
    filt = BloomFilter(PARAMS)
    filt.add_many([rng.randbytes(8) for _ in range(300)])
    probes = [rng.randbytes(8) for _ in range(2000)]
    assert filt.check_many(probes).tolist() == \
        [reference_check(filt, p) for p in probes]


@given(st.one_of(st.sampled_from([8, 64, 1024, 16384]), st.integers(8, 5000)),
       st.integers(1, 8), st.integers(1, 64), st.integers(0, 40),
       st.integers(0, 2**32), st.data())
@settings(max_examples=80, deadline=None)
def test_check_many_rows_equal_bytes_and_oracle(m, k, width, count, seed,
                                                data):
    # a row array answers as the same rows given as bytes, and as the
    # oracle; members are a random subset of the rows plus other elements
    rng = random.Random(seed)
    filt = BloomFilter(BloomParams(m=m, k=k, seed_a=rng.getrandbits(64),
                                   seed_b=rng.getrandbits(64) | 1))
    rows = np.frombuffer(rng.randbytes(count * width), dtype=np.uint8)
    rows = rows.reshape(count, width)
    elements = [row.tobytes() for row in rows]
    members = [e for e in elements if data.draw(st.booleans())]
    filt.add_many(members + [rng.randbytes(width) for _ in range(10)])
    member = filt.check_many(rows)
    assert member.dtype == bool and member.shape == (count,)
    assert member.tolist() == filt.check_many(elements).tolist() == \
        [reference_check(filt, e) for e in elements]
    assert member[[elements.index(e) for e in members]].all()


def test_row_arrays_are_checked():
    filt = BloomFilter(PARAMS)
    for bad in (np.zeros((3, 0), dtype=np.uint8),
                np.zeros((0, 0), dtype=np.uint8)):
        with pytest.raises(ValueError, match="non-empty"):
            filt.check_many(bad)
        with pytest.raises(ValueError, match="non-empty"):
            filt.add_many(bad)
    for bad in (np.zeros(9, dtype=np.uint8), np.zeros((2, 3, 4), np.uint8),
                np.zeros((4, 9), dtype=np.int64),
                np.zeros((4, 9), dtype=np.int8)):
        with pytest.raises(ValueError, match="2-D uint8"):
            filt.check_many(bad)
        with pytest.raises(ValueError, match="2-D uint8"):
            filt.add_many(bad)
    assert filt.popcount() == 0 and filt.count_programmed == 0


def test_add_many_rows_equal_bytes():
    # a row array programs the bits its rows program as bytes, also when
    # the array is a strided view
    rng = np.random.default_rng(3)
    wide = rng.integers(0, 256, size=(300, 20), dtype=np.uint8)
    rows = wide[:, 3:15]
    for params in (PARAMS, ODD_M):
        filt = BloomFilter(params)
        filt.add_many(rows)
        expected = [row.tobytes() for row in rows]
        assert filt.vector_bytes() == reference_vector(params, expected)
        assert filt.count_programmed == len(expected)
        assert filt.check_many(rows).all()


@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=60))
@settings(max_examples=60)
def test_no_false_negatives(elements):
    filt = BloomFilter(BloomParams(m=512, k=3, seed_a=7, seed_b=9))
    for e in elements:
        filt.add_many([e])
    assert all(filt.check_many([e])[0] for e in elements)


@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40),
       st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40))
@settings(max_examples=40)
def test_adds_are_monotone(first, later):
    params = BloomParams(m=256, k=2, seed_a=3, seed_b=4)
    filt = BloomFilter(params)
    for e in first:
        filt.add_many([e])
    bits_before = filt.vector_bytes()
    members_before = [p for p in first + later if filt.check_many([p])[0]]
    for e in later:
        filt.add_many([e])
    bits_after = filt.vector_bytes()
    # no bit flips 1 -> 0, and member answers never regress
    assert all(b & a == b for b, a in zip(bits_before, bits_after))
    assert all(filt.check_many([p])[0] for p in members_before)


def test_popcount_bounded_by_k_times_n():
    rng = random.Random(8)
    filt = BloomFilter(PARAMS)
    for _ in range(200):
        filt.add_many([rng.randbytes(12)])
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
    for params in (BloomParams(m=2048, k=3, seed_a=11, seed_b=12), ODD_M):
        rng = random.Random(44)
        filt = BloomFilter(params)
        elements = [rng.randbytes(rng.randint(1, 20)) for _ in range(100)]
        filt.add_many(elements)
        image = filt.to_image()
        back = BloomFilter.from_image(image)
        assert back.to_image() == image
        assert back.params == filt.params
        assert back.count_programmed == filt.count_programmed
        assert back.vector_bytes() == filt.vector_bytes()
        # a reloaded filter keeps programming onto the loaded bits
        more = [rng.randbytes(rng.randint(1, 20)) for _ in range(50)]
        back.add_many(more)
        assert back.vector_bytes() == reference_vector(params, elements + more)
    # bits 1001..1007 of ODD_M's last vector byte are padding: a set one
    # still round-trips
    import struct
    import zlib

    image = bytearray(BloomFilter(ODD_M).to_image())
    image[40 + 125] |= 0x80
    image[-4:] = struct.pack("<I", zlib.crc32(image[:-4]))
    assert BloomFilter.from_image(bytes(image)).to_image() == bytes(image)


def test_image_layout_matches_documented_format():
    import struct
    import zlib

    filt = BloomFilter(BloomParams(m=64, k=2, seed_a=9, seed_b=10))
    filt.add_many([b"ab"])
    image = filt.to_image()
    assert image[:4] == b"PEIC"
    version, k = struct.unpack_from("<HH", image, 4)
    m, seed_a, seed_b, count = struct.unpack_from("<QQQQ", image, 8)
    assert (version, k, m, seed_a, seed_b, count) == (1, 2, 64, 9, 10, 1)
    vector = image[40:48]
    # LSB-first bit layout: recompute positions from the reference hash
    assert vector == reference_vector(filt.params, [b"ab"])
    (crc,) = struct.unpack_from("<I", image, 48)
    assert crc == zlib.crc32(image[:48])
    assert len(image) == 52


def test_image_error_cases():
    filt = BloomFilter(BloomParams(m=256, k=2, seed_a=1, seed_b=2))
    filt.add_many([b"xy"])
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
        filt.add_many([e])
    assert BloomFilter.from_image(filt.to_image()).to_image() == filt.to_image()
