"""Bloom filter core: bit vector, seeded hash family, and the FPR math.

A filter represents a set of byte strings in an m-bit vector. Adding an
element sets the k bits selected by the hash family; a query answers
"member" only if all k bits are set. False positives are possible and
quantified by ``fpr_theoretical``; false negatives are not.

The k indices are derived from two 64-bit digests via finalized double
hashing:

    h_i(x) = F((g1(x) + i * g2'(x)) mod 2**64) mod m,   i = 0 .. k-1

where g2' is g2 forced odd and F is the same two-round finalizer the
mixer uses. Plain double hashing is not enough here: without F, all k
probes depend only on (g1 mod m, g2' mod m), so a query whose reduced
digest pair collides with a programmed element's reproduces its whole
probe set. That collision term (~2n/m^2 per query) dominates the
closed-form rate precisely in the low-FPR regime this filter runs in;
finalizing each combined value restores effectively independent probes.
The base mixer is fixed bit-for-bit (FNV-style byte fold plus a
murmur-style finalizer) so that filters programmed with the same seeds
are reproducible everywhere.

The finalizer is F = xs . mul(C) . xs, with xs(x) = x ^ (x >> 33) and C
= 0xFF51AFD7ED558CCD. On 64-bit words xs undoes itself: xs(xs(x)) = x ^
(x >> 66) = x. So F(F(x)) = xs(C**2 * xs(x)), and the round-0 probe,
F(g1) = F(F(fold state)) mod m, takes one multiply and no stride
(``first_probes``). It is the same number, so the same bit is set and
read as before; images, digests and every probe are unchanged. The scan
and ``check_many`` (``BloomFilter.first_hits``) probe round 0 this way
from seed_a's fold state, and finalize g1 and fold seed_b only for the
elements that pass it.

One fold loop, ``fold_at``, is the only implementation of the hash's
byte fold, and the program's only window hash. The fold state after j
bytes does not depend on how long the window will be, so ``fold_at``
carries a running fold across ascending lengths. It folds a ``range`` of
window starts from strided slices of the buffer, and an index array of
starts from gathers: every start of a slice (the Bloom route in
``signatures``), the rows of a row array (``fold_rows``, for
``add_many``, ``check_many`` and the exact route's slot table), or
scattered starts (the exact route in ``signatures``, under a seed of its
own). ``mix64_at`` and ``mix64_windows`` are ``fold_at`` for one
length, finalized. Rounds 1 and up share one probe loop,
``BloomFilter.narrow``. The test suite checks them against the
independent reference hash in ``tests/conftest.py``.

The batch calls, ``add_many`` and ``check_many``, take only a row array:
a 2-D uint8 array, one element per row, so a caller with many elements
(the FPR sweep) never builds a Python object per element. Rules of
several pattern lengths reach the filters as one row array per length,
from ``SignatureSet.by_length``.

A filter keeps its vector unpacked, one bool per bit, so a probe round
is one gather; the packed LSB-first bytes exist only in ``vector_bytes``
and images. Probe indices reduce with a mask when m is a power of two
and modulo m otherwise, which gives the same index.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
_FOLD_PRIME = 0x100000001B3
_FINAL_MULT = 0xFF51AFD7ED558CCD
_FINAL_MULT_SQ = _FINAL_MULT * _FINAL_MULT & MASK64  # F.F = xs.mul(C**2).xs
_SHIFT = np.uint64(33)

# Default seeds: distinct odd 64-bit constants (golden-ratio and xxhash
# derived). Any pair works as long as seed_a != seed_b.
DEFAULT_SEED_A = 0x9E3779B97F4A7C15
DEFAULT_SEED_B = 0xC2B2AE3D27D4EB4F

IMAGE_MAGIC = b"PEIC"
IMAGE_VERSION = 1
_IMAGE_HEADER = struct.Struct("<4sHHQQQQ")


class FilterImageError(ValueError):
    """Raised for malformed filter images (bad magic, version, length, CRC)."""


@dataclass(frozen=True)
class BloomParams:
    """Shape of a filter: vector length m (bits), k hash functions, seeds."""

    m: int = 16384
    k: int = 4
    seed_a: int = DEFAULT_SEED_A
    seed_b: int = DEFAULT_SEED_B

    def __post_init__(self) -> None:
        if self.m < 8:
            raise ValueError(f"m must be >= 8 bits, got {self.m}")
        if not 1 <= self.k <= 0xFFFF:  # image format stores k as u16
            raise ValueError(f"k must be in 1..65535, got {self.k}")
        for name in ("seed_a", "seed_b"):
            seed = getattr(self, name)
            if not 0 <= seed <= MASK64:
                raise ValueError(f"{name} must be an unsigned 64-bit value")
        if self.seed_a == self.seed_b:
            raise ValueError("seed_a and seed_b must differ")


def mix64_windows(seed: int, buf: np.ndarray, length: int) -> np.ndarray:
    """The seeded 64-bit digest of every ``length``-byte window of ``buf``.

    Bit-exact by contract: per byte, state = (state XOR byte) *
    0x100000001B3 (mod 2**64), starting from ``seed``; then xor-shift 33,
    multiply by 0xFF51AFD7ED558CCD, xor-shift 33. ``buf`` is a 1-D array
    of byte values, as ``fold_at`` takes it; the result has
    ``buf.size - length + 1`` digests, one per window start offset.
    """
    return mix64_at(seed, buf, length, range(buf.size - length + 1))


def mix64_at(seed: int, buf: np.ndarray, length: int,
             positions: range | np.ndarray) -> np.ndarray:
    """The ``mix64_windows`` digests of the windows starting at ``positions``.

    ``fold_at`` for one length, finalized: ``positions`` ascend, and a
    window past the end of ``buf`` raises ``ValueError``.
    """
    ((_, at, state),) = fold_at(seed, buf, positions, [length])
    if len(at) < len(positions):
        raise ValueError(f"a {length}-byte window at {positions[-1]} runs "
                         f"past the {buf.size}-byte buffer")
    return _finalize(state)


def fold_at(seed: int, buf: np.ndarray, positions: range | np.ndarray,
            lengths: list[int], state: np.ndarray | None = None):
    """Yield (length, at, state): the running fold of the windows at ``positions``.

    ``buf`` holds byte values: uint8, or widened to uint64 once, so that
    no fold step casts a column. ``positions`` is a ``range`` of window
    starts with a positive step, folded from strided slices of ``buf``
    (step 1 for every start of a buffer, the row width for the rows of a
    row array), or an ascending index array, folded from gathers.
    ``lengths`` ascend: a byte column folded for a shorter length is not
    folded again for a longer one. For each length, ``at`` is the prefix
    of ``positions`` whose windows fit in ``buf``, and ``state`` their
    unfinalized fold states, overwritten by the next step. ``state``, if
    given, is a uint64 array of at least ``len(positions)`` entries that
    the fold overwrites, so that one array serves many folds.
    """
    count = len(positions)
    if state is None:
        state = np.empty(count, dtype=np.uint64)
    elif state.size < count:
        raise ValueError(f"a {state.size}-entry state cannot fold "
                         f"{count} windows")
    state = state[:count]
    state.fill(seed & MASK64)
    folded = 0  # bytes of every window already in ``state``
    for length in lengths:
        if length < folded:
            raise ValueError(f"lengths must ascend: {length} after {folded}")
        if isinstance(positions, range):
            # the fitting prefix by arithmetic: searchsorted would build
            # the whole range as an array
            fit = range(positions.start, buf.size - length + 1, positions.step)
            at = positions[: len(fit)]
        else:
            at = positions[: positions.searchsorted(buf.size - length,
                                                    side="right")]
        state = state[: len(at)]
        for j in range(folded, length):
            # the FNV step on byte j of every window, a column widened as
            # it is folded, never the whole buffer
            state ^= (buf[at.start + j : at.stop + j : at.step]
                      if isinstance(at, range) else buf[j:].take(at))
            state *= np.uint64(_FOLD_PRIME)
        folded = length
        yield length, at, state


def fold_rows(seed: int, rows: np.ndarray) -> np.ndarray:
    """The unfinalized fold under ``seed`` of each row of a 2-D uint8 array."""
    n, width = rows.shape
    ((_, _, state),) = fold_at(seed, rows.ravel(), range(0, n * width, width),
                               [width])
    return state


def _finalize(state: np.ndarray) -> np.ndarray:
    state ^= state >> _SHIFT
    state *= np.uint64(_FINAL_MULT)
    state ^= state >> _SHIFT
    return state


def _reduce(values: np.ndarray, m: int) -> np.ndarray:
    """``values`` mod m in place: a mask when m is a power of two."""
    if m & (m - 1) == 0:
        return np.bitwise_and(values, np.uint64(m - 1), out=values)
    return np.remainder(values, np.uint64(m), out=values)


def first_probes(state: np.ndarray, m: int, out: np.ndarray | None = None,
                 tmp: np.ndarray | None = None) -> np.ndarray:
    """The round-0 probe index of each seed_a fold state: F(F(state)) mod m.

    F(F(x)) = xs(C**2 * xs(x)), so this is one multiply and two
    xor-shifts (see the module docstring). ``out`` and ``tmp``, uint64
    arrays of ``state``'s size, are overwritten if given and allocated if
    not; the index is returned in ``out``.
    """
    if out is None:
        out = np.empty_like(state)
    if tmp is None:
        tmp = np.empty_like(state)
    np.right_shift(state, _SHIFT, out=tmp)
    np.bitwise_xor(state, tmp, out=out)
    np.multiply(out, np.uint64(_FINAL_MULT_SQ), out=out)
    np.right_shift(out, _SHIFT, out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    return _reduce(out, m)


def _rows(elements: np.ndarray) -> np.ndarray:
    """A row array (2-D uint8, at least one column) made C-contiguous."""
    if (not isinstance(elements, np.ndarray) or elements.ndim != 2
            or elements.dtype != np.uint8):
        got = (f"{elements.ndim}-D {elements.dtype}"
               if isinstance(elements, np.ndarray) else type(elements).__name__)
        raise ValueError(f"elements must be a 2-D uint8 row array, got {got}")
    if elements.shape[1] == 0:
        raise ValueError("element must be non-empty")
    return np.ascontiguousarray(elements)


class BloomFilter:
    """An m-bit vector programmed with byte-string elements.

    Bits live unpacked, one bool per bit, in 8 * ceil(m/8) entries: the
    bits past m are the image's padding bits, kept so that any image
    round-trips. ``vector_bytes`` packs them LSB-first within each byte
    (bit i sits at byte i//8, position i%8) -- the layout the image
    format uses. Programming is single-writer; a programmed filter may
    be queried from any number of threads concurrently.
    """

    def __init__(self, params: BloomParams, count_programmed: int = 0) -> None:
        self.params = params
        self.count_programmed = count_programmed
        self._table = np.zeros(8 * ((params.m + 7) // 8), dtype=bool)

    def _strides(self, rows: np.ndarray) -> np.ndarray:
        """The odd stride (g2, made odd) of each row of a row array."""
        return _finalize(fold_rows(self.params.seed_b, rows)) | np.uint64(1)

    def add_many(self, elements: np.ndarray) -> None:
        """Set the k bits of every element of a row array, in one batch.

        Duplicates are indistinguishable from first insertions, so
        ``count_programmed`` grows by the number of rows, not by the
        number of distinct rows.
        """
        rows = _rows(elements)
        g1 = _finalize(fold_rows(self.params.seed_a, rows))
        stride = self._strides(rows)
        for i in range(self.params.k):
            idx = self.probe_indices(g1, stride, i)
            self._table[idx.view(np.int64)] = True
        self.count_programmed += rows.shape[0]

    def probe_indices(self, g1: np.ndarray, stride: np.ndarray,
                      i: int) -> np.ndarray:
        """Vectorized i-th probe: F(g1 + i*stride mod 2**64) mod m."""
        return _reduce(_finalize(g1 + np.uint64(i) * stride), self.params.m)

    def test_bits(self, idx: np.ndarray) -> np.ndarray:
        """Boolean value of each bit position in ``idx``, uint64 below m."""
        return self._table.take(idx.view(np.int64))

    def first_hits(self, state: np.ndarray, out: np.ndarray | None = None,
                   idx: np.ndarray | None = None,
                   tmp: np.ndarray | None = None) -> np.ndarray:
        """Whether the round-0 probe of each seed_a fold state hits a set bit.

        ``out`` (bool), ``idx`` and ``tmp`` (uint64), each of ``state``'s
        size, are overwritten if given and allocated if not, so a caller
        can probe many batches with no new array (``first_probes``).
        """
        idx = first_probes(state, self.params.m, idx, tmp)
        # "clip" never clips an index below m; unlike "raise", it writes
        # ``out`` directly instead of through a buffer
        return self._table.take(idx.view(np.int64), out=out, mode="clip")

    def narrow(self, state: np.ndarray, stride: np.ndarray) -> np.ndarray:
        """Indices of the elements whose probes 1..k-1 all hit set bits.

        ``state`` is each element's seed_a fold state, whose round 0 the
        caller has probed (``first_hits``); g1 is finalized from it here.
        Each round probes only the elements that survived the rounds
        before it.
        """
        g1 = _finalize(state.copy())
        alive = np.arange(g1.size)
        for i in range(1, self.params.k):
            if alive.size == 0:
                break
            idx = self.probe_indices(g1[alive], stride[alive], i)
            alive = alive[self.test_bits(idx)]
        return alive

    def check_many(self, elements: np.ndarray) -> np.ndarray:
        """Membership of each row of a row array, as bools. Never mutates."""
        rows = _rows(elements)
        state = fold_rows(self.params.seed_a, rows)
        alive = np.flatnonzero(self.first_hits(state))
        stride = self._strides(rows[alive])
        member = np.zeros(state.size, dtype=bool)
        member[alive[self.narrow(state[alive], stride)]] = True
        return member

    def popcount(self) -> int:
        """Number of set bits in the vector."""
        return int(np.count_nonzero(self._table))

    def vector_bytes(self) -> bytes:
        """The raw bit vector, ceil(m/8) bytes, LSB-first."""
        return np.packbits(self._table, bitorder="little").tobytes()

    def to_image(self) -> bytes:
        """Serialize to the portable image format (header, vector, CRC32)."""
        p = self.params
        body = _IMAGE_HEADER.pack(IMAGE_MAGIC, IMAGE_VERSION, p.k, p.m,
                                  p.seed_a, p.seed_b, self.count_programmed)
        body += self.vector_bytes()
        return body + struct.pack("<I", zlib.crc32(body))

    @classmethod
    def from_image(cls, data: bytes) -> BloomFilter:
        """Rebuild a filter from ``to_image`` output, verifying the CRC."""
        if len(data) < 4 or data[:4] != IMAGE_MAGIC:
            raise FilterImageError("bad magic: not a filter image")
        if len(data) < _IMAGE_HEADER.size:
            raise FilterImageError("truncated image: incomplete header")
        _, version, k, m, seed_a, seed_b, count = _IMAGE_HEADER.unpack_from(data)
        if version != IMAGE_VERSION:
            raise FilterImageError(f"version mismatch: {version} != {IMAGE_VERSION}")
        nbytes = (m + 7) // 8
        expected = _IMAGE_HEADER.size + nbytes + 4
        if len(data) < expected:
            raise FilterImageError("truncated image: vector cut short")
        if len(data) > expected:
            raise FilterImageError("trailing bytes after checksum")
        (crc,) = struct.unpack_from("<I", data, expected - 4)
        if crc != zlib.crc32(data[: expected - 4]):
            raise FilterImageError("checksum mismatch")
        try:
            params = BloomParams(m=m, k=k, seed_a=seed_a, seed_b=seed_b)
        except ValueError as exc:
            raise FilterImageError(f"invalid parameters in image: {exc}") from exc
        filt = cls(params, count_programmed=count)
        vector = np.frombuffer(data, dtype=np.uint8, count=nbytes,
                               offset=_IMAGE_HEADER.size)
        filt._table = np.unpackbits(vector, bitorder="little").view(bool)
        return filt


@dataclass(frozen=True)
class FprEstimate:
    """Closed-form false-positive estimate for a fully programmed filter."""

    p_zero: float  # probability a given bit is still 0 after programming
    fpr: float     # probability a non-member answers "member"


def fpr_theoretical(m: int, k: int, n: int) -> FprEstimate:
    """Closed-form FPR for n elements in an m-bit vector with k hashes.

    p_zero = exp(-k n / m); fpr = (1 - p_zero)**k. n = 0 gives fpr 0.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    p_zero = math.exp(-k * n / m)
    return FprEstimate(p_zero=p_zero, fpr=(1.0 - p_zero) ** k)


def optimal_k(m: int, n: int) -> int:
    """Hash count minimizing the closed-form FPR: round((m/n) ln 2), >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return max(1, round((m / n) * math.log(2)))
