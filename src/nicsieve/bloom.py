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

``add`` and ``check`` probe one element via ``hash_indices``; the batch
paths (``add_many``, ``check_many``, the ``mix64_*`` helpers) vectorize
the same arithmetic with numpy. The test suite checks them all against
the independent reference hash in ``tests/conftest.py``.
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


def finalize64(value: int) -> int:
    """The two-round 64-bit finalizer: xor-shift 33, multiply, xor-shift 33."""
    value &= MASK64
    value ^= value >> 33
    value = (value * _FINAL_MULT) & MASK64
    value ^= value >> 33
    return value


def mix64(seed: int, data: bytes) -> int:
    """Digest ``data`` into an unsigned 64-bit value, bit-exact by contract.

    Per byte: state = (state XOR byte) * 0x100000001B3 (mod 2**64), then
    the ``finalize64`` rounds.
    """
    state = seed & MASK64
    for b in data:
        state = ((state ^ b) * _FOLD_PRIME) & MASK64
    return finalize64(state)


def mix64_matrix(seed: int, rows: np.ndarray) -> np.ndarray:
    """Vectorized ``mix64`` over a (count, length) uint8 matrix of elements."""
    state = np.full(rows.shape[0], seed & MASK64, dtype=np.uint64)
    cols = rows.astype(np.uint64, copy=False)
    for j in range(rows.shape[1]):
        state ^= cols[:, j]
        state *= np.uint64(_FOLD_PRIME)
    return _finalize(state)


def mix64_windows(seed: int, buf: np.ndarray, length: int) -> np.ndarray:
    """Vectorized ``mix64`` of every ``length``-byte window of ``buf``.

    ``buf`` is a uint8 (or uint64-widened) 1-D array; the result has
    ``buf.size - length + 1`` digests, one per window start offset.
    """
    n = buf.size - length + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    wide = buf.astype(np.uint64, copy=False)
    state = np.full(n, seed & MASK64, dtype=np.uint64)
    for j in range(length):
        state ^= wide[j : j + n]
        state *= np.uint64(_FOLD_PRIME)
    return _finalize(state)


def mix64_at(seed: int, buf: np.ndarray, length: int,
             positions: np.ndarray) -> np.ndarray:
    """``mix64`` of the ``length``-byte windows starting at ``positions``.

    Gather-based variant of ``mix64_windows`` for when only a few window
    digests are needed out of a large buffer.
    """
    wide = buf.astype(np.uint64, copy=False)
    state = np.full(positions.size, seed & MASK64, dtype=np.uint64)
    for j in range(length):
        state ^= wide[positions + j]
        state *= np.uint64(_FOLD_PRIME)
    return _finalize(state)


def _finalize(state: np.ndarray) -> np.ndarray:
    state ^= state >> np.uint64(33)
    state *= np.uint64(_FINAL_MULT)
    state ^= state >> np.uint64(33)
    return state


def hash_indices(params: BloomParams, element: bytes) -> list[int]:
    """The k bit positions for ``element`` under ``params``, each in 0..m-1."""
    if len(element) == 0:
        raise ValueError("element must be non-empty")
    g1 = mix64(params.seed_a, element)
    stride = mix64(params.seed_b, element) | 1
    return [finalize64(g1 + i * stride) % params.m for i in range(params.k)]


class BloomFilter:
    """An m-bit vector programmed with byte-string elements.

    Bits live in a bytearray, LSB-first within each byte (bit i sits at
    byte i//8, position i%8) -- the same layout the image format uses.
    Programming is single-writer; a programmed filter may be queried from
    any number of threads concurrently.
    """

    def __init__(self, params: BloomParams, count_programmed: int = 0) -> None:
        self.params = params
        self.count_programmed = count_programmed
        self._bits = bytearray((params.m + 7) // 8)
        # numpy view sharing the bytearray's memory, used by batch paths
        self._bits_np = np.frombuffer(self._bits, dtype=np.uint8)

    def add(self, element: bytes) -> None:
        """Set the k bits of ``element`` and bump the programmed count.

        Duplicates are indistinguishable from first insertions, so the
        count tracks add calls, not distinct elements.
        """
        for i in hash_indices(self.params, element):
            self._bits[i >> 3] |= 1 << (i & 7)
        self.count_programmed += 1

    def add_many(self, elements: list[bytes]) -> None:
        """Add every element; same-length runs go through the batch path."""
        by_length: dict[int, list[bytes]] = {}
        for element in elements:
            if len(element) == 0:
                raise ValueError("element must be non-empty")
            by_length.setdefault(len(element), []).append(element)
        for length, group in by_length.items():
            rows = np.frombuffer(b"".join(group), dtype=np.uint8)
            rows = rows.reshape(len(group), length)
            g1 = mix64_matrix(self.params.seed_a, rows)
            stride = mix64_matrix(self.params.seed_b, rows) | np.uint64(1)
            for i in range(self.params.k):
                idx = self.probe_indices(g1, stride, i)
                np.bitwise_or.at(
                    self._bits_np, (idx >> np.uint64(3)).astype(np.int64),
                    np.left_shift(np.uint8(1),
                                  (idx & np.uint64(7)).astype(np.uint8)))
            self.count_programmed += len(group)

    def check(self, element: bytes) -> bool:
        """True iff all k bits of ``element`` are set. Never mutates."""
        for i in hash_indices(self.params, element):
            if not self._bits[i >> 3] & (1 << (i & 7)):
                return False
        return True

    def __contains__(self, element: bytes) -> bool:
        return self.check(element)

    def probe_indices(self, g1: np.ndarray, stride: np.ndarray,
                      i: int) -> np.ndarray:
        """Vectorized i-th probe: F(g1 + i*stride mod 2**64) mod m."""
        combined = g1 + np.uint64(i) * stride
        return _finalize(combined) % np.uint64(self.params.m)

    def test_bits(self, idx: np.ndarray) -> np.ndarray:
        """Boolean value of each bit position in ``idx`` (vectorized)."""
        bit = (self._bits_np[(idx >> np.uint64(3)).astype(np.int64)]
               >> (idx & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
        return bit.astype(bool)

    def check_many(self, elements: list[bytes]) -> list[bool]:
        """Batch ``check`` for a list of equal-length elements.

        Probes narrow down round by round, so later hash rounds only
        touch elements still alive after the earlier ones.
        """
        if not elements:
            return []
        length = len(elements[0])
        if any(len(e) != length for e in elements):
            raise ValueError("check_many requires equal-length elements")
        if length == 0:
            raise ValueError("element must be non-empty")
        rows = np.frombuffer(b"".join(elements), dtype=np.uint8).reshape(
            len(elements), length)
        g1 = mix64_matrix(self.params.seed_a, rows)
        stride = mix64_matrix(self.params.seed_b, rows) | np.uint64(1)
        alive = np.nonzero(self.test_bits(self.probe_indices(g1, stride, 0)))[0]
        for i in range(1, self.params.k):
            if alive.size == 0:
                break
            idx = self.probe_indices(g1[alive], stride[alive], i)
            alive = alive[self.test_bits(idx)]
        member = np.zeros(len(elements), dtype=bool)
        member[alive] = True
        return member.tolist()

    def popcount(self) -> int:
        """Number of set bits in the vector."""
        return int.from_bytes(self._bits, "little").bit_count()

    def vector_bytes(self) -> bytes:
        """The raw bit vector, ceil(m/8) bytes, LSB-first."""
        return bytes(self._bits)

    def to_image(self) -> bytes:
        """Serialize to the portable image format (header, vector, CRC32)."""
        p = self.params
        body = _IMAGE_HEADER.pack(IMAGE_MAGIC, IMAGE_VERSION, p.k, p.m,
                                  p.seed_a, p.seed_b, self.count_programmed)
        body += bytes(self._bits)
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
        filt._bits[:] = data[_IMAGE_HEADER.size : _IMAGE_HEADER.size + nbytes]
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
