"""Signature rules, per-length Bloom matchers, and payload scanning.

Patterns of different byte lengths cannot share one filter without
losing the no-false-negative guarantee, so the matcher programs one
filter per distinct pattern length (all sharing the same parameters) and
slides a window of each length across the payload at every offset. A
window that answers "member" becomes a candidate; candidates are then
verified against the exact pattern table, which removes Bloom false
positives and attaches signature ids.

Two scanning routes exist and must agree:

* the Bloom route (``SignatureMatcher.scan_batch``) finds candidate
  windows, complete but only probably correct;
* the exact route (``ExactScanner.matches_batch``) finds the true
  multi-pattern match set, hashing windows with a polynomial hash
  unrelated to the filter's mixer and confirming every hit byte-for-byte.

Both sweep all payloads of a trace at once with numpy (windows never
cross payload boundaries). The test suite checks them against the
independent per-payload oracles in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloom import MASK64, BloomFilter, BloomParams, mix64_at, mix64_windows

PATTERN_MIN_LEN = 2
PATTERN_MAX_LEN = 64

_EXACT_MULT = 0x5851F42D4C957F2D  # odd 64-bit LCG multiplier, Horner hashing


class RuleParseError(ValueError):
    """A rule file problem; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Signature:
    """One attack pattern: a unique id and 2..64 raw bytes to look for."""

    id: str
    pattern: bytes

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("signature id must be non-empty")
        if not PATTERN_MIN_LEN <= len(self.pattern) <= PATTERN_MAX_LEN:
            raise ValueError(
                f"pattern length {len(self.pattern)} outside "
                f"{PATTERN_MIN_LEN}..{PATTERN_MAX_LEN}")


@dataclass
class SignatureSet:
    """All loaded signatures; ids unique, duplicate patterns allowed."""

    signatures: list[Signature]

    def __post_init__(self) -> None:
        seen = set()
        for sig in self.signatures:
            if sig.id in seen:
                raise ValueError(f"duplicate signature id {sig.id!r}")
            seen.add(sig.id)

    def __len__(self) -> int:
        return len(self.signatures)

    def by_length(self) -> dict[int, list[Signature]]:
        groups: dict[int, list[Signature]] = {}
        for sig in self.signatures:
            groups.setdefault(len(sig.pattern), []).append(sig)
        return groups


def load_rules(text: bytes | str) -> SignatureSet:
    """Parse rule text: one ``id,encoding,value`` per line.

    ``encoding`` is ``ascii`` (value taken literally) or ``hex``. Lines
    starting with ``#`` and blank lines are skipped. All errors carry the
    offending line number.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    signatures: list[Signature] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.rstrip("\r\n").split(",", 2)
        if len(parts) != 3:
            raise RuleParseError(lineno, "expected 'id,encoding,value'")
        sig_id, encoding, value = parts[0].strip(), parts[1].strip().lower(), parts[2]
        if not sig_id:
            raise RuleParseError(lineno, "empty signature id")
        if sig_id in seen_ids:
            raise RuleParseError(lineno, f"duplicate id {sig_id!r}")
        if encoding == "hex":
            try:
                pattern = bytes.fromhex(value.strip())
            except ValueError:
                raise RuleParseError(lineno, f"bad hex value {value.strip()!r}") from None
        elif encoding == "ascii":
            pattern = value.encode("utf-8")
        else:
            raise RuleParseError(lineno, f"unknown encoding {encoding!r}")
        if not PATTERN_MIN_LEN <= len(pattern) <= PATTERN_MAX_LEN:
            raise RuleParseError(
                lineno, f"pattern length {len(pattern)} outside "
                        f"{PATTERN_MIN_LEN}..{PATTERN_MAX_LEN}")
        seen_ids.add(sig_id)
        signatures.append(Signature(id=sig_id, pattern=pattern))
    return SignatureSet(signatures=signatures)


@dataclass(frozen=True, slots=True)
class CandidateMatch:
    """A window that may (offset/length only) or does (with id) match."""

    offset: int
    length: int
    signature_id: str | None = None


def _match_key(c: CandidateMatch) -> tuple:
    return (c.offset, c.length, c.signature_id or "")


def _poly64(data: bytes) -> int:
    h = 0
    for b in data:
        h = (h * _EXACT_MULT + b) & MASK64
    return h


def _poly64_windows(buf: np.ndarray, length: int) -> np.ndarray:
    n = buf.size - length + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    wide = buf.astype(np.uint64, copy=False)
    state = np.zeros(n, dtype=np.uint64)
    for j in range(length):
        state *= np.uint64(_EXACT_MULT)
        state += wide[j : j + n]
    return state


class _PayloadBlock:
    """Payloads concatenated for whole-trace vectorized window scans."""

    def __init__(self, payloads: list[bytes]) -> None:
        lengths = np.fromiter((len(p) for p in payloads), dtype=np.int64,
                              count=len(payloads))
        self.starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]
        self.owner = np.repeat(np.arange(len(payloads), dtype=np.int64), lengths)
        raw = np.frombuffer(b"".join(payloads), dtype=np.uint8)
        self.buf = raw.astype(np.uint64)  # widened once, sliced per window column

    def same_payload(self, pos: np.ndarray, length: int) -> np.ndarray:
        """Keep window start positions that do not cross a payload boundary."""
        if pos.size == 0:
            return pos
        return pos[self.owner[pos] == self.owner[pos + length - 1]]

    def locate(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map buffer positions to (payload index, offset within payload)."""
        owners = self.owner[pos]
        return owners, pos - self.starts[owners]


def _bloom_candidate_positions(filt: BloomFilter, block: _PayloadBlock,
                               length: int) -> np.ndarray:
    """Window start positions whose k filter bits are all set.

    The first probe needs no stride, so the second digest is computed via
    gather for first-probe survivors only; with well-sized filters that
    is a small fraction of the windows.
    """
    params = filt.params
    g1 = mix64_windows(params.seed_a, block.buf, length)
    zero = np.zeros(1, dtype=np.uint64)  # broadcast: i=0 ignores the stride
    pos = np.nonzero(filt.test_bits(filt.probe_indices(g1, zero, 0)))[0]
    pos = block.same_payload(pos, length)
    if pos.size == 0 or params.k == 1:
        return pos
    stride = mix64_at(params.seed_b, block.buf, length, pos) | np.uint64(1)
    g1 = g1[pos]
    alive = np.arange(pos.size)
    for i in range(1, params.k):
        idx = filt.probe_indices(g1[alive], stride[alive], i)
        alive = alive[filt.test_bits(idx)]
        if alive.size == 0:
            break
    return pos[alive]


class ExactScanner:
    """The ground-truth route: exact multi-pattern matching, no filters."""

    # hash-prefilter table size; windows whose hashed slot is unmarked
    # cannot match, marked ones are confirmed byte-for-byte
    _TABLE_BITS = 20

    def __init__(self, signature_set: SignatureSet) -> None:
        # duplicate patterns keep every id, in rule order
        self.exact_index: dict[bytes, tuple[str, ...]] = {}
        for sig in signature_set.signatures:
            ids = self.exact_index.get(sig.pattern, ())
            self.exact_index[sig.pattern] = ids + (sig.id,)
        self._tables_by_length: dict[int, np.ndarray] = {}
        for length, group in signature_set.by_length().items():
            table = np.zeros(1 << self._TABLE_BITS, dtype=bool)
            slots = np.fromiter((_poly64(s.pattern) for s in group),
                                dtype=np.uint64, count=len(group))
            table[slots & np.uint64((1 << self._TABLE_BITS) - 1)] = True
            self._tables_by_length[length] = table

    def matches_batch(self, payloads: list[bytes]) -> list[list[CandidateMatch]]:
        """Vectorized exact matching: hash windows, confirm hits by bytes."""
        results: list[list[CandidateMatch]] = [[] for _ in payloads]
        if not payloads:
            return results
        block = _PayloadBlock(payloads)
        mask = np.uint64((1 << self._TABLE_BITS) - 1)
        for length, table in sorted(self._tables_by_length.items()):
            window_hashes = _poly64_windows(block.buf, length)
            if window_hashes.size == 0:
                continue
            hit = table[window_hashes & mask]
            pos = block.same_payload(np.nonzero(hit)[0], length)
            owners, offsets = block.locate(pos)
            for pkt, off in zip(owners.tolist(), offsets.tolist()):
                window = payloads[pkt][off : off + length]
                for sig_id in self.exact_index.get(window, ()):
                    results[pkt].append(CandidateMatch(off, length, sig_id))
        for matches in results:
            matches.sort(key=_match_key)
        return results

    def contains_any_batch(self, payloads: list[bytes]) -> list[bool]:
        """Per payload: does any pattern occur anywhere in it?"""
        return [bool(m) for m in self.matches_batch(payloads)]


class SignatureMatcher:
    """Programmed per-length filters plus the exact table for verification.

    Programming happens once in ``program``; afterwards the matcher is
    immutable and safe for concurrent scanning.
    """

    def __init__(self, params: BloomParams, signature_set: SignatureSet,
                 filters: dict[int, BloomFilter]) -> None:
        self.params = params
        self.signature_set = signature_set
        self.filters = filters
        self.lengths = sorted(filters)
        self.exact = ExactScanner(signature_set)

    @classmethod
    def program(cls, signature_set: SignatureSet,
                params: BloomParams | None = None) -> SignatureMatcher:
        """Build and program one filter per distinct pattern length."""
        if len(signature_set) == 0:
            raise ValueError("signature set is empty")
        params = params or BloomParams()
        filters: dict[int, BloomFilter] = {}
        for length, group in signature_set.by_length().items():
            filt = BloomFilter(params)
            filt.add_many([sig.pattern for sig in group])
            filters[length] = filt
        return cls(params, signature_set, filters)

    @classmethod
    def from_images(cls, signature_set: SignatureSet,
                    images: dict[int, bytes]) -> SignatureMatcher:
        """Rebuild a matcher from serialized filter images plus the rules.

        The images carry only the programmed vectors; the rule set
        supplies the patterns the host needs for exact verification.
        """
        if len(signature_set) == 0:
            raise ValueError("signature set is empty")
        groups = signature_set.by_length()
        if set(images) != set(groups):
            raise ValueError(
                f"image lengths {sorted(images)} do not match "
                f"rule lengths {sorted(groups)}")
        filters = {length: BloomFilter.from_image(img)
                   for length, img in images.items()}
        params_seen = {f.params for f in filters.values()}
        if len(params_seen) != 1:
            raise ValueError("filter images carry inconsistent parameters")
        for length, filt in filters.items():
            if filt.count_programmed != len(groups[length]):
                raise ValueError(
                    f"length-{length} image programmed with "
                    f"{filt.count_programmed} elements, rules have "
                    f"{len(groups[length])}")
        return cls(params_seen.pop(), signature_set, filters)

    def filter_images(self) -> dict[int, bytes]:
        """Serialized image per programmed length."""
        return {length: filt.to_image() for length, filt in self.filters.items()}

    def scan_batch(self, payloads: list[bytes]) -> list[list[CandidateMatch]]:
        """Candidate windows of every programmed length, per payload, in one pass."""
        results: list[list[CandidateMatch]] = [[] for _ in payloads]
        if not payloads:
            return results
        block = _PayloadBlock(payloads)
        for length in self.lengths:
            pos = _bloom_candidate_positions(self.filters[length], block, length)
            owners, offsets = block.locate(pos)
            for pkt, off in zip(owners.tolist(), offsets.tolist()):
                results[pkt].append(CandidateMatch(offset=off, length=length))
        for matches in results:
            matches.sort(key=lambda c: (c.offset, c.length))
        return results

    def verify(self, payload: bytes,
               candidates: list[CandidateMatch]) -> list[CandidateMatch]:
        """Keep candidates whose bytes equal a pattern; attach each id."""
        verified = []
        for cand in candidates:
            if cand.offset < 0 or cand.offset + cand.length > len(payload):
                raise ValueError(
                    f"candidate at {cand.offset}+{cand.length} outside "
                    f"payload of {len(payload)} bytes")
            window = payload[cand.offset : cand.offset + cand.length]
            for sig_id in self.exact.exact_index.get(window, ()):
                verified.append(CandidateMatch(cand.offset, cand.length, sig_id))
        verified.sort(key=_match_key)
        return verified

    def exact_matches_batch(self, payloads: list[bytes]) -> list[list[CandidateMatch]]:
        return self.exact.matches_batch(payloads)
