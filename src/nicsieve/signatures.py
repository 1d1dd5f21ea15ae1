"""Signature rules, per-length Bloom matchers, and payload scanning.

The matcher programs one filter per distinct pattern length, all with
the same parameters. One shared filter would hold every pattern too and
lose none; one per length is used because the card this models runs one
engine per length, and each length's window false-positive rate then
follows ``(1 - e^{-k n_L/m})^k`` for that length's own pattern count
n_L. A window of a programmed length that answers "member" at any
payload offset is a candidate. ``ExactScanner.confirm`` is the one place
a window is compared with the patterns and given its signature ids.

Two scanning routes exist and must agree: the Bloom route
(``SignatureMatcher.scan_batch``) finds candidates, complete but only
probably correct; the exact route (``ExactScanner.matches_batch``) finds
the true match set with a polynomial hash unrelated to the filter's
mixer, confirming every hit byte-for-byte. Both cut the payload list
into groups of whole payloads (``GROUP_BYTES`` at most, or one longer
payload), join each group into a ``_PayloadBlock``, and hash and probe
its windows with numpy in slices of ``SLICE_WINDOWS`` window starts, so
the working arrays stay cache-sized and do not grow with the trace.
Only the windows that pass the first test of a slice outlive it; those
inside one payload are finished per group and returned, one list per
payload in file order, through ``_PayloadBlock.collect``. Both hash each
byte column once for all lengths: a window's hash state after j bytes
is the same for every length of at least j bytes, so one running state
over a slice's window starts is advanced through the lengths in
ascending order (a ``WindowFold`` for the filters' mixer, a Horner
prefix for the exact route). The tests check both routes against the
independent per-payload oracles in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloom import BloomFilter, BloomParams, WindowFold, mix64_at, mix64_windows

PATTERN_MIN_LEN = 2
PATTERN_MAX_LEN = 64

_EXACT_MULT = 0x4C957F2D  # odd LCG multiplier, Horner hashing mod 2**32

# Scan working-set bounds: payload bytes per group, and window starts per
# slice, so that a slice's uint64 arrays (256 KiB each) stay in cache.
GROUP_BYTES = 256 * 1024
SLICE_WINDOWS = 32 * 1024


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
    offending line number. Lines end only at ``\n``, ``\r\n`` or ``\r``.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    signatures: list[Signature] = []
    seen_ids: set[str] = set()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.split(",", 2)
        if len(parts) != 3:
            raise RuleParseError(lineno, "expected 'id,encoding,value'")
        sig_id, encoding, value = parts[0].strip(), parts[1].strip().lower(), parts[2]
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
        try:
            signatures.append(Signature(id=sig_id, pattern=pattern))
        except ValueError as exc:
            raise RuleParseError(lineno, str(exc)) from None
        seen_ids.add(sig_id)
    return SignatureSet(signatures=signatures)


@dataclass(frozen=True, slots=True)
class CandidateMatch:
    """A window that may (offset/length only) or does (with id) match."""

    offset: int
    length: int
    signature_id: str | None = None


def _poly32_prefixes(buf: np.ndarray, lengths: list[int]):
    """Yield (length, Horner hash mod 2**32 of every ``length``-byte window).

    ``lengths`` ascend; each is reached by folding only the byte columns
    the previous one did not. A length longer than ``buf`` yields an
    empty array. Arithmetic mod 2**32 is enough: a prefilter table reads
    only the low ``ExactScanner._TABLE_BITS`` bits. The yielded array is
    overwritten by the next step, so use it before advancing.
    """
    state = np.zeros(buf.size, dtype=np.uint32)
    folded = 0
    for length in lengths:
        n = max(0, buf.size - length + 1)
        state = state[:n]
        for j in range(folded, length):
            state *= np.uint32(_EXACT_MULT)
            state += buf[j : j + n]
        folded = length
        yield length, state


def _payload_groups(payloads: list[bytes]):
    """Consecutive runs of payloads holding at most ``GROUP_BYTES`` bytes.

    A payload longer than that forms a group of its own. Windows never
    cross payloads, so the groups can be scanned one after another with
    no overlap.
    """
    ends = np.cumsum([len(p) for p in payloads], dtype=np.int64)
    start = 0
    while start < len(payloads):
        base = int(ends[start - 1]) if start else 0
        stop = int(ends.searchsorted(base + GROUP_BYTES, side="right"))
        stop = max(stop, start + 1)
        yield payloads[start:stop]
        start = stop


class _PayloadBlock:
    """One group of payloads joined end to end for vectorized window scans.

    ``ends[i]`` is the buffer offset just past payload i. Position ``pos``
    lies in payload ``ends.searchsorted(pos, side="right")``, the first
    one to end after it, so an empty payload is never found.
    """

    def __init__(self, payloads: list[bytes]) -> None:
        self.ends = np.cumsum([len(p) for p in payloads], dtype=np.int64)
        self.buf = np.frombuffer(b"".join(payloads), dtype=np.uint8)

    def slices(self, longest: int):
        """(offset, view) per run of ``SLICE_WINDOWS`` window starts.

        A view reaches ``longest - 1`` bytes past its last start, so it
        holds every window that starts in the run; the caller keeps only
        those. An empty buffer still gives one (empty) slice.
        """
        for a in range(0, max(self.buf.size, 1), SLICE_WINDOWS):
            yield a, self.buf[a : a + SLICE_WINDOWS + longest - 1]

    def same_payload(self, pos: np.ndarray, length: int) -> np.ndarray:
        """True where the window at ``pos`` does not cross a payload boundary."""
        return pos + length <= self.ends[self.ends.searchsorted(pos, side="right")]

    def collect(self, found) -> list[list[CandidateMatch]]:
        """(length, positions) pairs as per-payload candidates, by offset, length."""
        results: list[list[CandidateMatch]] = [[] for _ in self.ends]
        starts = np.concatenate(([0], self.ends[:-1]))
        for length, pos in found:
            owners = self.ends.searchsorted(pos, side="right")
            for pkt, off in zip(owners.tolist(), (pos - starts[owners]).tolist()):
                results[pkt].append(CandidateMatch(off, length))
        for matches in results:
            matches.sort(key=lambda c: (c.offset, c.length))
        return results


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
            joined = np.frombuffer(b"".join(s.pattern for s in group),
                                   dtype=np.uint8)
            _, window_hashes = next(_poly32_prefixes(joined, [length]))
            slots = window_hashes[::length]
            table[slots & np.uint32((1 << self._TABLE_BITS) - 1)] = True
            self._tables_by_length[length] = table

    def matches_batch(self, payloads: list[bytes]) -> list[list[CandidateMatch]]:
        """Vectorized exact matching: hash windows, confirm hits by bytes."""
        mask = np.uint32((1 << self._TABLE_BITS) - 1)
        lengths = sorted(self._tables_by_length)
        results = []
        for group in _payload_groups(payloads):
            block = _PayloadBlock(group)
            hits: dict[int, list[np.ndarray]] = {length: [] for length in lengths}
            for a, view in block.slices(lengths[-1]):
                for length, window_hashes in _poly32_prefixes(view, lengths):
                    table = self._tables_by_length[length]
                    hit = table.take(window_hashes[:SLICE_WINDOWS] & mask)
                    hits[length].append(np.nonzero(hit)[0] + a)
            found = []
            for length, parts in hits.items():
                pos = np.concatenate(parts)
                found.append((length, pos[block.same_payload(pos, length)]))
            results += [self.confirm(payload, windows) if windows else windows
                        for payload, windows in zip(group, block.collect(found))]
        return results

    def confirm(self, payload: bytes,
                candidates: list[CandidateMatch]) -> list[CandidateMatch]:
        """Keep windows whose bytes equal a pattern, one match per id, sorted."""
        confirmed = []
        for cand in candidates:
            if cand.offset < 0 or cand.offset + cand.length > len(payload):
                raise ValueError(
                    f"candidate at {cand.offset}+{cand.length} outside "
                    f"payload of {len(payload)} bytes")
            window = payload[cand.offset : cand.offset + cand.length]
            for sig_id in self.exact_index.get(window, ()):
                confirmed.append(CandidateMatch(cand.offset, cand.length, sig_id))
        confirmed.sort(key=lambda c: (c.offset, c.length, c.signature_id))
        return confirmed

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
        Images that lack a rule pattern (built from other rules) are
        refused: the card would drop every packet carrying it.
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
        missing: list[str] = []
        for length, group in sorted(groups.items()):
            member = filters[length].check_many([sig.pattern for sig in group])
            missing += [sig.id for sig, ok in zip(group, member) if not ok]
        if missing:
            raise ValueError(
                f"filter images are stale: no filter holds the pattern of "
                f"{', '.join(missing)}")
        return cls(params_seen.pop(), signature_set, filters)

    def filter_images(self) -> dict[int, bytes]:
        """Serialized image per programmed length."""
        return {length: filt.to_image() for length, filt in self.filters.items()}

    def scan_batch(self, payloads: list[bytes]) -> list[list[CandidateMatch]]:
        """Candidate windows of every programmed length, per payload, group by group."""
        results = []
        for group in _payload_groups(payloads):
            block = _PayloadBlock(group)
            survivors = self._first_probe_survivors(block)
            results += block.collect(
                (length, self._narrow(block, length, *survivors[length]))
                for length in self.lengths)
        return results

    def _first_probe_survivors(self, block: _PayloadBlock):
        """Per length: (start, g1) of the windows whose first probe bit is set.

        Round 0 tests every window, so it runs slice by slice: each
        slice's fold state, digests and probe temporaries are dropped
        once its survivors are kept. The first probe needs no stride.
        """
        seed = self.params.seed_a
        zero = np.zeros(1, dtype=np.uint64)  # broadcast: i=0 ignores the stride
        kept: dict[int, list] = {length: [] for length in self.lengths}
        for a, view in block.slices(self.lengths[-1]):
            fold = WindowFold(seed, view)
            for length in self.lengths:
                filt = self.filters[length]
                g1 = mix64_windows(seed, view, length, fold=fold)[:SLICE_WINDOWS]
                pos = np.nonzero(filt.test_bits(filt.probe_indices(g1, zero, 0)))[0]
                kept[length].append((pos + a, g1[pos]))
        return {length: [np.concatenate(arrays) for arrays in zip(*parts)]
                for length, parts in kept.items()}

    def _narrow(self, block: _PayloadBlock, length: int, pos: np.ndarray,
                g1: np.ndarray) -> np.ndarray:
        """The first-probe survivors at ``pos`` whose other probes hit too.

        Only windows inside one payload are kept. The second digest is
        gathered for those survivors only; with well-sized filters that
        is a small fraction of the windows.
        """
        inside = block.same_payload(pos, length)
        pos, g1 = pos[inside], g1[inside]
        if pos.size == 0 or self.params.k == 1:
            return pos
        stride = mix64_at(self.params.seed_b, block.buf, length, pos) | np.uint64(1)
        return pos[self.filters[length].narrow(g1, stride, 1)]

    def verify(self, payload: bytes,
               candidates: list[CandidateMatch]) -> list[CandidateMatch]:
        """Keep candidates whose bytes equal a pattern; attach each id."""
        return self.exact.confirm(payload, candidates)

    def exact_matches_batch(self, payloads: list[bytes]) -> list[list[CandidateMatch]]:
        return self.exact.matches_batch(payloads)
