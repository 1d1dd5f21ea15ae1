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
mixer, confirming every hit byte-for-byte. Both take the batch as
``Payloads``, bounds into one buffer (a capture's, as it was read), cut
it into groups of whole payloads (``GROUP_BYTES`` payload bytes and
``SLICE_WINDOWS`` payloads at most, or one longer payload), gather each
group's payload bytes into a ``_PayloadBlock``, and hash and probe its
windows with numpy in slices of ``SLICE_WINDOWS`` window starts, so the
working arrays stay cache-sized and do not grow with the trace. Only the
windows that pass the first test of a slice outlive it; those inside one
payload are finished per group. The Bloom route returns them as
``Windows``: arrays of (payload, offset, length), sorted, with no Python
object per payload; ``CandidateMatch`` objects are made only for the
payloads that someone asks about. The exact route confirms its windows
group by group and returns the matches of the payloads that have any, by
payload index. Both hash each byte column once for
all lengths: a window's hash state after j bytes is the same for every
length of at least j bytes, so one running state over a slice's window
starts is advanced through the lengths in ascending order (a
``WindowFold`` for the filters' mixer, a Horner prefix for the exact
route). The tests check both routes against the independent
per-payload oracles in ``tests/conftest.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bloom import BloomFilter, BloomParams, WindowFold, mix64_at, mix64_windows

PATTERN_MIN_LEN = 2
PATTERN_MAX_LEN = 64

_EXACT_MULT = 0x4C957F2D  # odd LCG multiplier, Horner hashing mod 2**32

# Scan working-set bounds: payload bytes per group, and window starts per
# slice (also the most payloads a group holds), so that a slice's uint64
# arrays and a group's per-payload arrays (256 KiB each) stay in cache.
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


@dataclass(eq=False)
class Payloads:
    """A batch of payloads: payload i is ``buf[starts[i] : ends[i]]``.

    The bounds ascend and do not overlap, and they may leave gaps, so
    the payloads of a capture are scanned where they lie, with no copy
    per payload.
    Iterating yields each payload as a numpy view; indexing, its bytes.
    """

    buf: np.ndarray  # uint8
    starts: np.ndarray  # int64
    ends: np.ndarray

    @classmethod
    def of(cls, payloads: Sequence[bytes]) -> Payloads:
        """The payloads joined end to end in a new buffer."""
        lengths = np.array([len(p) for p in payloads], dtype=np.int64)
        ends = np.cumsum(lengths)
        return cls(np.frombuffer(b"".join(payloads), dtype=np.uint8),
                   ends - lengths, ends)

    def __len__(self) -> int:
        return self.starts.size

    def __getitem__(self, i: int) -> bytes:
        i = range(len(self))[i]
        return self.buf[self.starts[i] : self.ends[i]].tobytes()

    def __iter__(self):
        buf = self.buf
        return (buf[a:b] for a, b in zip(self.starts.tolist(), self.ends.tolist()))


def _as_payloads(payloads: Payloads | Sequence[bytes]) -> Payloads:
    return payloads if isinstance(payloads, Payloads) else Payloads.of(payloads)


def _int_column(parts) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=np.int64), *parts])


@dataclass(eq=False)
class Windows:
    """Windows found in a batch of ``size`` payloads, one row per window.

    Row r is the window of ``length[r]`` bytes at ``offset[r]`` in
    payload ``payload[r]``. Rows are sorted by payload, offset and
    length. Indexing or iterating gives the windows of each payload as
    ``CandidateMatch`` objects, made on access.
    """

    size: int
    payload: np.ndarray  # int64
    offset: np.ndarray
    length: np.ndarray

    @classmethod
    def sorted_rows(cls, size: int, rows) -> Windows:
        """Windows from unsorted (payload, offset, length) array triples."""
        columns = list(zip(*rows)) or [(), (), ()]
        payload, offset, length = (_int_column(c) for c in columns)
        order = np.lexsort((length, offset, payload))
        return cls(size, payload[order], offset[order], length[order])

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> list[CandidateMatch]:
        i = range(self.size)[i]
        a, b = self.payload.searchsorted([i, i + 1])
        return [CandidateMatch(o, n) for o, n in
                zip(self.offset[a:b].tolist(), self.length[a:b].tolist())]

    def __iter__(self):
        found = self.by_payload()
        return (found.get(i, []) for i in range(self.size))

    def counts(self) -> np.ndarray:
        """Windows per payload."""
        return np.bincount(self.payload, minlength=self.size)

    def by_payload(self) -> dict[int, list[CandidateMatch]]:
        """The windows of each payload that has any, in payload order."""
        out: dict[int, list[CandidateMatch]] = {}
        for p, o, n in zip(self.payload.tolist(), self.offset.tolist(),
                           self.length.tolist()):
            out.setdefault(p, []).append(CandidateMatch(o, n))
        return out


def _payload_groups(payloads: Payloads):
    """(first, stop) of consecutive payloads to scan as one group.

    A group holds at most ``GROUP_BYTES`` payload bytes and at most
    ``SLICE_WINDOWS`` payloads, so neither its bytes nor its per-payload
    arrays grow with the capture, however many empty payloads it has; a
    payload longer than ``GROUP_BYTES`` forms a group of its own.
    Windows never cross payloads, so the groups can be scanned one after
    another with no overlap.
    """
    start = 0
    while start < len(payloads):
        ahead = slice(start, start + SLICE_WINDOWS)
        sizes = np.cumsum(payloads.ends[ahead] - payloads.starts[ahead])
        stop = start + max(int(sizes.searchsorted(GROUP_BYTES, side="right")), 1)
        yield start, stop
        start = stop


class _PayloadBlock:
    """Payloads ``first`` to ``stop`` gathered end to end for window scans.

    ``starts[i]``/``ends[i]`` bound the group's payload i in ``buf``.
    Position ``pos`` lies in payload ``ends.searchsorted(pos, side="right")``,
    the first one to end after it, so an empty payload is never found.
    """

    def __init__(self, payloads: Payloads, first: int, stop: int) -> None:
        src = payloads.starts[first:stop]
        lengths = payloads.ends[first:stop] - src
        self.first = first
        self.ends = np.cumsum(lengths)
        self.starts = self.ends - lengths
        # gather the payload bytes only, never the gaps between them: the
        # source index steps by one per byte, and by one plus the gap at
        # each payload's first byte; summing the steps in place needs no
        # second index-sized array
        nonempty = lengths > 0
        at = np.ones(int(self.ends[-1]), dtype=np.int64)
        at[self.starts[nonempty]] += np.diff((src - self.starts)[nonempty],
                                             prepend=1)
        self.buf = payloads.buf[np.cumsum(at, out=at)]

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

    def locate(self, pos: np.ndarray, length: int):
        """(payload, offset, length) rows of the windows at block positions ``pos``."""
        owners = self.ends.searchsorted(pos, side="right")
        return (owners + self.first, pos - self.starts[owners],
                np.full(pos.size, length, dtype=np.int64))


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

    def matches_batch(self, payloads: Payloads | Sequence[bytes]
                      ) -> dict[int, list[CandidateMatch]]:
        """Vectorized exact matching: hash windows, confirm hits by bytes.

        Returns the matches of each payload that has any, by payload
        index in ascending order.
        """
        payloads = _as_payloads(payloads)
        mask = np.uint32((1 << self._TABLE_BITS) - 1)
        lengths = sorted(self._tables_by_length)
        matches: dict[int, list[CandidateMatch]] = {}
        for first, stop in _payload_groups(payloads):
            block = _PayloadBlock(payloads, first, stop)
            hits: dict[int, list[np.ndarray]] = {length: [] for length in lengths}
            for a, view in block.slices(lengths[-1]):
                for length, window_hashes in _poly32_prefixes(view, lengths):
                    table = self._tables_by_length[length]
                    hit = table.take(window_hashes[:SLICE_WINDOWS] & mask)
                    hits[length].append(np.nonzero(hit)[0] + a)
            rows = []
            for length, parts in hits.items():
                pos = np.concatenate(parts)
                rows.append(block.locate(pos[block.same_payload(pos, length)],
                                         length))
            found = Windows.sorted_rows(stop, rows)
            for i, windows in found.by_payload().items():
                confirmed = self.confirm(payloads[i], windows)
                if confirmed:
                    matches[i] = confirmed
        return matches

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

    def contains_any_batch(self, payloads: Payloads | Sequence[bytes]) -> np.ndarray:
        """Per payload: does any pattern occur anywhere in it?"""
        payloads = _as_payloads(payloads)
        found = np.zeros(len(payloads), dtype=bool)
        found[list(self.matches_batch(payloads))] = True
        return found


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

    def scan_batch(self, payloads: Payloads | Sequence[bytes]) -> Windows:
        """Candidate windows of every programmed length, group by group."""
        payloads = _as_payloads(payloads)
        rows = []
        for first, stop in _payload_groups(payloads):
            block = _PayloadBlock(payloads, first, stop)
            survivors = self._first_probe_survivors(block)
            rows += [block.locate(self._narrow(block, length, *survivors[length]),
                                  length)
                     for length in self.lengths]
        return Windows.sorted_rows(len(payloads), rows)

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

    def exact_matches_batch(self, payloads: Payloads | Sequence[bytes]
                            ) -> dict[int, list[CandidateMatch]]:
        return self.exact.matches_batch(payloads)
