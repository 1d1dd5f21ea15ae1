"""Signature rules, per-length Bloom matchers, and payload scanning.

The matcher holds one filter per distinct pattern length, each with its
own m and k and all with the same seeds. One shared filter would hold
every pattern too and lose none; one per length is used because the card
this models runs one engine per length, and each length's window false-
positive rate then follows ``(1 - e^{-kn/m})^k`` for its own filter and
pattern count n. A window of a programmed length that answers "member"
at any payload offset is a candidate. ``ExactScanner.confirm`` is the
one place a window is compared with the patterns and given its ids.

Two scanning routes exist and must agree: the Bloom route
(``SignatureMatcher.scan_batch``) finds candidates, complete but only
probably correct; the exact route (``ExactScanner.matches_batch``) finds
the true match set, confirming every hit byte-for-byte. Both walk a
``Payloads`` batch, bounds into one buffer (a capture's, as it was
read), through one window sieve, ``_sieve``, in cache-sized groups, and
hash windows with ``bloom``'s one byte fold. A window's fold state after
j bytes is the same for every length of at least j bytes, so each byte
column is folded once for all lengths, in ascending order, by
``bloom.fold_at``, the one fold driver. The sieve runs in two stages.
The dense stage tests every window start of a slice: the Bloom route
folds them all, a ``range``, and probes round 0 from the fold state
(``bloom.first_probes``); the exact route looks their first two bytes
up in its prefix table. Only the starts that pass outlive their slice,
in a survivor buffer that the survivor stage empties once per group, or
sooner if it fills, one numpy pass per length for many slices' worth.
There the Bloom route keeps the windows inside one payload and narrows
them through the other probes, and the exact route folds its starts, an
index array, under a seed of its own and keeps the windows its slot
table marks inside one payload (``ExactScanner``); it reads no filter
bit, filter seed or ``BloomParams``. Both routes
leave the sieve the same way, as ``Windows``: arrays of (payload,
offset, length) for the whole batch, sorted, with no Python object per
payload. The Bloom route returns them as its candidates;
``CandidateMatch`` objects are made only for the payloads that someone
asks about. ``Windows.confirmed`` is the one loop that turns windows
into matches: the exact route runs it with ``ExactScanner.confirm`` and
returns the matches of the payloads that have any, by payload index, and
the card's host runs it with ``SignatureMatcher.verify`` on the
candidates. The tests check both routes against the independent
per-payload oracles in ``tests/conftest.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloom import (BloomFilter, BloomParams, FilterImageError, fold_at,
                    fold_rows, mix64_at)
from .bloom import mix64_windows  # noqa: F401  (bench/tracer.py wraps it here)

PATTERN_MIN_LEN = 2
PATTERN_MAX_LEN = 64

_EXACT_SEED = 0  # the exact route's own fold seed, not a filter seed
_LENGTH_MULT = 0x9E3779B1  # odd: a window's length moves its hash's slot

# Scan working-set bounds: payload bytes per group, and window starts per
# slice (also the most payloads a group holds, and the survivor buffer's
# entries). A scan allocates its slice arrays and survivor buffer once
# (256 KiB each, 64-bit), so a group holds only its gathered bytes. On 2
# MiB of payloads shaped as many-len-hostile (10 lengths, 2,000 patterns;
# in-process, 15 alternating processes, best of 3 each, on a shared
# 2-vCPU VM), scan_batch took a median 179 ms with a 2.19 MiB traced peak,
# against 192 ms and 1.94 MiB when each slice's survivors were narrowed in
# their slice, and exact_matches_batch 23 against 33 ms, 1.39 MiB both.
# The buffer holds a slice's worth, not a group's: a group of this shape
# has about 125k round-0 survivors, 2 MiB with their states. Measured
# before the survivor stage, against 437 ms: slices of 16 Ki starts took
# 567 ms (1.21 MiB) and of 64 Ki 396 ms (3.62 MiB), while groups of 32 KiB
# to 1 MiB moved the time only within noise, 1 MiB groups peaking at 3.43
# MiB. The slice arrays must be reused: allocated per operation, each one
# is above glibc's 128 KiB mmap threshold, so it is mapped and faulted
# again on every use; a many-len-hostile scan child built that way took
# 54k minor faults against 6.7k, and 19% longer. Smaller slice temporaries
# fault too: the exact route's three 64 KiB prefix arrays, freed at the
# top of the heap, were trimmed and faulted back each slice in some heap
# layouts (2.5k faults a scan against 0.4k with one reused array). Scan
# children (posix_spawn launcher, 24 alternating pairs, outputs under
# paths of one length, as the heap layout moves the fault count), with
# the survivor stage against without: small-frames 0.196 against 0.211 s
# median, 35.3 against 35.0 MB, 8.4k against 8.2k minor faults;
# many-len-hostile 0.305 against 0.325 s, 34.3 against 34.0 MB, 6.9k
# against 6.8k.
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

    def by_length(self) -> dict[int, tuple[list[str], np.ndarray]]:
        """(ids, rows) of each pattern length, lengths in first-seen order.

        Row i of ``rows``, a 2-D uint8 array, is the pattern of ``ids[i]``,
        in rule order; a duplicate pattern keeps a row per id.
        """
        groups: dict[int, list[Signature]] = {}
        for sig in self.signatures:
            groups.setdefault(len(sig.pattern), []).append(sig)
        return {length: ([sig.id for sig in group],
                         np.frombuffer(b"".join(sig.pattern for sig in group),
                                       dtype=np.uint8).reshape(-1, length))
                for length, group in groups.items()}


def text_lines(text: bytes | str) -> list[str]:
    """The lines of UTF-8 text (rule files, filter indexes), BOM skipped.

    Lines end only at ``\n``, ``\r\n`` or ``\r``, unlike ``splitlines``.
    A byte that is not UTF-8 raises ``RuleParseError`` naming its line.
    """
    if isinstance(text, bytes):
        text = text.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = text[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            bad, line = text[exc.start], head.count(b"\n") + 1
            raise RuleParseError(line, f"byte 0x{bad:02X} is not valid UTF-8") from None
    text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def load_rules(text: bytes | str) -> SignatureSet:
    """Parse rule text: one ``id,encoding,value`` per line (``text_lines``).

    ``encoding`` is ``ascii`` (value taken literally) or ``hex``. Lines
    starting with ``#`` and blank lines are skipped. All errors carry the
    offending line number.
    """
    signatures: list[Signature] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(text_lines(text), start=1):
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


@dataclass(eq=False)
class Payloads:
    """A batch of payloads: payload i is ``buf[starts[i] : ends[i]]``.

    The bounds ascend and do not overlap, and they may leave gaps, so
    the payloads of a capture are scanned where they lie, with no copy
    per payload. Indexing gives a payload's bytes; iterating, each
    payload as a numpy view, which only ``bench/tracer.py`` reads.
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

    def blocks(self, max_payloads: int, max_bytes: int):
        """(first, stop) runs of whole payloads that tile the batch in order.

        Each run is as long as it can be with at most ``max_payloads``
        payloads and ``max_bytes`` payload bytes; a longer payload is a
        run of its own.
        """
        first = 0
        while first < len(self):
            ahead = slice(first, first + max_payloads)
            sizes = np.cumsum(self.ends[ahead] - self.starts[ahead])
            stop = first + max(int(sizes.searchsorted(max_bytes, side="right")), 1)
            yield first, stop
            first = stop

    def gather(self, first: int, stop: int, at: np.ndarray) -> Payloads:
        """Payloads ``first`` to ``stop`` joined end to end in a new buffer.

        Only the payload bytes are gathered, never the gaps between them,
        through a running-sum source index built ``SLICE_WINDOWS`` bytes
        at a time in ``at``, an int64 array of at least that many entries,
        or of the joined size if that is less (``_sieve`` passes one array
        for a whole scan, see ``GROUP_BYTES``). The index of a whole 256 KiB
        group took 2 MiB, and was no faster: all the gathers of a scan took
        9.9 against 9.3 ms on the many-len-hostile capture, 10.3 against
        11.1 on small-frames, and 10.6 against 11.5 on 200k payloads of
        1-10 bytes (best of 9, in-process). Joining one view per non-empty
        payload took 1.5, 14.1 and 121.5 ms: it pays per payload.
        """
        src = self.starts[first:stop]
        lengths = self.ends[first:stop] - src
        ends = np.cumsum(lengths)
        starts = ends - lengths
        buf = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
        if at.size < min(buf.size, SLICE_WINDOWS):
            raise ValueError(f"a {at.size}-entry index cannot hold a slice "
                             f"of {min(buf.size, SLICE_WINDOWS)} bytes")
        # the source index steps by one per byte, and by one plus the gap
        # at each non-empty payload's first byte; a slice's steps start
        # from the source of its first byte and are summed in place
        nonempty = lengths > 0
        begin, shift = starts[nonempty], (src - starts)[nonempty]
        for a in range(0, buf.size, SLICE_WINDOWS):
            step = at[: min(SLICE_WINDOWS, buf.size - a)]
            step.fill(1)
            # the payload that holds byte a, and the first that begins
            # after the slice
            p = int(begin.searchsorted(a, side="right")) - 1
            q = int(begin.searchsorted(a + step.size))
            step[begin[p + 1 : q] - a] += np.diff(shift[p:q])
            step[0] = a + shift[p]
            self.buf.take(np.cumsum(step, out=step), out=buf[a : a + step.size])
        return Payloads(buf, starts, ends)


@dataclass(eq=False)
class Windows:
    """Windows found in a batch of ``size`` payloads, one row per window.

    Row r is the window of ``length[r]`` bytes at ``offset[r]`` in
    payload ``payload[r]``. Rows are sorted by payload, offset and
    length. Iterating gives the windows of each payload as
    ``CandidateMatch`` objects, made on access; only ``bench/tracer.py``
    iterates a ``Windows``.
    """

    size: int
    payload: np.ndarray  # int64
    offset: np.ndarray
    length: np.ndarray

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

    def confirmed(self, payloads: Payloads, confirm
                  ) -> dict[int, list[CandidateMatch]]:
        """``confirm(payload, windows)`` of each payload that has windows.

        ``payloads`` is the batch the windows were found in. Returns the
        confirmed matches of each payload that has any, by payload index
        in ascending order.
        """
        matches: dict[int, list[CandidateMatch]] = {}
        for i, windows in self.by_payload().items():
            confirmed = confirm(payloads[i], windows)
            if confirmed:
                matches[i] = confirmed
        return matches


def _owners(group: Payloads, pos: np.ndarray) -> np.ndarray:
    """The payload of ``group`` that holds each byte position in ``pos``."""
    # the first payload to end after a position holds it, so an empty
    # payload never holds a window
    return group.ends.searchsorted(pos, side="right")


def _inside(group: Payloads, length: int, pos: np.ndarray) -> np.ndarray:
    """Whether each ``length``-byte window at ``pos`` lies in one payload."""
    return pos + length <= group.ends[_owners(group, pos)]


class _Survivors:
    """A scan's survivor buffer, of ``pos.size`` entries, allocated once.

    An entry is a window start's position in its group, kept in ``pos``
    (an int64 array), and, with ``digests``, its fold state. Each key's
    entries lie in runs, in the order they were added.
    """

    def __init__(self, pos: np.ndarray, digests: bool) -> None:
        self.pos = pos
        self.state = np.empty(pos.size, dtype=np.uint64) if digests else None
        self.runs: dict = {}  # key -> [(start, stop), ...]
        self.fill = 0

    def add(self, key, pos: np.ndarray, offset: int,
            state: np.ndarray | None) -> None:
        """Add the starts ``pos + offset`` and, with digests, ``state[pos]``."""
        a, b = self.fill, self.fill + pos.size
        np.add(pos, offset, out=self.pos[a:b])
        if self.state is not None:
            state.take(pos, out=self.state[a:b])
        runs = self.runs.setdefault(key, [])
        if runs and runs[-1][1] == a:
            runs[-1] = (runs[-1][0], b)
        else:
            runs.append((a, b))
        self.fill = b

    def drain(self, survive, group: Payloads):
        """Yield from ``survive(group, key, positions, states or None)`` for
        each key, its entries joined in the order they were added, and
        empty the buffer. ``survive`` holds the only reference to the
        joined arrays, so it can free them as it goes."""
        for key, runs in self.runs.items():
            yield from survive(group, key, _joined(self.pos, runs),
                               None if self.state is None
                               else _joined(self.state, runs))
        self.runs = {}
        self.fill = 0


def _joined(column: np.ndarray, runs: list[tuple[int, int]]) -> np.ndarray:
    """The entries of ``column`` in ``runs``, as one array (a view of one run)."""
    if len(runs) == 1:
        return column[runs[0][0] : runs[0][1]]
    return np.concatenate([column[a:b] for a, b in runs])


def _sieve(payloads: Payloads, lengths: list[int], dense, survive,
           digests: bool = False) -> Windows:
    """The windows of ``payloads`` that pass a route's two stages.

    The batch is cut into groups of consecutive whole payloads, at most
    ``GROUP_BYTES`` payload bytes and ``SLICE_WINDOWS`` payloads each (a
    longer payload is a group of its own), so neither a group's bytes
    nor its per-payload arrays grow with the capture. A group's payload
    bytes are gathered (``Payloads.gather``) and walked in slices of
    ``SLICE_WINDOWS`` window starts, each slice's bytes widened to uint64
    into one array that every slice reuses.

    The dense stage runs per slice: ``dense(view, run)`` yields (key,
    pos, state) for the windows that start in the first ``run`` entries
    of ``view`` and pass the route's first test, ``pos`` their starts in
    ascending order and, with ``digests``, ``state`` the slice's fold
    states, read at ``pos``. Those survivors go into a buffer of
    ``SLICE_WINDOWS`` entries, allocated once per scan (``_Survivors``).
    The survivor stage runs on the buffer at the end of each group, and
    before an addition that would overflow it, so numpy's cost per call
    is paid per group rather than per slice: ``survive(group, key, pos,
    state)`` gets each key's survivors, in position order, with the
    group's gathered uint8 bytes, and yields (length, pos) for the
    windows it keeps, each inside one payload (``_inside``). A flush may
    come between two keys of a slice, so ``survive`` must leave
    ``dense``'s arrays alone.
    Windows never cross payloads, so the groups need no overlap.
    """
    empty = np.zeros(0, dtype=np.int64)
    if not lengths:
        return Windows(len(payloads), empty, empty, empty)
    rows = [(empty, empty, empty)]  # (payload, offset, length) per flush
    # one slice's arrays, reused by every slice: the gathers' index, and
    # the slice's bytes widened, so that no fold step casts a byte
    at = np.empty(SLICE_WINDOWS, dtype=np.int64)
    wide = np.empty(SLICE_WINDOWS + lengths[-1] - 1, dtype=np.uint64)
    # a group is gathered only while the buffer is empty, so the buffer
    # keeps its positions in the gathers' index
    survivors = _Survivors(at, digests)

    def flush(first, group):
        for length, pos in survivors.drain(survive, group):
            if pos.size:
                owner = _owners(group, pos)
                rows.append((owner + first, pos - group.starts[owner],
                             np.full(pos.size, length, dtype=np.int64)))

    for first, stop in payloads.blocks(SLICE_WINDOWS, GROUP_BYTES):
        group = payloads.gather(first, stop, at)
        # a view reaches ``lengths[-1] - 1`` bytes past its run, so it holds
        # every window that starts in the run; an empty group gives one
        # empty view
        for a in range(0, max(group.buf.size, 1), SLICE_WINDOWS):
            piece = group.buf[a : a + wide.size]
            view = wide[: piece.size]
            np.copyto(view, piece)
            for key, pos, state in dense(view, SLICE_WINDOWS):
                if not pos.size:
                    continue
                # a key's survivors in one slice are at most a slice's
                # starts, so they fit once the buffer is flushed
                if survivors.fill + pos.size > at.size:
                    flush(first, group)
                survivors.add(key, pos, a, state)
        flush(first, group)
    payload, offset, length = (np.concatenate(c) for c in zip(*rows))
    order = np.lexsort((length, offset, payload))
    return Windows(len(payloads), payload[order], offset[order], length[order])


class ExactScanner:
    """The ground-truth route: exact multi-pattern matching, no filters.

    Two tables stand before the byte comparison. A window start passes
    the first only if its two bytes begin some pattern (every pattern
    has two, as ``PATTERN_MIN_LEN`` is 2); only those starts are hashed,
    and a window passes the second only if its ``fold_at`` state under
    ``_EXACT_SEED`` and its length mark a slot that some pattern of that
    length marked. A window that passes both is confirmed byte-for-byte,
    so neither table can add or lose a match, whatever the seed. The
    slot table is packed, one bit a slot, LSB-first within each byte.
    """

    # shared hash-table size, in slots (bits), over all lengths
    _TABLE_BITS = 20

    def __init__(self, signature_set: SignatureSet) -> None:
        # duplicate patterns keep every id, in rule order
        self.exact_index: dict[bytes, tuple[str, ...]] = {}
        for sig in signature_set.signatures:
            ids = self.exact_index.get(sig.pattern, ())
            self.exact_index[sig.pattern] = ids + (sig.id,)
        groups = signature_set.by_length()
        self.lengths = sorted(groups)
        self._prefixes = np.zeros(1 << 16, dtype=bool)
        self._table = np.zeros(1 << (self._TABLE_BITS - 3), dtype=np.uint8)
        for length, (_, rows) in groups.items():
            self._prefixes[rows[:, 1].astype(np.int64) << 8 | rows[:, 0]] = True
            slots = self._slots(length, fold_rows(_EXACT_SEED, rows))
            np.bitwise_or.at(self._table, slots >> 3,
                             np.left_shift(1, slots & 7).astype(np.uint8))

    def _slots(self, length: int, state: np.ndarray) -> np.ndarray:
        """The shared-table slot of each ``length``-byte window's fold state."""
        mask = np.uint64((1 << self._TABLE_BITS) - 1)
        return ((state + np.uint64(length * _LENGTH_MULT)) & mask).view(np.int64)

    def _in_table(self, length: int, state: np.ndarray) -> np.ndarray:
        """Whether each ``length``-byte window's slot is marked in the table."""
        slots = self._slots(length, state)
        byte = self._table.take(slots >> 3)
        return (byte >> (slots & 7).astype(np.uint8) & 1).view(bool)

    def matches_batch(self, payloads: Payloads
                      ) -> dict[int, list[CandidateMatch]]:
        """Vectorized exact matching: sieve windows, confirm hits by bytes.

        Returns the matches of each payload that has any, by payload
        index in ascending order.
        """
        prefixes = self._prefixes
        # one slice's arrays, overwritten by every slice of the scan (see
        # GROUP_BYTES): each start's first two bytes as one prefix-table
        # index, and whether the table holds it
        pair = np.empty(SLICE_WINDOWS, dtype=np.uint64)
        hit = np.empty(SLICE_WINDOWS, dtype=bool)

        def marked(view, run):
            n = max(0, min(run, view.size - 1))
            np.left_shift(view[1 : n + 1], np.uint64(8), out=pair[:n])
            np.bitwise_or(pair[:n], view[:n], out=pair[:n])
            yield None, np.flatnonzero(prefixes.take(
                pair[:n].view(np.int64), out=hit[:n], mode="clip")), None

        def known(group, _, pos, __):
            for length, at, state in fold_at(_EXACT_SEED, group.buf, pos,
                                             self.lengths):
                at = at[self._in_table(length, state)]
                yield length, at[_inside(group, length, at)]

        windows = _sieve(payloads, self.lengths, marked, known)
        return windows.confirmed(payloads, self.confirm)

    def confirm(self, payload: bytes,
                candidates: list[CandidateMatch]) -> list[CandidateMatch]:
        """Keep windows whose bytes equal a pattern, one match per id.

        Matches are sorted by (offset, length, signature id), so the ids
        of rules that share a pattern come in id order at each window,
        not in rule order.
        """
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

    def contains_any_batch(self, payloads: Payloads) -> np.ndarray:
        """Per payload: does any pattern occur anywhere in it?"""
        found = np.zeros(len(payloads), dtype=bool)
        found[list(self.matches_batch(payloads))] = True
        return found


class SignatureMatcher:
    """Programmed per-length filters plus the exact route for verification.

    Filters keep their own m and k under shared ``seeds``, (seed_a,
    seed_b). Programming happens once in ``program``; afterwards the
    matcher is immutable and safe for concurrent scanning. The exact
    route's two tables (192 KiB whatever the rule set) are built
    on first use (``exact``), so programming and saving never pay for them.
    """

    def __init__(self, signature_set: SignatureSet,
                 filters: dict[int, BloomFilter]) -> None:
        if not filters:
            raise ValueError("a matcher needs at least one filter")
        seeds = {n: (f.params.seed_a, f.params.seed_b) for n, f in filters.items()}
        if len(set(seeds.values())) != 1:
            raise ValueError("filters must share seed_a and seed_b: " + ", ".join(
                f"length {n} has {pair}" for n, pair in sorted(seeds.items())))
        (self.seeds,) = set(seeds.values())
        self.signature_set = signature_set
        self.filters = filters
        self.lengths = sorted(filters)

    @cached_property
    def exact(self) -> ExactScanner:
        """The exact route over the same rules: verification and baselines."""
        return ExactScanner(self.signature_set)

    @classmethod
    def program(cls, signature_set: SignatureSet,
                params: BloomParams = BloomParams()) -> SignatureMatcher:
        """Build and program one filter per distinct pattern length."""
        if len(signature_set) == 0:
            raise ValueError("signature set is empty")
        filters = {}
        for length, (_, rows) in signature_set.by_length().items():
            filters[length] = BloomFilter(params)
            filters[length].add_many(rows)
        return cls(signature_set, filters)

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
            raise ValueError(f"image lengths {sorted(images)} do not match "
                             f"rule lengths {sorted(groups)}")
        filters = {}
        missing: list[str] = []
        for length, (ids, rows) in sorted(groups.items()):
            try:
                filters[length] = filt = BloomFilter.from_image(images[length])
            except FilterImageError as exc:
                raise FilterImageError(f"length-{length} image: {exc}") from None
            if filt.count_programmed != len(ids):
                raise ValueError(f"length-{length} image programmed with "
                                 f"{filt.count_programmed} elements, rules "
                                 f"have {len(ids)}")
            member = filt.check_many(rows)
            missing += [i for i, ok in zip(ids, member) if not ok]
        if missing:
            raise ValueError("filter images are stale: no filter holds the "
                             f"pattern of {', '.join(missing)}")
        return cls(signature_set, filters)

    def filter_images(self) -> dict[int, bytes]:
        """Serialized image per programmed length."""
        return {length: filt.to_image() for length, filt in self.filters.items()}

    def scan_batch(self, payloads: Payloads) -> Windows:
        """Candidate windows of every programmed length.

        The sieve's dense stage folds every window start under seed_a
        into one slice's arrays, allocated once per scan, and probes round
        0 from the fold state (``BloomFilter.first_hits``), which needs no
        digest and no stride. The survivors wait, with their fold states,
        for the survivor stage, which keeps those inside one payload, a
        small fraction with well-sized filters, and, where a filter has
        more rounds, makes their g1 and stride and narrows them through
        the rest: ``mix64_at`` and ``BloomFilter.narrow`` run once per
        length and group, not per slice.
        """
        seed_a, seed_b = self.seeds
        # one slice's arrays, overwritten by every slice of the scan: the
        # fold state, round-0 index, temporary and hits of the run's starts
        state, idx, tmp = (np.empty(SLICE_WINDOWS, dtype=np.uint64)
                           for _ in range(3))
        hit = np.empty(SLICE_WINDOWS, dtype=bool)

        def first_probe(view, run):
            for length, at, folded in fold_at(seed_a, view, range(run),
                                              self.lengths, state):
                n = len(at)
                yield length, np.flatnonzero(self.filters[length].first_hits(
                    folded, hit[:n], idx[:n], tmp[:n])), folded

        def other_probes(group, length, pos, folded):
            inside = _inside(group, length, pos)
            pos, folded = pos[inside], folded[inside]
            filt = self.filters[length]
            if filt.params.k > 1 and pos.size:
                stride = mix64_at(seed_b, group.buf, length, pos) | np.uint64(1)
                pos = pos[filt.narrow(folded, stride)]
            yield length, pos

        return _sieve(payloads, self.lengths, first_probe, other_probes,
                      digests=True)

    def verify(self, payload: bytes,
               candidates: list[CandidateMatch]) -> list[CandidateMatch]:
        """Keep candidates whose bytes equal a pattern; attach each id."""
        return self.exact.confirm(payload, candidates)

    def exact_matches_batch(self, payloads: Payloads
                            ) -> dict[int, list[CandidateMatch]]:
        return self.exact.matches_batch(payloads)
