"""The simulated interface-card data path: parse, match, selectively forward.

Every arriving frame is parsed and its payload scanned against the
programmed filters. Frames with at least one candidate window are
forwarded to the host (which then runs exact verification); frames that
cannot be parsed are forwarded too (fail-open -- the filter must never
create a blind spot); everything else is dropped at the card. Each
forwarded packet costs the host one interrupt, so ``forwarded`` doubles
as the interrupt count.

``compare_baseline`` is the one entry point. It decides a whole trace in
one batch pass with arrays -- a reason code, a candidate count and a
payload length per frame -- and runs the unfiltered host route beside
it. Only frames with candidate windows reach ``verify``, and only frames
with matches have detections, so a dropped frame costs numpy work and no
Python object. ``Decisions`` makes a ``DecisionRecord`` for a frame when
one is asked for. The test suite checks the decisions frame by frame
against the oracles in ``tests/conftest.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytics import columns_csv
# parse_packet stays bound here: bench/tracer.py wraps it by this name
from .codec import Trace, parse_packet, parse_payloads  # noqa: F401
from .signatures import CandidateMatch, Payloads, SignatureMatcher


class Verdict(Enum):
    FORWARD = "FORWARD"
    DROP = "DROP"


class Reason(Enum):
    MATCH_CANDIDATE = "MATCH_CANDIDATE"
    NON_PARSEABLE = "NON_PARSEABLE"
    CLEAN = "CLEAN"


REASONS = tuple(Reason)  # a reason code is its index here
_MATCH, _NON_PARSEABLE, _CLEAN = range(len(REASONS))


@dataclass
class PipelineStats:
    """Counters for one run; ``forwarded`` equals host interrupts."""

    total: int = 0
    forwarded: int = 0
    dropped: int = 0
    true_matches: int = 0
    false_positive_forwards: int = 0
    non_parseable_forwards: int = 0
    bytes_total: int = 0
    bytes_forwarded: int = 0
    reduction: float = 0.0  # 1 - forwarded/total
    equivalent: bool = False  # filtered detections equal unfiltered ones


@dataclass
class DecisionRecord:
    """Per-packet outcome of the card."""

    index: int
    reason: Reason
    candidate_count: int
    verified: list[CandidateMatch]
    payload_len: int

    @property
    def verdict(self) -> Verdict:
        return Verdict.DROP if self.reason is Reason.CLEAN else Verdict.FORWARD


@dataclass(eq=False)
class Decisions(Sequence):
    """The card's decisions over a trace, one array entry per frame.

    ``reason`` holds codes into ``REASONS``; ``verified`` holds the
    verified matches of the frames that have any. Indexing makes the
    frame's ``DecisionRecord``.
    """

    reason: np.ndarray  # uint8
    candidates: np.ndarray  # int64
    payload_len: np.ndarray  # int64
    verified: dict[int, tuple[CandidateMatch, ...]]

    def __len__(self) -> int:
        return self.reason.size

    def __getitem__(self, i: int) -> DecisionRecord:
        i = range(len(self))[i]
        return DecisionRecord(
            index=i, reason=REASONS[self.reason[i]],
            candidate_count=int(self.candidates[i]),
            verified=list(self.verified.get(i, ())),
            payload_len=int(self.payload_len[i]))


@dataclass
class BaselineReport:
    """Filtered-vs-unfiltered detection comparison for one trace.

    Both detection maps hold only the frames with matches, by frame index.
    """

    baseline_detections: dict[int, tuple[CandidateMatch, ...]]
    filtered_detections: dict[int, tuple[CandidateMatch, ...]]
    stats: PipelineStats
    forwarded: Trace
    records: Decisions  # one per frame, in file order


def compare_baseline(matcher: SignatureMatcher, trace: Trace) -> BaselineReport:
    """Run the card over a whole trace and check it against the host.

    Path (b), the card: each frame is decided on its own payload alone,
    and the forwarded trace keeps the original bytes and timestamps of
    exactly the frames it forwards; their verified matches are the
    filtered detections. Path (a): every frame goes to the host, which
    exact-matches every parseable payload. Equal detections mean the
    filter dropped nothing relevant.
    """
    # an unparseable frame is scanned as an empty payload: no window, no match
    start, end, unparseable = parse_payloads(trace)
    payloads = Payloads(np.frombuffer(trace.buf, dtype=np.uint8), start, end)
    candidates = matcher.scan_batch(payloads)
    filtered = {i: tuple(verified) for i, verified in
                candidates.confirmed(payloads, matcher.verify).items()}
    baseline = {i: tuple(matches) for i, matches in
                matcher.exact_matches_batch(payloads).items()}

    counts = candidates.counts()
    reason = np.where(unparseable, _NON_PARSEABLE,
                      np.where(counts > 0, _MATCH, _CLEAN)).astype(np.uint8)
    forward = reason != _CLEAN
    total, forwarded = len(trace), int(np.count_nonzero(forward))
    matched = int(np.count_nonzero(reason == _MATCH))
    stats = PipelineStats(
        total=total, forwarded=forwarded, dropped=total - forwarded,
        true_matches=len(filtered),
        false_positive_forwards=matched - len(filtered),
        non_parseable_forwards=int(np.count_nonzero(unparseable)),
        bytes_total=int(trace.caplen.sum(dtype=np.int64)),
        bytes_forwarded=int(trace.caplen[forward].sum(dtype=np.int64)),
        reduction=1.0 - forwarded / total if total else 0.0,
        equivalent=baseline == filtered)
    return BaselineReport(
        baseline_detections=baseline, filtered_detections=filtered,
        stats=stats, forwarded=trace.select(forward),
        records=Decisions(reason, counts, end - start, filtered))


def decision_log_csv(decisions: Decisions) -> bytes:
    """Render the decisions as CSV, one row per packet (``columns_csv``)."""
    labels = [f"{(Verdict.DROP if r is Reason.CLEAN else Verdict.FORWARD).value},"
              f"{r.value}" for r in REASONS]
    verified = np.zeros(len(decisions), dtype=np.int64)
    verified[list(decisions.verified)] = [len(v) for v in
                                          decisions.verified.values()]
    return columns_csv("index,verdict,reason,candidates,verified,payload_len",
                       (decisions.reason, labels), decisions.candidates,
                       verified, decisions.payload_len)
