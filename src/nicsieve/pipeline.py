"""The simulated interface-card data path: parse, match, selectively forward.

Every arriving frame is parsed and its payload scanned against the
programmed filters. Frames with at least one candidate window are
forwarded to the host (which then runs exact verification); frames that
cannot be parsed are forwarded too (fail-open -- the filter must never
create a blind spot); everything else is dropped at the card. Each
forwarded packet costs the host one interrupt, so ``forwarded`` doubles
as the interrupt count.

``compare_baseline`` is the one entry point. It decides a whole trace in
one batch pass, runs the unfiltered host route beside it, and returns
both, with one ``DecisionRecord`` per frame in ``records``. The test
suite checks the decisions frame by frame against the oracles in
``tests/conftest.py``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum

from .codec import RawFrame, Trace, parse_packet
from .signatures import CandidateMatch, SignatureMatcher


class Verdict(Enum):
    FORWARD = "FORWARD"
    DROP = "DROP"


class Reason(Enum):
    MATCH_CANDIDATE = "MATCH_CANDIDATE"
    NON_PARSEABLE = "NON_PARSEABLE"
    CLEAN = "CLEAN"


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


@dataclass
class BaselineReport:
    """Filtered-vs-unfiltered detection comparison for one trace."""

    baseline_detections: list[tuple[CandidateMatch, ...]]
    filtered_detections: list[tuple[CandidateMatch, ...]]
    equivalent: bool
    stats: PipelineStats
    reduction: float  # 1 - forwarded/total
    forwarded: Trace
    records: list[DecisionRecord]  # one per frame, in file order


def compare_baseline(matcher: SignatureMatcher, trace: Trace) -> BaselineReport:
    """Run the card over a whole trace and check it against the host.

    Path (b), the card: each frame is decided on its own payload alone,
    and the forwarded trace keeps the original bytes and timestamps of
    exactly the frames it forwards; their verified matches are the
    filtered detections. Path (a): every frame goes to the host, which
    exact-matches every parseable payload. Equal detections mean the
    filter dropped nothing relevant.
    """
    payloads = [parse_packet(frame) for frame in trace.frames]
    # an unparseable frame is scanned as an empty payload: no window, no match
    scanned = [b"" if p is None else p for p in payloads]
    stats = PipelineStats()
    forwarded: list[RawFrame] = []
    records: list[DecisionRecord] = []

    for index, (frame, payload, candidates) in enumerate(
            zip(trace.frames, scanned, matcher.scan_batch(scanned))):
        verified = matcher.verify(payload, candidates) if candidates else []
        if payloads[index] is None:
            reason = Reason.NON_PARSEABLE
        else:
            reason = Reason.MATCH_CANDIDATE if candidates else Reason.CLEAN

        stats.total += 1
        stats.bytes_total += len(frame.data)
        if reason is Reason.CLEAN:
            stats.dropped += 1
        else:
            stats.forwarded += 1
            stats.bytes_forwarded += len(frame.data)
            forwarded.append(frame)
            if reason is Reason.NON_PARSEABLE:
                stats.non_parseable_forwards += 1
            elif verified:
                stats.true_matches += 1
            else:
                stats.false_positive_forwards += 1
        records.append(DecisionRecord(
            index=index, reason=reason, candidate_count=len(candidates),
            verified=verified, payload_len=len(payload)))

    filtered = [tuple(rec.verified) for rec in records]
    baseline = [tuple(m) for m in matcher.exact_matches_batch(scanned)]
    reduction = 1.0 - stats.forwarded / stats.total if stats.total else 0.0
    return BaselineReport(
        baseline_detections=baseline, filtered_detections=filtered,
        equivalent=baseline == filtered, stats=stats, reduction=reduction,
        forwarded=Trace(frames=forwarded, ts_resolution=trace.ts_resolution),
        records=records)


def decision_log_csv(records: list[DecisionRecord]) -> bytes:
    """Render decision records as CSV (one row per packet)."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index", "verdict", "reason", "candidates", "verified",
                     "payload_len"])
    for rec in records:
        writer.writerow([rec.index, rec.verdict.value, rec.reason.value,
                         rec.candidate_count, len(rec.verified),
                         rec.payload_len])
    return out.getvalue().encode("utf-8")
