"""The simulated interface-card data path: parse, match, selectively forward.

Every arriving frame is parsed and its payload scanned against the
programmed filters. Frames with at least one candidate window are
forwarded to the host (which then runs exact verification); frames that
cannot be parsed are forwarded too (fail-open -- the filter must never
create a blind spot); everything else is dropped at the card. Each
forwarded packet costs the host one interrupt, so ``forwarded`` doubles
as the interrupt count.

Decisions are made in one batch pass per trace; the test suite checks
them frame by frame against the oracles in ``tests/conftest.py``.
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
    """Per-packet outcome, collected when a log list is passed in."""

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


def run_trace(matcher: SignatureMatcher, trace: Trace,
              log: list[DecisionRecord] | None = None,
              ) -> tuple[PipelineStats, Trace]:
    """Run the card over a whole trace, in file order.

    Each frame is decided on its own payload alone. The forwarded trace
    keeps the original bytes and timestamps of exactly those frames.
    """
    payloads = [parse_packet(frame) for frame in trace.frames]
    return _run_parsed(matcher, trace, payloads, log)


def _run_parsed(matcher: SignatureMatcher, trace: Trace,
                payloads: list[bytes | None],
                log: list[DecisionRecord] | None) -> tuple[PipelineStats, Trace]:
    stats = PipelineStats()
    forwarded_frames: list[RawFrame] = []

    candidate_lists = iter(matcher.scan_batch(
        [p for p in payloads if p is not None]))

    for index, (frame, payload) in enumerate(zip(trace.frames, payloads)):
        candidates: list[CandidateMatch] = []
        verified: list[CandidateMatch] = []
        if payload is None:
            reason = Reason.NON_PARSEABLE
        else:
            candidates = next(candidate_lists)
            reason = Reason.MATCH_CANDIDATE if candidates else Reason.CLEAN
        if candidates:
            verified = matcher.verify(payload, candidates)

        stats.total += 1
        stats.bytes_total += len(frame.data)
        if reason is Reason.CLEAN:
            stats.dropped += 1
        else:
            stats.forwarded += 1
            stats.bytes_forwarded += len(frame.data)
            forwarded_frames.append(frame)
            if reason is Reason.NON_PARSEABLE:
                stats.non_parseable_forwards += 1
            elif verified:
                stats.true_matches += 1
            else:
                stats.false_positive_forwards += 1

        if log is not None:
            log.append(DecisionRecord(
                index=index, reason=reason, candidate_count=len(candidates),
                verified=verified,
                payload_len=0 if payload is None else len(payload)))

    return stats, Trace(frames=forwarded_frames, link_type=trace.link_type)


def compare_baseline(matcher: SignatureMatcher, trace: Trace,
                     log: list[DecisionRecord] | None = None) -> BaselineReport:
    """Run both paths and compare their per-packet detection sets.

    Path (a): every frame goes to the host, which exact-matches every
    parseable payload. Path (b): the filtered pipeline, whose forwarded
    packets carry verified matches. Equal detections mean the filter
    dropped nothing relevant. Records are appended to ``log``; only the
    ones this call appends are compared.
    """
    if log is None:
        log = []
    first = len(log)
    payloads = [parse_packet(frame) for frame in trace.frames]
    stats, forwarded = _run_parsed(matcher, trace, payloads, log)
    filtered = [tuple(rec.verified) for rec in log[first:]]

    baseline = [tuple(m) for m in matcher.exact_matches_batch(
        [b"" if p is None else p for p in payloads])]

    reduction = 1.0 - stats.forwarded / stats.total if stats.total else 0.0
    return BaselineReport(
        baseline_detections=baseline, filtered_detections=filtered,
        equivalent=baseline == filtered, stats=stats, reduction=reduction,
        forwarded=forwarded)


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
