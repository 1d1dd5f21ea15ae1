"""The benchmark's metrics, and the per-layer figures derived from spans.

``END_TO_END`` are what a user of ``nicsieve`` sees, measured on runs
without tracing; ``PER_LAYER`` come from a traced run. Each per-layer
metric names the end-to-end metric and the workloads it should move, so
a change to one layer can be checked against the right end-to-end row.
``BENCHMARK.json`` at the repository root mirrors these two tables.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from tracer import OBSERVE


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric @ workloads this one should move
    bound: float | None = None  # end-to-end only: allowed worsening share


SCAN_WORKLOADS = "small-frames, many-len-hostile"

END_TO_END = (
    Metric("setup_s", "s", "lower", "median wall time of `nicsieve build` "
           "(import, rules parse, programming, image write)", 0.25),
    Metric("gen_pkts_per_s", "pkt/s", "higher",
           "frames / fastest wall time of `nicsieve gen` in the run", 0.25),
    Metric("scan_pkts_per_s", "pkt/s", "higher",
           "frames / fastest wall time of `nicsieve scan` in the run", 0.25),
    Metric("scan_mb_per_s", "MB/s", "higher",
           "payload bytes / the same scan wall time", 0.25),
    Metric("scan_peak_rss_mb", "MB", "lower",
           "median peak RSS of the scan child, from its rusage", 0.1),
    Metric("host_forward_ratio", "ratio", "lower",
           "forwarded / total from the scan report (host load)", 0.1),
    Metric("sweep_queries_per_s", "query/s", "higher",
           "trials x cells / fastest wall time of `nicsieve sweep`", 0.25),
)

# Reported with the others but kept out of BENCHMARK.json, whose metrics
# must never read 0; the result line's attempted/failed carry it too.
FAILED_FRAC = Metric("failed_frac", "ratio", "lower",
                     "operations failing the correctness gate / attempted")

_PKT = "scan_pkts_per_s @ small-frames (little on many-len-hostile)"
_BYTE = "scan_mb_per_s @ many-len-hostile (little on small-frames)"
_RSS = "scan_peak_rss_mb @ many-len-hostile"
_FWD = "scan_pkts_per_s, host_forward_ratio @ many-len-hostile"
_GEN = "gen_pkts_per_s @ small-frames (per frame), many-len-hostile (per byte)"
_SETUP = "setup_s @ many-len-hostile"
_SWEEP = "sweep_queries_per_s @ small-frames"
_CLI = f"scan_pkts_per_s @ {SCAN_WORKLOADS}"

PER_LAYER = (
    Metric("codec.read_s", "s", "lower", _PKT),
    Metric("codec.parse_s", "s", "lower", _PKT),
    Metric("codec.parse_calls", "count", "lower", _PKT),
    Metric("codec.unparseable", "count", "lower", _PKT),
    Metric("codec.write_s", "s", "lower", _PKT),
    Metric("pipeline.self_s", "s", "lower", _PKT),
    Metric("bloom.window_hash_s", "s", "lower", _BYTE),
    Metric("bloom.window_hash_byte_steps", "count", "lower", _BYTE),
    Metric("bloom.probe_s", "s", "lower", _BYTE),
    Metric("bloom.probes", "count", "lower", _BYTE),
    Metric("signatures.exact_s", "s", "lower", _BYTE),
    Metric("signatures.scan_batch_self_s", "s", "lower", _BYTE),
    Metric("codec.read_rss_mb", "MB", "lower", _RSS),
    Metric("signatures.scan_rss_mb", "MB", "lower", _RSS),
    Metric("signatures.exact_rss_mb", "MB", "lower", _RSS),
    Metric("signatures.windows", "count", "lower", _FWD),
    Metric("signatures.first_probe_survivors", "count", "lower", _FWD),
    Metric("signatures.candidates", "count", "lower", _FWD),
    Metric("signatures.verified", "count", "higher", _FWD),
    Metric("signatures.survivor_ratio", "ratio", "lower", _FWD),
    Metric("signatures.candidate_precision", "ratio", "higher", _FWD),
    Metric("signatures.window_fpr", "ratio", "lower", _FWD),
    Metric("signatures.window_fpr_vs_theory", "ratio", "lower", _FWD),
    Metric("bloom.fill_vs_theory", "ratio", "lower", _FWD),
    Metric("bloom.gather_hash_s", "s", "lower", _FWD),
    Metric("signatures.verify_s", "s", "lower", _FWD),
    Metric("pipeline.decision_log_s", "s", "lower", _FWD),
    Metric("pipeline.irq_per_s_filtered", "1/s", "lower", _FWD),
    Metric("pipeline.irq_per_s_unfiltered", "1/s", "lower", _FWD),
    Metric("traffic.generate_s", "s", "lower", _GEN),
    Metric("traffic.frame_build_s", "s", "lower", _GEN),
    Metric("traffic.resample_rounds", "count", "lower", _GEN),
    Metric("signatures.program_s", "s", "lower", _SETUP),
    Metric("bloom.add_s", "s", "lower", _SETUP),
    Metric("bloom.check_many_s", "s", "lower", _SWEEP),
    Metric("analytics.sweep_self_s", "s", "lower", _SWEEP),
    Metric("analytics.max_abs_z", "sigma", "lower", _SWEEP),
    Metric("cli.scan_s", "s", "lower", _CLI),
    Metric("cli.self_s", "s", "lower", _CLI),
    Metric("trace_overhead_frac", "ratio", "lower",
           f"none: traced vs untraced scan wall time @ {SCAN_WORKLOADS}"),
)


def benchmark_json_metrics() -> dict[str, list[dict]]:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    return {
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


class StepTrace:
    """Spans and counts of one traced child, with self and total times."""

    def __init__(self, dump: dict) -> None:
        spans = dump["spans"]
        self.counts = dump["counts"]
        self.rss_mb = dump["rss_mb"]
        self.info = dump["info"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        root_ns = 0
        for i, (name, start, end, parent, observe_ns) in enumerate(spans):
            self.self_ns[name] += end - start - child_ns[i] - observe_ns
            self.self_ns[OBSERVE] += observe_ns
            self.total_ns[name] += end - start
            self.calls[name] += 1
            if parent < 0:
                root_ns += end - start
        if sum(self.self_ns.values()) != root_ns:
            raise ValueError("span self times do not add up to their roots")

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def by_length(self, key: str) -> dict[int, int]:
        out = {}
        for name, value in self.counts.items():
            stem, _, length = name.partition("@")
            if stem == key:
                out[int(length)] = value
        return out


def per_length_table(scan: StepTrace) -> dict[int, dict]:
    """Per pattern length: filter fill and window outcomes against theory."""
    windows = scan.by_length("windows")
    survivors = scan.by_length("first_probe_survivors")
    candidates = scan.by_length("candidates")
    verified = scan.by_length("verified")
    table = {}
    for length_text, f in scan.info["filters"].items():
        length = int(length_text)
        m, k, n = f["m"], f["k"], f["n"]
        p_zero = math.exp(-k * n / m)
        fpr = (1.0 - p_zero) ** k
        true_pos = verified.get(length, 0)
        negatives = windows.get(length, 0) - true_pos
        false_pos = candidates.get(length, 0) - true_pos
        expected = negatives * fpr
        spread = math.sqrt(negatives * fpr * (1.0 - fpr))
        table[length] = {
            "n": n, "m": m, "k": k, "popcount": f["popcount"],
            "fill": f["popcount"] / m, "fill_theory": 1.0 - p_zero,
            "windows": windows.get(length, 0),
            "first_probe_survivors": survivors.get(length, 0),
            "candidates": candidates.get(length, 0), "verified": true_pos,
            "false_positive_windows": false_pos,
            "window_fpr": false_pos / negatives if negatives else 0.0,
            "window_fpr_theory": fpr,
            "expected_false_positive_windows": expected,
            "z": (false_pos - expected) / spread if spread else 0.0,
        }
    return table


def per_layer_values(build: StepTrace, gen: StepTrace, scan: StepTrace,
                     sweep: StepTrace) -> dict[str, float]:
    """Every per-layer metric except the overhead, from one traced cycle."""
    table = per_length_table(scan).values()
    windows = sum(r["windows"] for r in table)
    survivors = sum(r["first_probe_survivors"] for r in table)
    candidates = sum(r["candidates"] for r in table)
    verified = sum(r["verified"] for r in table)
    false_pos = sum(r["false_positive_windows"] for r in table)
    negatives = windows - verified
    expected_fp = sum(r["expected_false_positive_windows"] for r in table)
    popcount = sum(r["popcount"] for r in table)
    fill_theory = sum(r["fill_theory"] * r["m"] for r in table)
    trace_s = scan.counts.get("trace_span_usec", 0) / 1e6
    return {
        "codec.read_s": scan.self_s("codec.read_pcap"),
        "codec.parse_s": scan.self_s("codec.parse_packet"),
        "codec.parse_calls": scan.calls["codec.parse_packet"],
        "codec.unparseable": scan.counts.get("unparseable", 0),
        "codec.write_s": scan.self_s("codec.write_pcap"),
        "pipeline.self_s": scan.self_s("pipeline.compare_baseline"),
        "bloom.window_hash_s": scan.self_s("bloom.mix64_windows"),
        "bloom.window_hash_byte_steps": scan.counts.get("window_hash_byte_steps", 0),
        "bloom.probe_s": scan.self_s("bloom.BloomFilter.probe_indices",
                                     "bloom.BloomFilter.test_bits"),
        "bloom.probes": scan.counts.get("probes", 0),
        "signatures.exact_s": scan.total_s(
            "signatures.SignatureMatcher.exact_matches_batch"),
        "signatures.scan_batch_self_s": scan.self_s(
            "signatures.SignatureMatcher.scan_batch"),
        "codec.read_rss_mb": scan.rss_mb["codec.read_pcap"],
        "signatures.scan_rss_mb": scan.rss_mb["signatures.SignatureMatcher.scan_batch"],
        "signatures.exact_rss_mb": scan.rss_mb[
            "signatures.SignatureMatcher.exact_matches_batch"],
        "signatures.windows": windows,
        "signatures.first_probe_survivors": survivors,
        "signatures.candidates": candidates,
        "signatures.verified": verified,
        "signatures.survivor_ratio": survivors / windows if windows else 0.0,
        "signatures.candidate_precision": verified / candidates if candidates else 0.0,
        "signatures.window_fpr": false_pos / negatives if negatives else 0.0,
        "signatures.window_fpr_vs_theory": false_pos / expected_fp if expected_fp else 0.0,
        "bloom.fill_vs_theory": popcount / fill_theory if fill_theory else 0.0,
        "bloom.gather_hash_s": scan.self_s("bloom.mix64_at"),
        "signatures.verify_s": scan.self_s("signatures.SignatureMatcher.verify"),
        "pipeline.decision_log_s": scan.self_s("pipeline.decision_log_csv"),
        "pipeline.irq_per_s_filtered":
            scan.counts.get("forwarded", 0) / trace_s if trace_s else 0.0,
        "pipeline.irq_per_s_unfiltered":
            scan.counts.get("frames", 0) / trace_s if trace_s else 0.0,
        "traffic.generate_s": gen.total_s("traffic.generate_trace"),
        "traffic.frame_build_s": gen.self_s("traffic.build_tcp_frame"),
        "traffic.resample_rounds": gen.counts.get("resample_rounds", 0),
        "signatures.program_s": build.total_s("signatures.SignatureMatcher.program"),
        "bloom.add_s": build.total_s("bloom.BloomFilter.add_many"),
        "bloom.check_many_s": sweep.total_s("bloom.BloomFilter.check_many"),
        "analytics.sweep_self_s": sweep.self_s("analytics.fpr_sweep"),
        "analytics.max_abs_z": sweep.info.get("max_abs_z", 0.0),
        "cli.scan_s": scan.total_s("cli.cmd_scan"),
        "cli.self_s": scan.self_s("cli.cmd_scan"),
    }
