"""nicsieve: a Bloom-filter packet prefilter for intrusion detection, in software.

Simulates a programmable network interface that matches packet payloads
against attack signatures on the card and forwards only suspicious (or
undecodable) traffic to the host, together with the traffic generation
and measurement tooling needed to evaluate it.
"""

from .bloom import (
    BloomFilter,
    BloomParams,
    FilterImageError,
    FprEstimate,
    fpr_theoretical,
    optimal_k,
)
from .codec import (
    PcapError,
    RawFrame,
    Trace,
    parse_packet,
    parse_payloads,
    read_pcap,
    write_pcap,
)
from .pipeline import (
    BaselineReport,
    DecisionRecord,
    Decisions,
    PipelineStats,
    Reason,
    Verdict,
    compare_baseline,
    decision_log_csv,
)
from .signatures import (
    CandidateMatch,
    ExactScanner,
    Payloads,
    RuleParseError,
    Signature,
    SignatureMatcher,
    SignatureSet,
    Windows,
    load_rules,
)
from .traffic import Manifest, TrafficSpec, generate_trace
from .analytics import FprSweepRow, emit_csv, fpr_sweep

__version__ = "0.1.0"

__all__ = [
    "BloomFilter", "BloomParams", "FilterImageError", "FprEstimate",
    "fpr_theoretical", "optimal_k",
    "PcapError", "RawFrame", "Trace", "parse_packet", "parse_payloads",
    "read_pcap", "write_pcap",
    "BaselineReport", "DecisionRecord", "Decisions", "PipelineStats",
    "Reason", "Verdict", "compare_baseline", "decision_log_csv",
    "CandidateMatch", "ExactScanner", "Payloads", "RuleParseError",
    "Signature", "SignatureMatcher", "SignatureSet", "Windows", "load_rules",
    "Manifest", "TrafficSpec", "generate_trace",
    "FprSweepRow", "emit_csv", "fpr_sweep",
]
