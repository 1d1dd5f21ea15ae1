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
    hash_indices,
    optimal_k,
)
from .codec import (
    ParsedPacket,
    PcapError,
    RawFrame,
    Trace,
    parse_packet,
    read_pcap,
    write_pcap,
)
from .pipeline import (
    BaselineReport,
    DecisionRecord,
    PipelineStats,
    Reason,
    Verdict,
    compare_baseline,
    decision_log_csv,
    run_trace,
)
from .signatures import (
    CandidateMatch,
    ExactScanner,
    RuleParseError,
    Signature,
    SignatureMatcher,
    SignatureSet,
    load_rules,
)
from .traffic import Manifest, ManifestEntry, TrafficSpec, generate_trace
from .analytics import FprSweepRow, emit_csv, fpr_sweep

__version__ = "0.1.0"

__all__ = [
    "BloomFilter", "BloomParams", "FilterImageError", "FprEstimate",
    "fpr_theoretical", "hash_indices", "optimal_k",
    "ParsedPacket", "PcapError", "RawFrame", "Trace", "parse_packet",
    "read_pcap", "write_pcap",
    "BaselineReport", "DecisionRecord", "PipelineStats", "Reason",
    "Verdict", "compare_baseline", "decision_log_csv", "run_trace",
    "CandidateMatch", "ExactScanner", "RuleParseError", "Signature",
    "SignatureMatcher", "SignatureSet", "load_rules",
    "Manifest", "ManifestEntry", "TrafficSpec", "generate_trace",
    "FprSweepRow", "emit_csv", "fpr_sweep",
]
