"""nicsieve: a Bloom-filter packet prefilter for intrusion detection, in software.

Simulates a programmable network interface that matches packet payloads
against attack signatures on the card and forwards only suspicious (or
undecodable) traffic to the host, together with the traffic generation
and measurement tooling needed to evaluate it.

``import nicsieve`` loads no submodule: each name below is imported from
its module the first time it is asked for (PEP 562), so a program that
uses one module does not pay for the others.
"""

import importlib

_EXPORTS = {
    "bloom": ("BloomFilter", "BloomParams", "FilterImageError", "FprEstimate",
              "fpr_theoretical", "optimal_k"),
    "codec": ("PcapError", "RawFrame", "Trace", "parse_packet",
              "parse_payloads", "read_pcap", "write_pcap"),
    "pipeline": ("BaselineReport", "Decisions", "PipelineStats", "Reason",
                 "compare_baseline", "decision_log_csv"),
    "signatures": ("CandidateMatch", "ExactScanner", "Payloads",
                   "RuleParseError", "Signature", "SignatureMatcher",
                   "SignatureSet", "Windows", "load_rules"),
    "traffic": ("Manifest", "TrafficSpec", "generate_trace"),
    "analytics": ("FprSweepRow", "emit_csv", "fpr_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def _lazy_names(namespace: dict, module_of: dict[str, str]):
    """A module ``__getattr__`` for the module whose globals are ``namespace``.

    It imports each name of ``module_of`` from the nicsieve module given
    there the first time the name is asked for, and binds it in
    ``namespace``, so later lookups find it there without a call.
    """
    def lookup(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(f"{__name__}.{module}"), name)
        return value
    return lookup


__getattr__ = _lazy_names(globals(), _MODULE_OF)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
