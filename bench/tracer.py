"""Traced ``nicsieve`` run: spans and counts around each layer's public calls.

Run as ``python3 bench/tracer.py SPANS_OUT nicsieve-args...`` with the
program's ``src`` on ``PYTHONPATH``. It wraps the public functions of
every module where their caller looks them up (``nicsieve.pipeline.
parse_packet``, ``nicsieve.signatures.mix64_windows``, methods on their
classes), runs ``nicsieve.cli.main`` unchanged, and on exit writes the
spans and counts it kept in memory to SPANS_OUT as JSON.

A span is (name, start ns, end ns, parent span, ns spent taking counts);
every span in one file shares the file's run id. Counts are taken from
the arguments and return values of the wrapped calls. The time spent
taking them is charged to ``bench.observe`` inside the enclosing span,
so that program layers' self times exclude it and still add up to their
root span.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict

OBSERVE = "bench.observe"


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, observe_ns]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.rss_mb: dict[str, float] = {}
        self.info: dict[str, object] = {}

    def wrap(self, name, fn, observe=None, rss=False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None or rss:
                if observe is not None:
                    observe(self, args, result)
                if rss:
                    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    self.rss_mb[name] = max(self.rss_mb.get(name, 0.0), peak)
                if stack:
                    spans[stack[-1]][4] += clock() - span[2]
            return result
        return traced

    def dump(self, path: str, run_id: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run": run_id, "spans": self.spans, "counts": self.counts,
                       "rss_mb": self.rss_mb, "info": self.info}, fh)


# --- observers: counts from the arguments and returns of wrapped calls ---

def _parsed(t, args, result):
    if result is None:
        t.counts["unparseable"] += 1


def _window_hash(t, args, result):
    _, buf, length = args[:3]
    t.counts["window_hash_byte_steps"] += max(0, buf.size - length + 1) * length


def _gather(t, args, result):
    length, positions = args[2], args[3]
    t.counts[f"first_probe_survivors@{length}"] += int(positions.size)


def _probe(t, args, result):
    t.counts["probes"] += int(result.size)


def _scan_batch(t, args, result):
    matcher, payloads = args[0], args[1]
    sizes = [len(p) for p in payloads]
    for length in matcher.lengths:
        t.counts[f"windows@{length}"] += sum(s - length + 1 for s in sizes
                                             if s >= length)
    for matches in result:
        for cand in matches:
            t.counts[f"candidates@{cand.length}"] += 1


def _verify(t, args, result):
    for offset, length in {(c.offset, c.length) for c in result}:
        t.counts[f"verified@{length}"] += 1


def _matcher_loaded(t, args, result):
    t.info["filters"] = {
        str(length): {"m": f.params.m, "k": f.params.k,
                      "n": f.count_programmed, "popcount": f.popcount()}
        for length, f in result.filters.items()}


def _compared(t, args, result):
    frames = args[1].frames
    if frames:
        first, last = frames[0], frames[-1]
        t.counts["trace_span_usec"] += ((last.ts_sec - first.ts_sec) * 1_000_000
                                        + last.ts_usec - first.ts_usec)
    t.counts["frames"] += result.stats.total
    t.counts["forwarded"] += result.stats.forwarded


def _resample(t, args, result):
    t.counts["resample_rounds"] += 1


def _swept(t, args, result):
    zs = [abs(r.fpr_empirical - r.fpr_theory) / r.std_err
          for r in result if r.std_err > 0]
    t.info["max_abs_z"] = max(zs, default=0.0)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls where their callers look them up."""
    from nicsieve import analytics, cli, pipeline, signatures, traffic
    from nicsieve.bloom import BloomFilter
    from nicsieve.signatures import ExactScanner, SignatureMatcher

    def patch(module, attr, layer, observe=None, rss=False):
        fn = getattr(module, attr)
        setattr(module, attr, tracer.wrap(f"{layer}.{attr}", fn, observe, rss))

    def patch_method(cls, attr, layer, observe=None, rss=False):
        raw = cls.__dict__[attr]
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(
                tracer.wrap(name, raw.__func__, observe, rss)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, observe, rss))

    for attr in ("cmd_build", "cmd_gen", "cmd_scan", "cmd_sweep"):
        patch(cli, attr, "cli")
    patch(cli, "load_rules", "signatures")
    patch(cli, "read_pcap", "codec", rss=True)
    patch(cli, "write_pcap", "codec")
    patch(cli, "compare_baseline", "pipeline", _compared)
    patch(cli, "decision_log_csv", "pipeline")
    patch(cli, "generate_trace", "traffic")
    patch(cli, "fpr_sweep", "analytics", _swept)
    patch(cli, "emit_csv", "analytics")
    patch(pipeline, "parse_packet", "codec", _parsed)
    patch(signatures, "mix64_windows", "bloom", _window_hash)
    patch(signatures, "mix64_at", "bloom", _gather)
    patch(traffic, "build_tcp_frame", "traffic")
    patch(analytics, "fpr_theoretical", "bloom")
    patch_method(SignatureMatcher, "program", "signatures")
    patch_method(SignatureMatcher, "from_images", "signatures", _matcher_loaded)
    patch_method(SignatureMatcher, "filter_images", "signatures")
    patch_method(SignatureMatcher, "scan_batch", "signatures", _scan_batch,
                 rss=True)
    patch_method(SignatureMatcher, "verify", "signatures", _verify)
    patch_method(SignatureMatcher, "exact_matches_batch", "signatures",
                 rss=True)
    patch_method(ExactScanner, "matches_batch", "signatures")
    patch_method(ExactScanner, "contains_any_batch", "signatures", _resample)
    patch_method(BloomFilter, "add_many", "bloom")
    patch_method(BloomFilter, "check_many", "bloom")
    patch_method(BloomFilter, "probe_indices", "bloom", _probe)
    patch_method(BloomFilter, "test_bits", "bloom")


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from nicsieve import cli
    try:
        return cli.main(args)
    finally:
        tracer.dump(out_path, f"{args[0] if args else ''}:{os.getpid()}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
