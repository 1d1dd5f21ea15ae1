"""Command-line entry point.

Four subcommands mirror the workflow end to end::

    nicsieve build --rules rules.txt --out filters/
    nicsieve gen   --count 10000 --attack-fraction 0.05 --rules rules.txt \\
                   --seed 7 --out trace.pcap --manifest truth.csv
    nicsieve scan  filters/index.txt --rules rules.txt --in trace.pcap \\
                   --out forwarded.pcap --report report.csv
    nicsieve sweep --trials 100000 --seed 1 --out sweep.csv

Exit codes: 0 success, 1 usage/validation, 2 I/O failure, 3 the scan
detected a filtered-vs-unfiltered discrepancy (which would mean the
filter lost a relevant packet).

All randomness flows through ``--seed``; rerunning any subcommand with
the same flags produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import _lazy_names
from .bloom import BloomParams, fpr_theoretical

DEFAULT_K_LIST = (2, 4, 6, 8)
DEFAULT_N_LIST = (100, 250, 500, 1000, 2000, 4000)
DEFAULT_PARAMS = BloomParams()

# The names the subcommands call from the other modules, and the module of
# each. Each is imported the first time it is asked for and bound on this
# module, so a subcommand loads only the modules it runs. The commands call
# them as attributes of ``_cli``, so a name replaced on this module
# (``bench/tracer.py`` wraps eight of them) is the one they call.
_COLLABORATORS = {
    "SignatureMatcher": "signatures", "load_rules": "signatures",
    "text_lines": "signatures",
    "read_pcap": "codec", "write_pcap": "codec",
    "compare_baseline": "pipeline", "decision_log_csv": "pipeline",
    "TrafficSpec": "traffic", "generate_trace": "traffic",
    "emit_csv": "analytics", "fpr_sweep": "analytics",
}
__getattr__ = _lazy_names(globals(), _COLLABORATORS)
_cli = sys.modules[__name__]  # this module, also when run as __main__


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _params_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--m", type=int, default=DEFAULT_PARAMS.m,
                     help=f"bit-vector length in bits (default {DEFAULT_PARAMS.m})")
    sub.add_argument("--k", type=int, default=DEFAULT_PARAMS.k,
                     help=f"number of hash functions (default {DEFAULT_PARAMS.k})")
    sub.add_argument("--seed-a", type=int, default=DEFAULT_PARAMS.seed_a,
                     help="first 64-bit hash seed")
    sub.add_argument("--seed-b", type=int, default=DEFAULT_PARAMS.seed_b,
                     help="second 64-bit hash seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nicsieve",
                     description="Bloom-filter packet prefilter simulator")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", parents=[], help="program filter images")
    build.add_argument("--rules", required=True, help="rule file (id,encoding,value)")
    build.add_argument("--out", required=True, help="output directory for images")
    _params_args(build)
    build.set_defaults(func=cmd_build)

    gen = commands.add_parser("gen", help="generate a synthetic trace")
    gen.add_argument("--count", type=int, required=True, help="packets to generate")
    # a flag left out is absent from the parsed arguments, and cmd_gen
    # takes TrafficSpec's default for it
    gen.add_argument("--attack-fraction", type=float, default=argparse.SUPPRESS,
                     help="fraction of packets carrying a signature")
    gen.add_argument("--rules", help="rule file (required when attacks requested)")
    gen.add_argument("--payload-min", type=int, default=argparse.SUPPRESS)
    gen.add_argument("--payload-max", type=int, default=argparse.SUPPRESS)
    gen.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    gen.add_argument("--out", required=True, help="output capture file")
    gen.add_argument("--manifest", required=True, help="output ground-truth CSV")
    gen.set_defaults(func=cmd_gen)

    scan = commands.add_parser("scan", help="filter a trace, compare paths")
    scan.add_argument("index", help="filter index file written by build")
    scan.add_argument("--rules", required=True,
                      help="rule file (host-side verification table)")
    scan.add_argument("--in", dest="in_trace", required=True,
                      help="input capture file")
    scan.add_argument("--out", required=True, help="forwarded-packets capture file")
    scan.add_argument("--report", required=True, help="stats CSV")
    scan.add_argument("--decision-log", help="optional per-packet CSV")
    scan.set_defaults(func=cmd_scan)

    sweep = commands.add_parser("sweep", help="empirical vs theoretical FPR grid")
    sweep.add_argument("--m", type=int, default=DEFAULT_PARAMS.m)
    sweep.add_argument("--k-list", type=_int_list, default=list(DEFAULT_K_LIST))
    sweep.add_argument("--n-list", type=_int_list, default=list(DEFAULT_N_LIST))
    sweep.add_argument("--trials", type=int, default=20000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True, help="output CSV")
    sweep.set_defaults(func=cmd_sweep)

    return parser


@contextmanager
def _about(name: str | Path):
    """Prefix ``name`` to the message of a ``ValueError`` raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parsed(path: str | Path, parse):
    """``parse`` of the bytes of the file at ``path``; its errors name the file."""
    data = Path(path).read_bytes()
    with _about(path):
        return parse(data)


def cmd_build(args: argparse.Namespace) -> int:
    params = BloomParams(m=args.m, k=args.k, seed_a=args.seed_a,
                         seed_b=args.seed_b)
    matcher = _parsed(args.rules, lambda data: _cli.SignatureMatcher.program(
        _cli.load_rules(data), params))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index_lines = []
    for length, image in sorted(matcher.filter_images().items()):
        name = f"len{length}.bfi"
        (out_dir / name).write_bytes(image)
        index_lines.append(f"{length},{name}")
    (out_dir / "index.txt").write_text("\n".join(index_lines) + "\n")

    print(f"programmed {len(matcher.signature_set)} signatures across "
          f"{len(matcher.lengths)} lengths (m={params.m}, k={params.k})")
    for length in matcher.lengths:
        filt = matcher.filters[length]
        n = filt.count_programmed
        est = fpr_theoretical(filt.params.m, filt.params.k, n)
        print(f"  length {length}: {n} patterns, theoretical fpr {est.fpr:.6g}")
    print(f"index written to {out_dir / 'index.txt'}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    default = _cli.TrafficSpec(packet_count=0)
    payload_min, payload_max = default.payload_len_range
    attack_fraction = getattr(args, "attack_fraction", default.attack_fraction)
    ruleset = None if args.rules is None else _parsed(args.rules, _cli.load_rules)
    if ruleset is not None and len(ruleset) == 0 and attack_fraction > 0:
        raise ValueError(f"{args.rules}: attack packets requested but the "
                         "file holds no signatures")
    spec = _cli.TrafficSpec(
        packet_count=args.count, attack_fraction=attack_fraction,
        payload_len_range=(getattr(args, "payload_min", payload_min),
                           getattr(args, "payload_max", payload_max)),
        seed=getattr(args, "seed", default.seed), signatures=ruleset)
    trace, manifest = _cli.generate_trace(spec)
    # a generated trace's buffer is the whole little-endian capture file
    Path(args.out).write_bytes(trace.buf)
    Path(args.manifest).write_bytes(manifest.to_csv())
    print(f"wrote {len(trace)} packets ({len(manifest.attack_indices())} attacks) "
          f"to {args.out}")
    return 0


def _load_index(index_path: Path) -> dict[int, bytes]:
    images: dict[int, bytes] = {}
    for lineno, line in enumerate(_parsed(index_path, _cli.text_lines), start=1):
        line = line.strip()
        if not line:
            continue
        length_text, _, rel = line.partition(",")
        length_text, rel = length_text.strip(), rel.strip()
        # ASCII digits only: int() also reads "1_0", "+6" and other scripts' digits
        if not (length_text.isascii() and length_text.isdecimal()):
            raise ValueError(
                f"{index_path}:{lineno}: bad length {length_text!r}")
        length = int(length_text)
        if not rel:
            raise ValueError(f"{index_path}:{lineno}: no image file named")
        if length in images:
            raise ValueError(
                f"{index_path}:{lineno}: length {length} listed twice")
        images[length] = (index_path.parent / rel).read_bytes()
    if not images:
        raise ValueError(f"{index_path}: no filter images listed")
    return images


def cmd_scan(args: argparse.Namespace) -> int:
    ruleset = _parsed(args.rules, _cli.load_rules)
    images = _load_index(Path(args.index))
    with _about(f"{args.index} with {args.rules}"):
        matcher = _cli.SignatureMatcher.from_images(ruleset, images)
    trace = _parsed(args.in_trace, _cli.read_pcap)

    report = _cli.compare_baseline(matcher, trace)
    Path(args.out).write_bytes(_cli.write_pcap(report.forwarded))
    stats = report.stats
    Path(args.report).write_bytes(_cli.emit_csv([stats]))
    if args.decision_log:
        Path(args.decision_log).write_bytes(
            _cli.decision_log_csv(report.records))

    print(f"{stats.total} packets: forwarded {stats.forwarded} "
          f"({100.0 * stats.forwarded / stats.total if stats.total else 0.0:.2f}%), "
          f"true matches {stats.true_matches}, "
          f"false-positive forwards {stats.false_positive_forwards}")
    if not stats.equivalent:
        print("error: filtered and unfiltered detections differ", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = _cli.fpr_sweep(args.m, args.k_list, args.n_list, args.trials,
                          seed=args.seed)
    Path(args.out).write_bytes(_cli.emit_csv(rows))
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"nicsieve: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"nicsieve: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
