"""Fixed-seed benchmark of the ``nicsieve`` command, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload small-frames --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run derives its workload's rules from the seed and runs one user
session -- ``build``, ``gen``, ``scan``, ``sweep``, each a fresh child
process of the ``nicsieve`` in ``src/``. With ``--trace 0`` it then
repeats single steps until ``--seconds`` have passed, each time the one
that has had the least of the run's time (see ``SHARE``), so that short
steps are sampled as often as their length allows. Timings report the
fastest repeat of a step and set-up time the median of its repeats (see
``fastest``). One child runs at a time. Every scan and sweep goes
through the correctness gate in ``gate.py``; every step must also leave
the files byte-identical to the first session's.

``--trace 0`` reports the end-to-end metrics of ``metrics.END_TO_END``.
``--trace 1`` alternates plain and traced sessions (``tracer.py``) and
reports ``metrics.PER_LAYER`` from the traced ones; the traced files
must equal the plain ones byte for byte. Outputs, spans and a per-length
report land in ``.bench_work/<workload>/``.

Each metric is printed as ``name value unit``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The exit code is 0 when every operation passed the gate,
1 when some failed, 2 when the program is not there to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from metrics import (END_TO_END, FAILED_FRAC, PER_LAYER, StepTrace,
                     per_layer_values, per_length_table)
from workloads import FILTER_M, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STEPS = ("build", "gen", "scan", "sweep")
CHILD_TIMEOUT_S = 60.0  # a step takes seconds; a run must end within minutes
# Share of a plain run's time each step gets: the scan, the longest step
# and the source of two metrics, gets the most; set-up time is a median,
# which needs fewer repeats than the minima of the other steps.
SHARE = {"build": 0.5, "gen": 1.0, "scan": 2.0, "sweep": 1.0}
FRAME_OVERHEAD = 14 + 20 + 20  # Ethernet + IPv4 + TCP headers of gen frames


@dataclass
class StepRun:
    exit_code: int
    wall_s: float
    peak_rss_mb: float


@dataclass
class Cycle:
    traced: bool
    steps: dict[str, StepRun] = field(default_factory=dict)
    layers: dict[str, float] | None = None
    per_length: dict | None = None
    self_times: dict[str, dict[str, float]] | None = None


class Session:
    """One workload at one seed: its inputs, work dir and child processes."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.rules = work / "rules.txt"
        self.rules.write_text(workload.rules_text(seed))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.broken = False  # a step failed as a whole: fails every operation
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None  # first session's digests

    def child(self, argv: list[str], log: Path) -> StepRun:
        """Run one child to completion; wall time and peak RSS from rusage."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        # reaped by wait4, which Popen must be told so it does not warn
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StepRun(proc.returncode, wall, usage.ru_maxrss / 1024)

    def step_args(self, step: str, out: Path) -> list[str]:
        w = self.workload
        k_list, n_list = w.sweep_grid()
        return {
            "build": ["build", "--rules", str(self.rules),
                      "--out", str(out / "filters")],
            "gen": ["gen", "--count", str(w.frames),
                    "--attack-fraction", repr(w.attack_fraction),
                    "--rules", str(self.rules),
                    "--payload-min", str(w.payload[0]),
                    "--payload-max", str(w.payload[1]),
                    "--seed", str(self.seed), "--out", str(out / "trace.pcap"),
                    "--manifest", str(out / "truth.csv")],
            "scan": ["scan", str(out / "filters" / "index.txt"),
                     "--rules", str(self.rules), "--in", str(out / "trace.pcap"),
                     "--out", str(out / "forwarded.pcap"),
                     "--report", str(out / "report.csv"),
                     "--decision-log", str(out / "decisions.csv")],
            "sweep": ["sweep", "--m", str(FILTER_M),
                      "--k-list", ",".join(map(str, k_list)),
                      "--n-list", ",".join(map(str, n_list)),
                      "--trials", str(w.sweep_trials), "--seed", str(self.seed),
                      "--out", str(out / "sweep.csv")],
        }[step]

    def cycle(self, traced: bool) -> Cycle:
        out = self.work / ("traced" if traced else "plain")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        cyc = Cycle(traced)
        for step in STEPS:
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                        str(out / f"spans-{step}.json")]
            else:
                argv = [sys.executable, "-m", "nicsieve.cli"]
            cyc.steps[step] = self.child(argv + self.step_args(step, out),
                                         out / f"{step}.log")
        self._gate(out, cyc.steps, traced)
        if traced:
            steps = {s: StepTrace(json.loads((out / f"spans-{s}.json").read_text()))
                     for s in STEPS}
            cyc.layers = per_layer_values(*(steps[s] for s in STEPS))
            cyc.per_length = per_length_table(steps["scan"])
            cyc.self_times = {s: {name: ns / 1e9 for name, ns in
                                  sorted(t.self_ns.items())}
                              for s, t in steps.items()}
        return cyc

    def repeat(self, step: str) -> StepRun:
        """Run one step again over the plain session's files, and gate it."""
        out = self.work / "plain"
        run = self.child([sys.executable, "-m", "nicsieve.cli"]
                         + self.step_args(step, out), out / f"{step}.log")
        self._gate(out, {step: run}, traced=False)
        return run

    def _gate(self, out: Path, runs: dict[str, StepRun], traced: bool) -> None:
        """Judge the steps just run in ``out`` and the files they left."""
        w = self.workload
        k_list, n_list = w.sweep_grid()
        problems = []
        if "scan" in runs:
            attempted, failed, found = gate.check_scan(
                runs["scan"].exit_code, w.frames,
                *(_read(out / name) for name in (
                    "trace.pcap", "truth.csv", "report.csv", "decisions.csv",
                    "forwarded.pcap")))
            self.attempted += attempted
            self.failed += failed
            problems += found
        if "sweep" in runs:
            attempted, failed, found = gate.check_sweep(
                runs["sweep"].exit_code, _read(out / "sweep.csv"), FILTER_M,
                k_list, n_list, w.sweep_trials)
            self.attempted += attempted
            self.failed += failed
            problems += found
        for step in ("build", "gen"):
            if step in runs and runs[step].exit_code != 0:
                self.broken = True
                problems.append(f"{step} exited {runs[step].exit_code}")
        digests = {str(p.relative_to(out)): _sha256(p)
                   for p in sorted(out.rglob("*"))
                   if p.is_file() and p.suffix != ".log"
                   and not p.name.startswith("spans-")}
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            self.broken = True
            kind = "traced" if traced else "plain"
            problems.append(f"a {kind} {'/'.join(runs)} wrote files that "
                            f"differ from the first session's")
        self.problems += [p for p in problems if p not in self.problems]


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(session: Session) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy, nicsieve.cli; print(numpy.__version__); "
         "print(nicsieve.cli.__file__)"],
        env=session.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    numpy_version, module_file = (probe.stdout.split() + ["", ""])[:2]
    if probe.returncode != 0 or not Path(module_file).is_relative_to(ROOT / "src"):
        raise RuntimeError(f"cannot import nicsieve from {ROOT / 'src'}: "
                           f"{probe.stderr.strip()}")
    src_digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        src_digest.update(path.read_bytes())
    return {
        "workload": session.workload.name, "seed": session.seed,
        "git_sha": _git_sha(), "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "rules_sha256": _sha256(session.rules),
    }


def _git_sha() -> str | None:
    """HEAD of the repository the benchmark runs in, if it is one."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


# The machine's speed shifts in phases that can outlast a run (on a shared
# 2-vCPU VM, a fixed CPU loop's per-20 s medians spread by ~20% between
# windows, its per-20 s minima by ~3%), so timings report the fastest
# repeat; set-up time reports the median of its repeats.
fastest = min


def end_to_end_values(session: Session,
                      samples: dict[str, list[StepRun]]) -> dict[str, float]:
    w = session.workload
    plain_dir = session.work / "plain"
    report = gate.rows(_read(plain_dir / "report.csv"))
    payload_bytes = sum(len(f[3]) - FRAME_OVERHEAD for f in
                        gate.pcap_records(_read(plain_dir / "trace.pcap")))
    k_list, n_list = w.sweep_grid()

    def wall(step: str) -> float:
        return fastest(r.wall_s for r in samples[step])

    return {
        "setup_s": statistics.median(r.wall_s for r in samples["build"]),
        "gen_pkts_per_s": w.frames / wall("gen"),
        "scan_pkts_per_s": w.frames / wall("scan"),
        "scan_mb_per_s": payload_bytes / 1e6 / wall("scan"),
        "scan_peak_rss_mb": statistics.median(
            r.peak_rss_mb for r in samples["scan"]),
        "host_forward_ratio": (int(report[0]["forwarded"]) / int(report[0]["total"])
                               if report else 0.0),
        "sweep_queries_per_s":
            w.sweep_trials * len(k_list) * len(n_list) / wall("sweep"),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path) -> dict:
    """Measure one workload; returns its result record."""
    session = Session(workload, seed, work_root / workload.name)
    prov = provenance(session)
    start = time.perf_counter()
    cycles = [session.cycle(traced=False)]
    samples = {step: [cycles[0].steps[step]] for step in STEPS}
    # with tracing, plain and traced sessions alternate; without, single
    # steps repeat, each time the one furthest below its share of the time
    while (trace and len(cycles) < 2) or time.perf_counter() - start < seconds:
        if trace:
            cycles.append(session.cycle(traced=len(cycles) % 2 == 1))
            if not cycles[-1].traced:
                for step, run in cycles[-1].steps.items():
                    samples[step].append(run)
        else:
            step = min(STEPS, key=lambda s: sum(r.wall_s for r in samples[s])
                       / SHARE[s])
            samples[step].append(session.repeat(step))
    if session.broken:
        session.failed = session.attempted
    prov["capture_sha256"] = session.reference.get("trace.pcap")
    plain = [c for c in cycles if not c.traced]
    traced = [c for c in cycles if c.traced]

    end_to_end = _with_units(end_to_end_values(session, samples), END_TO_END)
    metrics = end_to_end
    if trace:
        layers = {m.name: fastest(c.layers[m.name] for c in traced)
                  for m in PER_LAYER if m.name != "trace_overhead_frac"}
        layers["trace_overhead_frac"] = (
            fastest(c.steps["scan"].wall_s for c in traced)
            / fastest(c.steps["scan"].wall_s for c in plain) - 1.0)
        metrics = _with_units(layers, PER_LAYER)
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    record = {"provenance": prov, "result": result,
              "end_to_end": end_to_end,
              "sessions": {"plain": len(plain), "traced": len(traced),
                           "seconds": time.perf_counter() - start},
              "problems": session.problems,
              "wall_s": {step: [round(r.wall_s, 4) for r in runs]
                         for step, runs in samples.items()}}
    if traced:
        record["per_length"] = traced[-1].per_length
        record["self_s"] = traced[-1].self_times
    (session.work / ("trace.json" if trace else "result.json")).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def _with_units(values: dict[str, float], table) -> dict[str, dict]:
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in table}


def _print_record(record: dict) -> None:
    prov, result = record["provenance"], record["result"]
    sessions = record["sessions"]
    print(f"== {prov['workload']} seed={prov['seed']}: "
          f"{sessions['plain']} plain + {sessions['traced']} traced sessions, "
          f"steps run {json.dumps({s: len(w) for s, w in record['wall_s'].items()})} "
          f"in {sessions['seconds']:.1f} s")
    print("provenance " + json.dumps(prov, sort_keys=True))
    shown = {**record["end_to_end"], **result["metrics"]}
    for name, metric in shown.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{FAILED_FRAC.name:34s} {frac:.6g} {FAILED_FRAC.unit} "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in record["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nicsieve" / "cli.py").is_file():
        print(f"bench: no nicsieve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                            bool(args.trace), ROOT / ".bench_work")
               for name in names]
    for record in records:
        _print_record(record)
    results = [r["result"] for r in records]
    if len(records) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rec['provenance']['workload']}/{name}": value
                        for rec in records
                        for name, value in rec["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
