"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest bench``.

It runs every workload shrunk to a few hundred frames, plain and traced,
and checks that each metric is emitted with its unit, that the gate
passes the program as it is, and that the gate trips on a forwarded
capture corrupted after the fact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import gate
import metrics
import run
from workloads import WORKLOADS


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], frames=300, sweep_trials=2000)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {(name, trace): run.run_workload(tiny(name), seed=3, seconds=0,
                                            trace=trace, work_root=work / str(trace))
            for name in WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit(records, name, trace):
    record = records[(name, trace)]
    result = record["result"]
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m.name for m in table]
    for m in table:
        emitted = result["metrics"][m.name]
        assert emitted["unit"] == m.unit
        assert math.isfinite(emitted["value"])
    assert result["attempted"] > 0
    assert result["failed"] == 0, record["problems"]
    assert result["correct"]
    for key in ("seed", "git_sha", "src_sha256", "python", "numpy", "nproc",
                "rules_sha256", "capture_sha256"):
        assert key in record["provenance"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_self_times_account_for_scan(records, name):
    record = records[(name, True)]
    assert (record["sessions"]["plain"], record["sessions"]["traced"]) == (1, 1)
    scan_self = record["self_s"]["scan"]
    cli_scan = record["result"]["metrics"]["cli.scan_s"]["value"]
    assert sum(scan_self.values()) == pytest.approx(cli_scan, rel=1e-9)
    assert set(record["per_length"]) == set(WORKLOADS[name].lengths)


def test_time_metrics_are_positive(records):
    for (name, trace), record in records.items():
        if not trace:
            for m in metrics.END_TO_END:
                assert record["result"]["metrics"][m.name]["value"] > 0, (name, m)


@pytest.fixture(scope="module")
def scan_outputs(tmp_path_factory):
    """Inputs and outputs of one plain session of a tiny workload."""
    session = run.Session(tiny("many-len-hostile"), 5,
                          tmp_path_factory.mktemp("gate") / "w")
    cycle = session.cycle(traced=False)
    assert session.failed == 0, session.problems
    out = session.work / "plain"
    files = {name: (out / name).read_bytes() for name in (
        "trace.pcap", "truth.csv", "report.csv", "decisions.csv",
        "forwarded.pcap")}
    return cycle.steps["scan"].exit_code, session.workload.frames, files


def _check(exit_code, frames, files):
    return gate.check_scan(exit_code, frames, files["trace.pcap"],
                           files["truth.csv"], files["report.csv"],
                           files["decisions.csv"], files["forwarded.pcap"])


def test_gate_passes_untouched_outputs(scan_outputs):
    exit_code, frames, files = scan_outputs
    assert _check(exit_code, frames, files) == (frames, 0, [])


def test_gate_trips_on_corrupted_forwarded_capture(scan_outputs, tmp_path):
    exit_code, frames, files = scan_outputs
    path = tmp_path / "forwarded.pcap"
    corrupted = bytearray(files["forwarded.pcap"])
    corrupted[-1] ^= 0xFF  # last payload byte of the last forwarded frame
    path.write_bytes(bytes(corrupted))
    attempted, failed, problems = _check(
        exit_code, frames, {**files, "forwarded.pcap": path.read_bytes()})
    assert attempted == frames
    assert failed == 1
    assert problems

    records = gate.pcap_records(files["forwarded.pcap"])
    dropped = files["forwarded.pcap"][:-(16 + len(records[-1][3]))]
    assert _check(exit_code, frames, {**files, "forwarded.pcap": dropped})[1] == 1


def test_gate_fails_every_packet_on_bad_exit_or_report(scan_outputs):
    exit_code, frames, files = scan_outputs
    assert _check(3, frames, files)[1] == frames
    report = files["report.csv"].replace(b",1\n", b",0\n")
    assert report != files["report.csv"]
    assert _check(exit_code, frames, {**files, "report.csv": report})[1] == frames


def test_gate_trips_on_missed_attack(scan_outputs):
    exit_code, frames, files = scan_outputs
    truth = gate.rows(files["truth.csv"])
    clean = next(i for i, r in enumerate(truth) if r["is_attack"] == "0")
    lines = files["truth.csv"].split(b"\n")
    lines[clean + 1] = f"{clean},1,x,0".encode()
    assert _check(exit_code, frames,
                  {**files, "truth.csv": b"\n".join(lines)})[1] == 1


def test_sweep_band_is_four_sigma():
    # expected count 0.034: one or two hits are still plausible
    assert gate.binomial_two_sided_p(1, 100_000, 3.4e-7) > gate.FOUR_SIGMA_P
    assert gate.binomial_two_sided_p(3, 100_000, 3.4e-7) < gate.FOUR_SIGMA_P
    # large counts: the band matches the normal 4-sigma band closely
    trials, p = 100_000, 0.02
    mean, sd = trials * p, math.sqrt(trials * p * (1 - p))
    assert gate.binomial_two_sided_p(round(mean + 3.8 * sd), trials, p) > gate.FOUR_SIGMA_P
    assert gate.binomial_two_sided_p(round(mean + 4.3 * sd), trials, p) < gate.FOUR_SIGMA_P
    assert gate.binomial_two_sided_p(round(mean - 4.3 * sd), trials, p) < gate.FOUR_SIGMA_P


def test_sweep_band_allows_for_filter_fill():
    # k=6, n=2000, m=16384: 2163 hits in 100k trials is 4.6 binomial
    # standard errors above the closed form, but within 4 sigma once the
    # filter's own fill variance is counted; twice the rate is not
    assert gate.binomial_two_sided_p(2163, 100_000, 0.0196) < gate.FOUR_SIGMA_P
    assert gate.within_four_sigma(2163, 100_000, 16384, 6, 2000)
    assert not gate.within_four_sigma(2 * 1960, 100_000, 16384, 6, 2000)
    assert not gate.within_four_sigma(3, 100_000, 16384, 4, 100)


def test_benchmark_json_matches_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    tables = metrics.benchmark_json_metrics()
    assert spec["end_to_end"] == tables["end_to_end"]
    assert spec["per_layer"] == tables["per_layer"]
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-frames",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
