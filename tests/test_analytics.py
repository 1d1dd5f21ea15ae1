import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from nicsieve import analytics
from nicsieve.analytics import FprSweepRow, emit_csv, fpr_sweep
from nicsieve.bloom import fpr_theoretical, optimal_k


@dataclass
class LoadRow:
    scenario: str
    total: int
    forwarded: int
    percent_analyzed: float


def test_sweep_grid_shape_and_theory_column():
    rows = fpr_sweep(16384, [2, 4], [0, 100, 500], trials=2000, seed=3)
    assert len(rows) == 6
    assert [(r.k, r.n) for r in rows] == [(2, 0), (2, 100), (2, 500),
                                          (4, 0), (4, 100), (4, 500)]
    for row in rows:
        assert row.fpr_theory == fpr_theoretical(row.m, row.k, row.n).fpr
        assert 0.0 <= row.fpr_empirical <= 1.0
        assert row.trials == 2000


def test_sweep_empty_filter_row():
    row = fpr_sweep(16384, [4], [0], trials=5000, seed=4)[0]
    assert row.fpr_theory == 0.0
    assert row.fpr_empirical == 0.0
    assert row.std_err == 0.0


def test_sweep_deterministic():
    a = fpr_sweep(4096, [2, 3], [50, 200], trials=3000, seed=9)
    b = fpr_sweep(4096, [2, 3], [50, 200], trials=3000, seed=9)
    assert a == b
    c = fpr_sweep(4096, [2, 3], [50, 200], trials=3000, seed=10)
    assert any(x.fpr_empirical != y.fpr_empirical for x, y in zip(a, c))


def test_sweep_theory_monotone_in_n():
    rows = fpr_sweep(16384, [4], [100, 250, 500, 1000, 2000], trials=1000,
                     seed=5)
    theories = [r.fpr_theory for r in rows]
    assert theories == sorted(theories)


def test_sweep_spot_value_within_four_stderr():
    row = fpr_sweep(16384, [4], [2000], trials=100_000, seed=6)[0]
    assert row.fpr_theory == pytest.approx(0.02227, abs=1e-4)
    assert abs(row.fpr_empirical - row.fpr_theory) <= 4 * row.std_err


# sha256 of the sweep CSVs of the bench grids at m 16384, seed 1, 5000
# trials, as written when the sweep built one ``bytes`` object per query
PINNED_SWEEPS = [
    pytest.param(
        [2, 4, 6, 8], [100, 500, 1000, 2000],
        "de4dd04ed4d24f2f7c1bdfde87d1f24a48adf78b31b3173da231d712d47a18c5",
        id="small-frames"),
    pytest.param(
        [4], [200],
        "d2cdfcb5435631553216780122032f9305ee9ea2884aff52ba7c5d14bb266834",
        id="many-len-hostile"),
]


@pytest.mark.parametrize("block", [analytics.QUERY_BLOCK, 777],
                         ids=["block", "short-blocks"])
@pytest.mark.parametrize("k_list, n_list, digest", PINNED_SWEEPS)
def test_sweep_csv_matches_pinned_digest(monkeypatch, block, k_list, n_list,
                                         digest):
    # the row-array sweep reproduces the per-query sweep byte for byte,
    # also when a cell's queries are drawn in many short blocks
    monkeypatch.setattr(analytics, "QUERY_BLOCK", block)
    rows = fpr_sweep(16384, k_list, n_list, trials=5000, seed=1)
    assert hashlib.sha256(emit_csv(rows)).hexdigest() == digest


def _reference_tokens(seed, count, width):
    """The member draw rounds, with each token as explicit Python bytes."""
    rng = np.random.default_rng(seed)
    tokens = set()
    while len(tokens) < count:
        draw = rng.integers(0, 1 << 63, size=count - len(tokens),
                            dtype=np.uint64)
        tokens.update(int(x).to_bytes(8, "little")[:width] for x in draw)
    return sorted(tokens)


@pytest.mark.parametrize("count, width", [(0, 8), (1, 8), (300, 8),
                                          (200, 1), (5000, 2)])
def test_tokens_are_little_endian_draws(count, width):
    # width 1 and 2 collide, so they take several draw rounds
    tokens = analytics._distinct_tokens(np.random.default_rng(11), count,
                                        width)
    assert tokens.dtype == np.uint8 and tokens.shape == (count, width)
    assert [row.tobytes() for row in tokens] == \
        _reference_tokens(11, count, width)

    queries = analytics._query_rows(np.random.default_rng(12), 500)
    draw = np.random.default_rng(12).integers(0, 1 << 63, size=500,
                                              dtype=np.uint64)
    assert queries.dtype == np.uint8 and queries.shape == (500, 9)
    assert [row.tobytes() for row in queries] == \
        [int(x).to_bytes(8, "little") + b"\x00" for x in draw]


def test_sweep_leaves_numpy_ma_unimported():
    # duplicate members are removed by a sort and a compare with the row
    # before; np.unique on void rows would import numpy.ma into every
    # sweep. A fresh process shows what the sweep itself loads.
    code = ("import sys\n"
            "from nicsieve.analytics import fpr_sweep\n"
            "fpr_sweep(1024, [2], [0, 100], trials=1000, seed=1)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = Path(analytics.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_sweep_memory_does_not_grow_with_trials():
    # a million queries in one cell: blocks of rows, not one array of all
    tracemalloc.start()
    try:
        fpr_sweep(16384, [4], [200], trials=1_000_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sweep_validation():
    with pytest.raises(ValueError, match="trials"):
        fpr_sweep(16384, [4], [100], trials=10)
    with pytest.raises(ValueError):
        fpr_sweep(16384, [], [100], trials=2000)
    with pytest.raises(ValueError):
        fpr_sweep(16384, [0], [100], trials=2000)


def test_theory_minimum_consistent_with_optimal_k():
    # over a dense k grid the minimum sits within one step of optimal_k
    m = 16384
    for n in (1000, 2000, 4000, 8000):
        ks = list(range(1, 33))
        best = min(ks, key=lambda k: fpr_theoretical(m, k, n).fpr)
        assert abs(min(optimal_k(m, n), 32) - best) <= 1


def test_emit_csv_layout_and_parse_back():
    rows = fpr_sweep(16384, [4], [100, 2000], trials=1000, seed=7)
    data = emit_csv(rows).decode()
    lines = data.split("\n")
    assert lines[0] == "m,k,n,fpr_theory,fpr_empirical,trials,std_err"
    assert len(lines) == 4 and lines[-1] == ""  # LF-terminated

    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert int(fields[0]) == row.m
        assert int(fields[1]) == row.k
        assert int(fields[2]) == row.n
        # 8 significant digits round-trip well inside 1 ppm
        assert float(fields[3]) == pytest.approx(row.fpr_theory, rel=1e-6)
        assert float(fields[4]) == pytest.approx(row.fpr_empirical, rel=1e-6)
        assert float(fields[6]) == pytest.approx(row.std_err, rel=1e-6)


def test_emit_csv_single_row_two_lines():
    rows = [LoadRow(scenario="x", total=10, forwarded=1,
                        percent_analyzed=10.0)]
    assert emit_csv(rows).count(b"\n") == 2


def test_emit_csv_rejects_mixed_rows():
    rows = [LoadRow(scenario="x", total=1, forwarded=0,
                        percent_analyzed=0.0),
            FprSweepRow(m=8, k=1, n=0, fpr_theory=0.0, fpr_empirical=0.0,
                        trials=1, std_err=0.0)]
    with pytest.raises(ValueError, match="homogeneous"):
        emit_csv(rows)
    with pytest.raises(ValueError):
        emit_csv([])
    with pytest.raises(ValueError):
        emit_csv([object()])
