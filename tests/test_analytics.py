import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsieve import analytics
from nicsieve.analytics import (CSV_BLOCK, FprSweepRow, columns_csv, emit_csv,
                                fpr_sweep)
from nicsieve.bloom import fpr_theoretical, optimal_k

from conftest import reference_columns_csv, reference_splitmix64


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


def test_sweep_mean_hits_over_seeds_match_theory():
    # the stream's draws do not interact with the filter hash: over 200
    # seeds of one bench cell, the mean hit count is within 4 standard
    # errors of the closed form
    seeds, trials = 200, 25_000
    rows = [fpr_sweep(16384, [6], [1000], trials=trials, seed=seed)[0]
            for seed in range(seeds)]
    mean_hits = sum(r.fpr_empirical for r in rows) * trials / seeds
    theory_hits = rows[0].fpr_theory * trials
    assert abs(mean_hits - theory_hits) <= \
        4 * rows[0].std_err * trials / math.sqrt(seeds)


# sha256 of the sweep CSVs of the bench grids at m 16384, seed 1, 5000
# trials, drawn from the SplitMix64 stream; the many-len-hostile cell's
# 5000 queries expect 0.03 hits, so its digest pins the layout and the
# closed form more than the draws
PINNED_SWEEPS = [
    pytest.param(
        [2, 4, 6, 8], [100, 500, 1000, 2000],
        "febfdd2d652a8d5c1a5dbf5b03e8fbf1ac299c25fec546c09ed49905ee7d1956",
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
    # one digest per grid, also when a cell's queries are drawn in many
    # short blocks
    monkeypatch.setattr(analytics, "QUERY_BLOCK", block)
    rows = fpr_sweep(16384, k_list, n_list, trials=5000, seed=1)
    assert hashlib.sha256(emit_csv(rows)).hexdigest() == digest


def test_oracle_is_the_published_splitmix64():
    # the first outputs of seed 1234567 in the algorithm's published
    # reference implementation
    assert list(itertools.islice(reference_splitmix64(1234567), 5)) == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]


def _oracle_rows(seed, first, count, tail=b""):
    draws = itertools.islice(reference_splitmix64(seed), first, first + count)
    return [x.to_bytes(8, "little") + tail for x in draws]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_stream_is_splitmix64(seed):
    rows = analytics._draws(seed, 0, 1000, 8)
    assert rows.dtype == np.uint8 and rows.shape == (1000, 8)
    assert [row.tobytes() for row in rows] == _oracle_rows(seed, 0, 1000)


@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 3000),
       count=st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_stream_splits_draw_the_oracle_draws(seed, first, count):
    rows = analytics._draws(seed, first, count, 8)
    assert [row.tobytes() for row in rows] == _oracle_rows(seed, first, count)


@pytest.mark.parametrize("block", [analytics.QUERY_BLOCK, 777],
                         ids=["block", "short-blocks"])
def test_tokens_are_little_endian_draws(monkeypatch, block):
    # each cell's members are the stream's next draws as 8 little-endian
    # bytes, and its queries the draws after them as those 8 bytes and a
    # zero byte; the cells share one running index, so no draw is used
    # twice, however the queries are split into blocks
    seen = []

    class Recording(analytics.BloomFilter):
        def add_many(self, elements):
            seen.append(elements.copy())
            super().add_many(elements)

        def check_many(self, elements):
            seen.append(elements.copy())
            return super().check_many(elements)

    monkeypatch.setattr(analytics, "BloomFilter", Recording)
    monkeypatch.setattr(analytics, "QUERY_BLOCK", block)
    fpr_sweep(4096, [2, 3], [0, 300], trials=2000, seed=11)
    blocks = [(min(block, 2000 - a), 9) for a in range(0, 2000, block)]
    assert [rows.shape for rows in seen] == \
        2 * ([(0, 8)] + blocks + [(300, 8)] + blocks)
    drawn = 0
    for rows in seen:
        assert rows.dtype == np.uint8
        tail = b"\x00" * (rows.shape[1] - 8)
        assert [row.tobytes() for row in rows] == \
            _oracle_rows(11, drawn, len(rows), tail)
        drawn += len(rows)


def test_sweep_leaves_numpy_ma_unimported():
    # the draws are numpy arithmetic on a counter, and members need no
    # dedup, so neither numpy.random nor numpy.ma (which np.unique on void
    # rows imports) is loaded into a sweep. A fresh process shows what the
    # sweep itself loads.
    code = ("import sys\n"
            "from nicsieve.analytics import fpr_sweep\n"
            "fpr_sweep(1024, [2], [0, 100], trials=1000, seed=1)\n"
            "print('numpy.ma' in sys.modules,\n"
            "      'numpy.random' in sys.modules)\n")
    src = Path(analytics.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False False\n"


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
    # a 64-bit stream state would alias 2**64 to 0
    for seed in (-1, 2**64):
        message = f"seed must be in 0..2**64-1, got {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fpr_sweep(16384, [4], [100], trials=1000, seed=seed)


def test_sweep_takes_both_ends_of_the_seed_range():
    low, high = (fpr_sweep(1024, [2], [100], trials=1000, seed=seed)[0]
                 for seed in (0, 2**64 - 1))
    assert low.fpr_empirical > 0 and high.fpr_empirical > 0
    assert low.fpr_empirical != high.fpr_empirical


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


# --- per-frame tables -------------------------------------------------------

# labels that span fields, quote, end lines, hold NUL or are UTF-8
LABEL_TEXT = st.text(st.sampled_from(',"\n\r\0 aZ9\u00e9\u20ac\U0001f600')
                     | st.characters(), max_size=6)


@given(size=st.one_of(st.sampled_from([0, 1, CSV_BLOCK - 1, CSV_BLOCK,
                                       CSV_BLOCK + 1]), st.integers(0, 40)),
       kinds=st.lists(st.booleans(), min_size=1, max_size=4),
       values=st.lists(st.integers(-2**63, 2**63 - 1), max_size=8),
       labels=st.lists(LABEL_TEXT, min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_columns_csv_equals_the_per_row_renderer(size, kinds, values, labels,
                                                 seed):
    # integer columns draw from the values, -1, 0 and the widest int64;
    # a label column's codes run from -len(labels), as list indices do
    rng = np.random.default_rng(seed)
    pool = np.array(values + [-1, 0, 2**63 - 1], dtype=np.int64)
    columns = [(rng.integers(-len(labels), len(labels), size), labels)
               if is_label else rng.choice(pool, size) for is_label in kinds]
    header = ",".join(f"c{i}" for i in range(len(kinds) + 1))
    assert columns_csv(header, *columns) == \
        reference_columns_csv(header, *columns)


def test_columns_csv_memory_is_its_output_and_a_few_blocks():
    # the blocks' bytes and the file joined from them are twice the file;
    # above that, a block's char matrix and mask (80 KiB here) at a time,
    # where rendering every row at once would take 200 times that
    size = 200_000
    rng = np.random.default_rng(8)
    labels = ["DROP,CLEAN", "FORWARD,MATCH_CANDIDATE", "FORWARD,NON_PARSEABLE"]
    columns = ((rng.integers(0, 3, size).astype(np.uint8), labels),
               rng.integers(-1, 100, size), rng.integers(0, 1400, size))
    tracemalloc.start()
    try:
        data = columns_csv("index,verdict,reason,candidates,payload_len",
                           *columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data == reference_columns_csv(
        "index,verdict,reason,candidates,payload_len", *columns)
    width = max(map(len, data.splitlines(keepends=True)))
    assert peak - 2 * len(data) < 4 * 2 * CSV_BLOCK * width
