"""Result tables: FPR sweeps as plot-ready CSV.

``fpr_sweep`` measures the filter's empirical false-positive fraction
against the closed form across a (k, n) grid -- fresh filter per cell,
random distinct members, non-member queries only. ``emit_csv`` renders
any homogeneous list of row dataclasses; ``columns_csv`` renders a
per-frame table (the manifest, the decision log) from its columns, a
block of rows at a time, each block laid out with numpy as one char
matrix and a mask of the chars it keeps, so that no row is formatted in
Python; ``tests/conftest.py`` keeps the per-row renderer as its oracle.

Members and queries are drawn as 64-bit integers and written out as
little-endian uint8 rows (see ``bloom``), so the sweep builds no Python
object per query and its CSV does not depend on the host's byte order.
Each cell queries in blocks of ``QUERY_BLOCK`` rows, so its memory does
not grow with ``trials``.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass

import numpy as np

from .bloom import BloomFilter, BloomParams, fpr_theoretical

# Queries drawn, hashed and checked at a time in one sweep cell.
QUERY_BLOCK = 1 << 16
# Rows rendered at a time by ``columns_csv``.
CSV_BLOCK = 1024
# One query row: a drawn token as 8 little-endian bytes, then a zero byte.
_QUERY = np.dtype([("token", "<u8"), ("zero", "u1")])


@dataclass
class FprSweepRow:
    m: int
    k: int
    n: int
    fpr_theory: float
    fpr_empirical: float
    trials: int
    std_err: float  # binomial standard error at the theoretical rate


def fpr_sweep(m: int, k_list: list[int], n_list: list[int], trials: int,
              seed: int = 0) -> list[FprSweepRow]:
    """Empirical vs. theoretical FPR over the (k, n) grid.

    Each cell programs a fresh filter with n random distinct 8-byte
    elements and queries ``trials`` fresh 9-byte elements (disjoint by
    length, so every query is a true non-member). Deterministic per seed.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    if not k_list or not n_list:
        raise ValueError("k_list and n_list must be non-empty")
    if any(k < 1 for k in k_list) or any(n < 0 for n in n_list):
        raise ValueError("grid values must satisfy k >= 1, n >= 0")

    rng = np.random.default_rng(seed)
    rows = []
    for k in k_list:
        params = BloomParams(m=m, k=k)
        for n in n_list:
            filt = BloomFilter(params)
            filt.add_many(_distinct_tokens(rng, n, 8))
            hits = 0
            for start in range(0, trials, QUERY_BLOCK):
                queries = _query_rows(rng, min(QUERY_BLOCK, trials - start))
                hits += int(np.count_nonzero(filt.check_many(queries)))
            theory = fpr_theoretical(m, k, n).fpr
            rows.append(FprSweepRow(
                m=m, k=k, n=n, fpr_theory=theory,
                fpr_empirical=hits / trials, trials=trials,
                std_err=math.sqrt(theory * (1.0 - theory) / trials)))
    return rows


def _query_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` fresh 9-byte queries: a drawn token, then a zero byte."""
    rows = np.zeros(count, dtype=_QUERY)
    rows["token"] = rng.integers(0, 1 << 63, size=count, dtype=np.uint64)
    return rows.view(np.uint8).reshape(count, _QUERY.itemsize)


def _distinct_tokens(rng: np.random.Generator, count: int,
                     width: int) -> np.ndarray:
    """``count`` distinct ``width``-byte rows, in ``sorted(bytes)`` order.

    Each round draws as many tokens as are still missing and keeps the
    first ``width`` of each token's 8 little-endian bytes, until
    ``count`` distinct rows remain.
    """
    tokens = np.zeros((0, width), dtype=np.uint8)
    while tokens.shape[0] < count:
        draw = rng.integers(0, 1 << 63, size=count - tokens.shape[0],
                            dtype=np.uint64)
        drawn = draw.astype("<u8").view(np.uint8).reshape(draw.size, 8)
        rows = np.concatenate([tokens, drawn[:, :width]])
        # a void row compares as its bytes, so it sorts like bytes; a row
        # equal to the one before it is a duplicate
        rows = np.sort(rows.view(f"V{width}").ravel()).view(np.uint8)
        rows = rows.reshape(-1, width)
        tokens = rows[np.insert((rows[1:] != rows[:-1]).any(axis=1), 0, True)]
    return tokens


def emit_csv(rows: list) -> bytes:
    """Render dataclass rows as CSV: header then one line per row.

    Floats are written with 8 significant digits; all rows must be the
    same dataclass type, and there must be at least one.
    """
    row_type = type(rows[0]) if rows else None
    if not dataclasses.is_dataclass(row_type):
        raise ValueError("emit_csv expects dataclass rows")
    if any(type(r) is not row_type for r in rows):
        raise ValueError("emit_csv expects homogeneous rows")
    names = [f.name for f in dataclasses.fields(row_type)]
    out = io.StringIO()
    out.write(",".join(names) + "\n")
    for row in rows:
        out.write(",".join(_format_field(getattr(row, name))
                           for name in names) + "\n")
    return out.getvalue().encode("utf-8")


def _format_field(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.8g}"
    return str(value)


def columns_csv(header: str, *columns) -> bytes:
    """Render a table held as columns as CSV, ``CSV_BLOCK`` rows at a time.

    Row i is its index i, then a field from each column. A column is an
    integer array, whose negative entries (-1: none) are written as
    empty fields, or a pair ``(codes, labels)``, written as
    ``labels[code]``; a label may span several fields.

    A block is laid out as one char matrix, a row of the matrix per CSV
    row, with each field right-aligned in columns of its own, and a mask
    of the chars to keep: a number's digits come from repeated division
    by 10 and its leading zeros are not kept, and a label is a row of a
    byte table made once per column, padded on the right.
    """
    size = len(columns[0][0] if isinstance(columns[0], tuple) else columns[0])
    tables = [_label_table(c[1]) if isinstance(c, tuple) else None
              for c in columns]
    parts = [f"{header}\n".encode("utf-8")]
    for a in range(0, size, CSV_BLOCK):
        b = min(a + CSV_BLOCK, size)
        comma = (np.full((b - a, 1), ord(","), dtype=np.uint8),
                 np.ones((b - a, 1), dtype=bool))
        fields = [_digits(np.arange(a, b))]
        for column, table in zip(columns, tables):
            fields += [comma, _digits(column[a:b]) if table is None else
                       tuple(t.take(column[0][a:b], axis=0) for t in table)]
        fields.append((np.full((b - a, 1), ord("\n"), dtype=np.uint8),
                       comma[1]))
        chars, keep = (np.concatenate(c, axis=1) for c in zip(*fields))
        parts.append(chars[keep].tobytes())
    return b"".join(parts)


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's decimal digits, right-aligned, and which to keep.

    A negative value keeps no digit: its field is empty.
    """
    rest = np.maximum(values, 0)
    width = len(str(int(rest.max())))
    chars = np.empty((rest.size, width), dtype=np.uint8)
    keep = np.empty((rest.size, width), dtype=bool)
    for j in range(width - 1, -1, -1):
        np.greater(rest, 0, out=keep[:, j])
        rest, chars[:, j] = np.divmod(rest, 10)
    keep[:, -1] = True  # zero is one digit
    keep &= (values >= 0)[:, None]
    chars += ord("0")
    return chars, keep


def _label_table(labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of each label, one padded row per code, and which
    bytes of each row to keep."""
    encoded = [label.encode("utf-8") for label in labels]
    width = max(map(len, encoded), default=0)
    chars = np.frombuffer(b"".join(e.ljust(width, b"\0") for e in encoded),
                          dtype=np.uint8).reshape(len(encoded), width)
    keep = np.arange(width) < np.array([len(e) for e in encoded])[:, None]
    return chars, keep
