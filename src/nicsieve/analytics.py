"""Result tables: FPR sweeps as plot-ready CSV.

``fpr_sweep`` measures the filter's empirical false-positive fraction
against the closed form across a (k, n) grid -- fresh filter per cell,
random distinct members, non-member queries only. ``emit_csv`` renders
any homogeneous list of row dataclasses.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass

import numpy as np

from .bloom import BloomFilter, BloomParams, fpr_theoretical


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
            members = _distinct_tokens(rng, n, 8)
            if members:
                filt.add_many(members)
            queries = [t.tobytes() + b"\x00"
                       for t in rng.integers(0, 1 << 63, size=trials,
                                             dtype=np.uint64)]
            hits = sum(filt.check_many(queries))
            theory = fpr_theoretical(m, k, n).fpr
            rows.append(FprSweepRow(
                m=m, k=k, n=n, fpr_theory=theory,
                fpr_empirical=hits / trials, trials=trials,
                std_err=math.sqrt(theory * (1.0 - theory) / trials)))
    return rows


def _distinct_tokens(rng: np.random.Generator, count: int,
                     width: int) -> list[bytes]:
    tokens: set[bytes] = set()
    while len(tokens) < count:
        draw = rng.integers(0, 1 << 63, size=count - len(tokens),
                            dtype=np.uint64)
        tokens.update(t.tobytes()[:width] for t in draw)
    return sorted(tokens)


def emit_csv(rows: list, row_type: type | None = None) -> bytes:
    """Render dataclass rows as CSV: header then one line per row.

    Floats are written with 8 significant digits; all rows must be the
    same dataclass type. An empty list needs an explicit ``row_type`` to
    name the header columns.
    """
    if rows:
        row_type = type(rows[0])
    if row_type is None or not dataclasses.is_dataclass(row_type):
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
