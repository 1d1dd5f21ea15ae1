"""Correctness checks on the files a ``nicsieve`` run wrote.

The checks read the outputs with their own small parsers and never
import the program, so a defect in the program cannot hide itself.
Each check returns how many operations it judged and how many failed:
packets for a scan, (k, n) cells for a sweep.
"""

from __future__ import annotations

import csv
import io
import math
import struct

# Two-sided tail probability of a normal deviate beyond 4 sigma.
FOUR_SIGMA_P = math.erfc(4 / math.sqrt(2))


def pcap_records(data: bytes) -> list[tuple[int, int, int, bytes]]:
    """(ts_sec, ts_usec, orig_len, frame bytes) of every record."""
    if len(data) < 24:
        raise ValueError("capture shorter than its global header")
    magic = struct.unpack_from("<I", data)[0]
    if magic == 0xA1B2C3D4:
        rec = struct.Struct("<IIII")
    elif magic == 0xD4C3B2A1:
        rec = struct.Struct(">IIII")
    else:
        raise ValueError(f"bad capture magic 0x{magic:08X}")
    out = []
    off = 24
    while off < len(data):
        if off + rec.size > len(data):
            raise ValueError("capture ends inside a record header")
        ts_sec, ts_usec, incl, orig = rec.unpack_from(data, off)
        off += rec.size
        if off + incl > len(data):
            raise ValueError("capture ends inside a record")
        out.append((ts_sec, ts_usec, orig, data[off:off + incl]))
        off += incl
    return out


def rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_scan(exit_code: int, attempted: int, capture: bytes, manifest: bytes,
               report: bytes, decision_log: bytes,
               forwarded: bytes) -> tuple[int, int, list[str]]:
    """Judge a scan of ``attempted`` packets; returns (attempted, failed, problems).

    A packet fails when it is an attack that was not forwarded with a
    verified match, a background packet with any verified match, or its
    slot in the forwarded capture differs from what the decision log
    says was forwarded. Run-level faults (exit code, ``equivalent``,
    unreadable or inconsistent outputs) fail every packet.
    """
    if exit_code != 0:
        return attempted, attempted, [f"scan exited {exit_code}"]
    try:
        frames = pcap_records(capture)
        truth = rows(manifest)
        (rep,) = rows(report)
        log = rows(decision_log)
        sent = pcap_records(forwarded)
    except (ValueError, KeyError) as exc:
        return attempted, attempted, [f"unreadable input or output: {exc}"]
    problems: list[str] = []
    if len(frames) != attempted:
        problems.append(f"capture holds {len(frames)} frames, not {attempted}")
    if rep["equivalent"] != "1":
        problems.append("report says filtered and unfiltered paths differ")
    if len(truth) != len(frames) or len(log) != len(frames):
        problems.append(f"{attempted} frames but {len(truth)} manifest rows "
                        f"and {len(log)} decision-log rows")
    if [int(r["index"]) for r in log] != list(range(len(log))):
        problems.append("decision log is not one row per frame in order")
    forward_idx = [i for i, r in enumerate(log) if r["verdict"] == "FORWARD"]
    if int(rep["total"]) != attempted or int(rep["forwarded"]) != len(forward_idx):
        problems.append("report totals disagree with the decision log")
    if problems:
        return attempted, attempted, problems

    bad: set[int] = set()
    for i, (row, entry) in enumerate(zip(log, truth)):
        verified = int(row["verified"])
        if entry["is_attack"] == "1":
            if row["verdict"] != "FORWARD" or verified < 1:
                bad.add(i)
        elif verified != 0:
            bad.add(i)
    extra = max(0, len(sent) - len(forward_idx))
    for slot, i in enumerate(forward_idx):
        if slot >= len(sent) or sent[slot] != frames[i]:
            bad.add(i)
    if bad:
        problems.append(f"{len(bad)} packets violate the ground truth or the "
                        f"forwarded capture")
    if extra:
        problems.append(f"forwarded capture has {extra} records beyond the log")
    return attempted, min(attempted, len(bad) + extra), problems


def binomial_two_sided_p(hits: int, trials: int, p: float) -> float:
    """Exact two-sided tail probability of ``hits`` under Binomial(trials, p)."""
    if p <= 0.0:
        return 1.0 if hits == 0 else 0.0
    if p >= 1.0:
        return 1.0 if hits == trials else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(trials + 1)

    def pmf(j: int) -> float:
        return math.exp(lg_n - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                        + j * log_p + (trials - j) * log_q)

    # sum the tail on the far side of the mean; its terms only shrink
    step = 1 if hits >= trials * p else -1
    tail, j = 0.0, hits
    while 0 <= j <= trials:
        term = pmf(j)
        tail += term
        if term <= tail * 1e-17:
            break
        j += step
    return min(1.0, 2.0 * tail)


def within_four_sigma(hits: int, trials: int, m: int, k: int, n: int) -> bool:
    """Is a sweep cell's hit count within 4 sigma of the closed form?

    The count spreads for two reasons: the binomial draw of the queries,
    and the filter itself, whose share of set bits varies from filter to
    filter (kn probes landing in m bits) and moves its true rate, which
    grows as the fill to the power k. The second term dominates in dense
    cells (k=8, n=2000 at m=16384: about 1.5 binomial standard errors),
    so the band adds both variances. At expected counts below one the
    normal band misleads (a single hit is already 4 binomial standard
    errors away), so a count inside the exact binomial tail of the same
    probability also passes.
    """
    fill = 1.0 - math.exp(-k * n / m)
    theory = fill ** k
    if binomial_two_sided_p(hits, trials, theory) >= FOUR_SIGMA_P:
        return True
    probes = k * n
    keep1, keep2 = (1 - 1 / m) ** probes, (1 - 2 / m) ** probes
    empty_var = m * keep1 + m * (m - 1) * keep2 - (m * keep1) ** 2
    rate_var = (k * fill ** (k - 1)) ** 2 * max(empty_var, 0.0) / m ** 2
    sigma = math.sqrt(trials * theory * (1 - theory) + trials ** 2 * rate_var)
    return abs(hits - trials * theory) <= 4 * sigma


def check_sweep(exit_code: int, sweep_csv: bytes, m: int, k_list, n_list,
                trials: int) -> tuple[int, int, list[str]]:
    """Judge one sweep; returns (cells attempted, cells failed, problems).

    A cell fails when its hit count lies outside the 4-sigma band around
    the closed form ``(1 - e^{-kn/m})^k`` (see ``within_four_sigma``).
    """
    expected = {(k, n) for k in k_list for n in n_list}
    attempted = len(expected)
    if exit_code != 0:
        return attempted, attempted, [f"sweep exited {exit_code}"]
    seen, failed, problems = set(), 0, []
    try:
        cells = [(int(r["m"]), int(r["k"]), int(r["n"]), int(r["trials"]),
                  float(r["fpr_theory"]), float(r["fpr_empirical"]))
                 for r in rows(sweep_csv)]
    except (KeyError, TypeError, ValueError) as exc:
        return attempted, attempted, [f"unreadable sweep output: {exc}"]
    for row_m, k, n, row_trials, row_theory, empirical in cells:
        theory = (1.0 - math.exp(-k * n / m)) ** k
        hits = round(empirical * row_trials)
        ok = (row_m == m and row_trials == trials
              and (k, n) in expected and (k, n) not in seen
              and math.isclose(row_theory, theory, rel_tol=1e-7, abs_tol=1e-15)
              and within_four_sigma(hits, trials, m, k, n))
        seen.add((k, n))
        if not ok:
            failed += 1
            problems.append(f"sweep cell k={k} n={n}: {hits} hits in "
                            f"{row_trials} trials vs theory {theory:.3g}")
    missing = len(expected - seen)
    if missing:
        problems.append(f"sweep is missing {missing} cells")
    return attempted, min(attempted, failed + missing), problems
