"""The benchmark's workloads and the inputs each one derives from a seed.

Every workload is one user session of the ``nicsieve`` command: program
filters from a rule set (``build``), generate a labelled capture
(``gen``), filter it (``scan``) and characterize the filters' false-
positive rate (``sweep``). The workloads differ in the shape of those
inputs, chosen so that each stresses a different layer:

* ``small-frames``: short payloads, so per-packet costs (pcap read,
  parse, the decision loop) dominate the scan rather than hashing; its
  sweep runs the 4x4 (k, n) calibration grid, the only path into
  ``check_many`` and ``analytics``.
* ``many-len-hostile``: payloads up to the MTU, ten pattern lengths,
  denser filters and a quarter of the packets carrying attacks, so window
  hashing, probes and the exact baseline dominate per byte, set-up
  programs the most patterns, and the forward side (verify, the
  forwarded capture, the decision log) does real work.

The rules (random distinct byte patterns) come from the seed here; the
capture comes from ``nicsieve gen`` with the same seed. The program only
ever sees the generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The filter shape every workload builds with: the CLI defaults.
FILTER_M = 16384
FILTER_K = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lengths: tuple[int, ...]
    patterns: int
    frames: int
    payload: tuple[int, int]
    attack_fraction: float
    sweep_k: tuple[int, ...]
    # None: one cell per distinct per-length pattern count of the rules,
    # i.e. the calibration of exactly the filters the scan uses
    sweep_n: tuple[int, ...] | None
    sweep_trials: int

    def per_length_counts(self) -> dict[int, int]:
        base, extra = divmod(self.patterns, len(self.lengths))
        return {length: base + (1 if i < extra else 0)
                for i, length in enumerate(self.lengths)}

    def sweep_grid(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n_list = self.sweep_n
        if n_list is None:
            n_list = tuple(sorted(set(self.per_length_counts().values())))
        return self.sweep_k, n_list

    def rules_text(self, seed: int) -> str:
        """The rule file: distinct random patterns, hex-encoded, per length."""
        rng = random.Random(f"nicsieve-bench:{self.name}:{seed}")
        lines = []
        for length, count in self.per_length_counts().items():
            drawn: set[bytes] = set()
            while len(drawn) < count:
                drawn.add(rng.randbytes(length))
            for pattern in sorted(drawn):
                lines.append(f"L{length}-{len(lines)},hex,{pattern.hex()}")
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="small-frames",
        why="short payloads and 3 lengths: per-packet read, parse and "
            "decision costs dominate the scan; sweeps the 4x4 (k, n) FPR grid",
        lengths=(6, 9, 14), patterns=300, frames=20_000, payload=(30, 120),
        attack_fraction=0.02, sweep_k=(2, 4, 6, 8),
        sweep_n=(100, 500, 1000, 2000), sweep_trials=25_000),
    Workload(
        name="many-len-hostile",
        why="10 lengths, 2000 patterns, 25% attacks: ten hash passes per "
            "byte, dense filters, and the forward side (verify, log) works",
        lengths=tuple(range(6, 16)), patterns=2000, frames=2_000,
        payload=(200, 1400), attack_fraction=0.25, sweep_k=(FILTER_K,),
        sweep_n=None, sweep_trials=100_000),
)}
