"""Large-L band ladders on closed-form blocks, timed.

    python tests/band_ladder_probe.py 32 64 128

For each L given, builds the clock's (L+1)-band block from its closed-form
data alone (`band_energies`, `overlap_coefficients`), with no dense H_S:
Delta is the band's own spacing, Delta_band = min_k (omega_{k+1} -
omega_k), so Omega_0 = r Delta_band with r set by eps = 0.1.  It builds the
exact-tau schedule and runs the density ladder, and prints one line per L:
the total time T, the infidelity 1 - F, and the seconds `build_schedule`
and `run_deterministic` took.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qsc.cooling import _band_block, build_schedule, run_deterministic  # noqa: E402
from qsc.models import band_energies, overlap_coefficients  # noqa: E402

EPS = 0.1


def probe(length: int) -> tuple[float, float, float, float]:
    """(T, 1 - F, schedule seconds, run seconds) of the L = `length` band
    ladder."""
    omegas = band_energies(length)
    setup = _band_block(omegas, overlap_coefficients(length), float(np.min(np.diff(omegas))),
                        f"band(L={length})")
    t0 = time.perf_counter()
    schedule = build_schedule(setup, eps=EPS)
    t1 = time.perf_counter()
    report = run_deterministic(setup, schedule, mode="density")
    t2 = time.perf_counter()
    return schedule.total_time, 1.0 - report.ground_fidelity, t1 - t0, t2 - t1


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(f"{'L':>5} {'T':>12} {'1 - F':>12} {'schedule_s':>11} {'run_s':>8}")
    for length in map(int, argv):
        total, infidelity, schedule_s, run_s = probe(length)
        print(f"{length:>5} {total:>12.5e} {infidelity:>12.4e} {schedule_s:>11.2f} {run_s:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
