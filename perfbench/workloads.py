"""The benchmark's workloads: seeded qsc configs and the checks on their outputs.

Each workload is one `qsc` command whose config is generated from the
benchmark seed; qsc itself sees only the generated config.  After every
run the outputs that command wrote are checked against invariants that
hold for any seed and, for the reference seed, against stored values.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("clock-ladder", "search-traj", "bounds-lab")

# Seed whose outputs are also compared with perfbench/reference.json.
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Gates the clock-ladder circuit is drawn from.
CLOCK_GATES = ("H", "S", "T", "X", "Y", "Z")

# Full sizes are the benchmark: each run takes a few seconds, so that about
# ten runs fit in one measurement and their median is steady.  Small sizes
# keep the benchmark's own tests fast.
SIZES = {
    "full": {"clock_length": 6, "search_n": 8, "shots": 2000, "instances": 25},
    "small": {"clock_length": 2, "search_n": 3, "shots": 50, "instances": 2},
}

REPORT_FILE = {
    "clock": "clock_report.json",
    "grover": "grover_report.json",
    "bounds": "bounds_summary.json",
}

# Hygiene bound on trace residual and on -(minimum eigenvalue).
HYGIENE_TOL = 1e-12
# A trajectory fidelity may sit this many binomial standard errors below 1.
TRAJECTORY_Z = 4.0
# Relative tolerance for the deterministic reference numbers.  The clock
# ladder's pulse times reach ~1e9 in units of 1/|H|, so a rounding change in
# the eigensolver (another BLAS thread count, say) moves its propagated
# probabilities by up to t * eps * |H| ~ 4e-6 relative; 1 and 2 BLAS threads
# differ by 3e-7.  The other workloads agree to 1e-13 across thread counts.
REFERENCE_RTOL = {"clock-ladder": 1e-5, "search-traj": 1e-8, "bounds-lab": 1e-8}


def make_config(workload: str, seed: int, size: str = "full") -> dict:
    """The qsc config of `workload` for benchmark seed `seed`.

    The same (workload, seed, size) always gives the same config.
    """
    s = SIZES[size]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "clock-ladder":
        return {
            "experiment": "clock",
            "n": 1,
            "circuit": [f"G {rng.choice(CLOCK_GATES)} 1" for _ in range(s["clock_length"])],
            "eps": 0.1,
            "tau_mode": "exact",
            "mode": "density",
            "seed": seed,
        }
    if workload == "search-traj":
        n = s["search_n"]
        return {
            "experiment": "grover",
            "n": n,
            "marked": [format(rng.randrange(2 ** n), f"0{n}b")],
            "r": 0.02,
            "tau_mode": "exact",
            "mode": "trajectory",
            "shots": s["shots"],
            "seed": seed,
        }
    if workload == "bounds-lab":
        return {
            "experiment": "bounds",
            "suites": "all",
            "instances": s["instances"],
            "protocol": True,
            "seed": seed,
        }
    raise ValueError(f"unknown workload {workload!r}")


def read_report(cfg: dict, out_dir: Path) -> dict:
    return json.loads((out_dir / REPORT_FILE[cfg["experiment"]]).read_text())


def check_invariants(cfg: dict, report: dict) -> list[str]:
    """Problems with a report that would be problems for any seed."""
    problems = []
    kind = cfg["experiment"]
    if kind in ("clock", "grover"):
        rep = report["report"]
        if not rep["trace_residual"] <= HYGIENE_TOL:
            problems.append(f"trace_residual {rep['trace_residual']:.3e}")
        if not -rep["min_eigenvalue"] <= HYGIENE_TOL:
            problems.append(f"min_eigenvalue {rep['min_eigenvalue']:.3e}")
        fid = rep["ground_fidelity"]
        if kind == "clock" and not fid >= 1.0 - cfg["eps"]:
            problems.append(f"ground fidelity {fid!r} below 1 - eps")
        if kind == "grover":
            shots = rep["shots"]
            # binomial standard error with the (k+1)/(shots+2) estimate of the
            # failure rate, so that zero observed failures still has an error
            q = (shots * (1.0 - fid) + 1.0) / (shots + 2.0)
            sigma = math.sqrt(q * (1.0 - q) / shots)
            if not (0.0 <= 1.0 - fid <= TRAJECTORY_Z * sigma):
                problems.append(
                    f"trajectory fidelity {fid!r} not within {TRAJECTORY_Z} sigma of 1"
                )
    if kind == "bounds":
        if report["violations_found"] is not False:
            problems.append("bound violations found")
        for name, suite in report["suites"].items():
            if suite["passes"] + suite["vacuous"] != suite["instances"]:
                problems.append(f"suite {name}: passes + vacuous != instances")
    return problems


def reference_values(cfg: dict, report: dict) -> dict:
    """The numbers of a report that are compared with the stored reference."""
    kind = cfg["experiment"]
    if kind == "clock":
        rep = report["report"]
        return {
            "ground_fidelity": rep["ground_fidelity"],
            "per_step_up_probability": rep["per_step_up_probability"],
            "total_time": rep["total_time"],
            "h_norm": rep["h_norm"],
            "delta": report["delta"],
            "readout_ground_fidelity": report["readout"]["ground_fidelity"],
            "final_site_probability": report["readout"]["final_site_probability"],
        }
    if kind == "grover":
        rep = report["report"]
        return {
            "successes": round(rep["ground_fidelity"] * rep["shots"]),
            "per_step_up_probability": rep["per_step_up_probability"],
            "total_time": rep["total_time"],
            "h_norm": rep["h_norm"],
        }
    out = {
        f"{name}.{key}": suite[key]
        for name, suite in sorted(report["suites"].items())
        for key in ("instances", "passes", "vacuous")
    }
    for family, fits in sorted(report["protocol_scaling"].items()):
        if isinstance(fits, dict):
            for key, value in sorted(fits.items()):
                if key.endswith("_exponent"):
                    out[f"protocol.{family}.{key}"] = value
    return out


def check_reference(workload: str, cfg: dict, report: dict, reference: dict) -> list[str]:
    """Differences from the stored reference: counts exactly, floats to a
    relative tolerance."""
    expected = reference[workload]
    if expected["config"] != cfg:
        return ["reference was stored for another config"]
    actual = reference_values(cfg, report)
    rtol = REFERENCE_RTOL[workload]
    problems = []
    for key, want in expected["values"].items():
        got = actual.get(key)
        if not _matches(got, want, rtol):
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems


def _matches(got, want, rtol: float) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(g, w, rtol) for g, w in zip(got, want)))
    if isinstance(want, int):
        return got == want
    return isinstance(got, float) and math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12)


def check_run(workload: str, cfg: dict, exit_code: int, out_dir: Path,
              reference: dict | None) -> tuple[list[str], dict | None]:
    """All problems with one run (an empty list means it passed) and the
    report it wrote.

    `reference` is the stored reference table, or None to skip the
    comparison (any seed but the reference seed, or a small size).
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    try:
        report = read_report(cfg, out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"], None
    try:
        problems = check_invariants(cfg, report)
        if not problems and reference is not None:
            problems = check_reference(workload, cfg, report, reference)
    except (KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"], report
    return problems, report
