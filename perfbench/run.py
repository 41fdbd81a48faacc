"""qsc benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload
    python3 perfbench/run.py --write-reference

Each run generates the workload's qsc config from the seed, runs
`qsc.cli.main` in a fresh process (perfbench/child.py) exactly as a batch
user would, times the whole process, and checks the outputs it wrote.
Runs are a closed loop: one at a time, for about S seconds.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of the
traced runs (perfbench/tracing.py), which alternate with untraced ones so
that the tracing overhead is measured in the same invocation.  Without
--workload every workload is measured untraced and traced, and a
single-threaded clock-ladder run is reported as an ungated calibration row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_PATH,
    REFERENCE_SEED,
    WORKLOADS,
    check_run,
    make_config,
    reference_values,
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A child process still running after this many seconds is killed.
RUN_TIMEOUT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Span names that must record calls on each workload; zero calls means the
# wrapping missed an alias and the traced run is refused.
REQUIRED_SPANS = {
    "clock-ladder": (
        "cli.load_config", "experiments.run", "models.build_clock",
        "models.clock_band_structure", "models.build_bath_and_couplings",
        "cooling.setup", "cooling.build_schedule", "cooling.cooling_step",
        "cooling.run_deterministic", "levelshift.solve_detuning",
        "linalg.Operator.validate", "linalg.DensityMatrix.validate",
        "linalg.partial_trace", "linalg.operator_norm", "linalg.lapack.eigh",
        "linalg.lapack.eigvalsh", "linalg.lapack.svd2norm",
    ),
    "search-traj": (
        "cli.load_config", "experiments.run", "models.build_grover",
        "models.grover_band_structure", "models.build_bath_and_couplings",
        "cooling.setup", "cooling.build_schedule", "cooling.run_deterministic",
        "levelshift.solve_detuning", "linalg.Operator.validate",
        "linalg.operator_norm", "linalg.lapack.eigh", "linalg.lapack.svd2norm",
    ),
    "bounds-lab": (
        "cli.load_config", "experiments.run", "bounds.run_suite",
        "bounds.check_protocol_lemmas", "levelshift.self_energy",
        "levelshift.make_context", "linalg.Operator.validate",
        "linalg.lapack.svd2norm", "linalg.lapack.solve", "linalg.lapack.eigh",
        "linalg.lapack.eigvalsh",
    ),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Run:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    problems: list[str] = field(default_factory=list)
    report: dict | None = None
    out_bytes: int = 0
    summary: dict | None = None  # traced runs: per span name
    layers: dict | None = None  # traced runs: per layer


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def cpu_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def launch(qsc_argv: list[str], work: Path, threads: int, mode: str = "run",
           traced: bool = False) -> Run:
    """Run one child process to completion; time it and read its rusage."""
    stamp = work / "stamp.json"
    trace_file = work / "spans.bin"
    for path in (stamp, trace_file):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(stamp),
           str(trace_file) if traced else "-", mode, "--", *qsc_argv]
    with open(work / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(threads), cwd=ROOT)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_s = None
    if stamp.exists():
        loaded = json.loads(stamp.read_text()).get("config_loaded")
        if loaded is not None:
            setup_s = loaded - t0
    run = Run(exit_code=proc.returncode, wall_s=t1 - t0,
              cpu_s=usage.ru_utime + usage.ru_stime,
              peak_rss_mb=usage.ru_maxrss / 1024.0, setup_s=setup_s)
    if traced and proc.returncode == 0:
        spans = tracing.load(trace_file)
        run.summary = tracing.summarize(spans)
        run.layers = tracing.summarize(spans, group=tracing.layer_of)
    return run


def stderr_tail(work: Path) -> str:
    text = (work / "stderr.txt").read_text(errors="replace").strip()
    return text[-400:]


class Session:
    """Runs of one workload and seed, in a private work directory."""

    def __init__(self, workload: str, seed: int, threads: int, size: str = "full",
                 compare_reference: bool = True):
        self.workload, self.threads = workload, threads
        self.cfg = make_config(workload, seed, size)
        self.reference = None
        if compare_reference and seed == REFERENCE_SEED and size == "full":
            self.reference = json.loads(REFERENCE_PATH.read_text())
        self.work = WORK_DIR / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg_path = self.work / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=1))
        self.out_dir = self.work / "out"

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run.py process is still using it

    def argv(self) -> list[str]:
        return [self.cfg["experiment"], "--config", str(self.cfg_path),
                "--out", str(self.out_dir)]

    def probe(self) -> float:
        """Set-up time of one set-up-only run."""
        run = launch(self.argv(), self.work, self.threads, mode="probe")
        if run.exit_code != 0 or run.setup_s is None:
            raise BenchError(f"set-up probe failed: {stderr_tail(self.work)}")
        return run.setup_s

    def run(self, traced: bool = False) -> Run:
        """One full run, with its outputs checked."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        run = launch(self.argv(), self.work, self.threads, traced=traced)
        run.problems, run.report = check_run(self.workload, self.cfg, run.exit_code,
                                             self.out_dir, self.reference)
        if run.exit_code != 0:
            run.problems.append(stderr_tail(self.work))
        elif self.out_dir.exists():
            run.out_bytes = sum(p.stat().st_size for p in self.out_dir.rglob("*")
                                if p.is_file())
        return run


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class Measurement:
    runs: list[Run] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    traced: list[Run] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.all_runs() if r.problems)

    def all_runs(self) -> list[Run]:
        return [*self.runs, *self.traced]


def measure(session: Session, seconds: float, traced: bool) -> Measurement:
    """Closed-loop runs for about `seconds` seconds.

    An untimed set-up probe (it fills the bytecode cache of a fresh
    checkout) is followed by rounds of one full run and one set-up probe,
    plus one traced run if `traced`.  Rounds go on while the next one is
    expected to end in time: at least one round, two when traced, so that
    the traced counts can be compared.  Probes and runs are spread over the
    whole window, so that both sample the same stretch of host speed.
    """
    deadline = time.monotonic() + seconds
    session.probe()
    m = Measurement()
    while True:
        run = session.run()
        m.runs.append(run)
        m.setups.append(session.probe())
        if run.setup_s is not None:
            m.setups.append(run.setup_s)
        if traced:
            m.traced.append(session.run(traced=True))
        expected = (statistics.median(r.wall_s for r in m.runs)
                    + statistics.median(m.setups))
        if traced:
            expected += statistics.median(r.wall_s for r in m.traced)
        if len(m.traced) != 1 and time.monotonic() + expected > deadline:
            break
    return m


def end_to_end_metrics(m: Measurement) -> dict[str, tuple[float, str, list[float]]]:
    samples = {
        "wall_s": [r.wall_s for r in m.runs],
        "cpu_s": [r.cpu_s for r in m.runs],
        "setup_s": m.setups,
        "peak_rss_mb": [r.peak_rss_mb for r in m.runs],
    }
    return {name: (statistics.median(samples[name]), unit, samples[name])
            for name, unit in END_TO_END}


def _row(summary: dict, name: str) -> dict:
    return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_n": 0, "n3": 0})


# (metric, unit, span name, key in its summary row)
SPAN_METRICS = (
    ("linalg.Operator.validate.calls", "count", "linalg.Operator.validate", "calls"),
    ("linalg.Operator.validate.s", "s", "linalg.Operator.validate", "s"),
    ("linalg.lapack.svd2norm.calls", "count", "linalg.lapack.svd2norm", "calls"),
    ("linalg.lapack.svd2norm.s", "s", "linalg.lapack.svd2norm", "s"),
    ("linalg.lapack.svd2norm.max_n", "count", "linalg.lapack.svd2norm", "max_n"),
    ("linalg.DensityMatrix.validate.calls", "count", "linalg.DensityMatrix.validate", "calls"),
    ("linalg.DensityMatrix.validate.s", "s", "linalg.DensityMatrix.validate", "s"),
    ("linalg.lapack.eigvalsh.calls", "count", "linalg.lapack.eigvalsh", "calls"),
    ("linalg.lapack.eigvalsh.s", "s", "linalg.lapack.eigvalsh", "s"),
    ("linalg.lapack.eigvalsh.max_n", "count", "linalg.lapack.eigvalsh", "max_n"),
    ("linalg.lapack.eigh.calls", "count", "linalg.lapack.eigh", "calls"),
    ("linalg.lapack.eigh.s", "s", "linalg.lapack.eigh", "s"),
    ("linalg.lapack.eigh.max_n", "count", "linalg.lapack.eigh", "max_n"),
    ("linalg.lapack.eigh.n3", "n3_computed", "linalg.lapack.eigh", "n3"),
    ("linalg.lapack.solve.calls", "count", "linalg.lapack.solve", "calls"),
    ("linalg.lapack.solve.s", "s", "linalg.lapack.solve", "s"),
    ("linalg.operator_norm.calls", "count", "linalg.operator_norm", "calls"),
    ("linalg.operator_norm.s", "s", "linalg.operator_norm", "s"),
    ("linalg.partial_trace.s", "s", "linalg.partial_trace", "s"),
    ("models.build_clock.s", "s", "models.build_clock", "s"),
    ("models.build_grover.calls", "count", "models.build_grover", "calls"),
    ("models.build_grover.s", "s", "models.build_grover", "s"),
    ("models.clock_band_structure.s", "s", "models.clock_band_structure", "s"),
    ("models.grover_band_structure.s", "s", "models.grover_band_structure", "s"),
    ("models.build_bath_and_couplings.calls", "count", "models.build_bath_and_couplings", "calls"),
    ("models.build_bath_and_couplings.s", "s", "models.build_bath_and_couplings", "s"),
    ("cooling.setup.s", "s", "cooling.setup", "s"),
    ("cooling.build_schedule.s", "s", "cooling.build_schedule", "s"),
    ("cooling.build_schedule.self_s", "s", "cooling.build_schedule", "self_s"),
    ("cooling.cooling_step.calls", "count", "cooling.cooling_step", "calls"),
    ("cooling.cooling_step.s", "s", "cooling.cooling_step", "s"),
    ("cooling.run_deterministic.s", "s", "cooling.run_deterministic", "s"),
    ("cooling.run_deterministic.self_s", "s", "cooling.run_deterministic", "self_s"),
    ("levelshift.self_energy.calls", "count", "levelshift.self_energy", "calls"),
    ("levelshift.self_energy.s", "s", "levelshift.self_energy", "s"),
    ("levelshift.self_energy.self_s", "s", "levelshift.self_energy", "self_s"),
    ("levelshift.solve_detuning.calls", "count", "levelshift.solve_detuning", "calls"),
    ("levelshift.solve_detuning.s", "s", "levelshift.solve_detuning", "s"),
    ("levelshift.make_context.s", "s", "levelshift.make_context", "s"),
    ("bounds.run_suite.s", "s", "bounds.run_suite", "s"),
    ("bounds.run_suite.self_s", "s", "bounds.run_suite", "self_s"),
    ("bounds.check_protocol_lemmas.s", "s", "bounds.check_protocol_lemmas", "s"),
    ("experiments.run.s", "s", "experiments.run", "s"),
    ("cli.load_config.s", "s", "cli.load_config", "s"),
)


LAYERS = ("models", "levelshift", "cooling", "bounds", "linalg", "lapack")


def per_layer_metrics(m: Measurement, cfg: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the median traced run of `m`: the named
    functions, whole layers (`layer.<name>.s` inclusive, `.self_s`
    exclusive of calls into wrapped functions), and counts read from the
    outputs."""
    run = sorted(m.traced, key=lambda r: r.wall_s)[(len(m.traced) - 1) // 2]
    summary, layers = run.summary, run.layers
    out = {name: (_row(summary, span)[key], unit)
           for name, unit, span, key in SPAN_METRICS}
    for layer in LAYERS:
        out[f"layer.{layer}.s"] = (_row(layers, layer)["s"], "s")
        if layer != "lapack":  # numpy calls nothing that is traced
            out[f"layer.{layer}.self_s"] = (_row(layers, layer)["self_s"], "s")
    out["experiments.self_s"] = (_row(layers, "experiments")["self_s"], "s")
    out["experiments.out_bytes"] = (run.out_bytes, "bytes")
    shots = run.report["report"]["shots"] if cfg["experiment"] == "grover" else 0
    det_s = _row(summary, "cooling.run_deterministic")["s"]
    out["cooling.shots_per_s"] = (shots / det_s if shots else 0.0, "1/s")
    instances = vacuous = 0
    if cfg["experiment"] == "bounds":
        for suite in run.report["suites"].values():
            instances += suite["instances"]
            vacuous += suite["vacuous"]
    out["bounds.instances"] = (instances, "count")
    out["bounds.vacuous_frac"] = (vacuous / instances if instances else 0.0, "frac")
    out["trace.overhead_s"] = (statistics.median(r.wall_s for r in m.traced)
                               - statistics.median(r.wall_s for r in m.runs), "s")
    return out


def check_required_spans(workload: str, summary: dict) -> list[str]:
    return [name for name in REQUIRED_SPANS[workload]
            if _row(summary, name)["calls"] == 0]


def span_counts(summary: dict) -> dict:
    return {name: (row["calls"], row["max_n"], row["n3"])
            for name, row in sorted(summary.items())}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    version = re.search(r'__version__\s*=\s*"([^"]+)"',
                        (ROOT / "src" / "qsc" / "__init__.py").read_text())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": cpu_threads(),
        "blas_threads": threads,
        "qsc": version.group(1) if version else "unknown",
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(workload: str, m: Measurement) -> None:
    for name, (value, unit, samples) in end_to_end_metrics(m).items():
        q1, q3 = quartiles(samples)
        print(f"{workload:13s} {name:12s} {fmt(value):>10s} {unit:3s}"
              f"  q1 {fmt(q1)}  q3 {fmt(q3)}  n={len(samples)}")
    attempted = len(m.all_runs())
    print(f"{workload:13s} {'failed_frac':12s} {fmt(m.failed / attempted):>10s}"
          f"       ({m.failed} of {attempted} runs)")
    for run in m.all_runs():
        for problem in run.problems:
            print(f"{workload:13s} FAILED: {problem}")


def print_per_layer(workload: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:13s} {name:40s} {fmt(value):>12s} {unit}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def contract_metrics(kind: str, metrics: dict) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, in its order."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]
    missing = [name for name in names if name not in metrics]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics nobody measures: {missing}")
    return {name: metrics[name] for name in names}


def traced_metrics(workload: str, m: Measurement, cfg: dict) -> dict:
    """Per-layer metrics of the traced runs of `m`, refusing traced runs that
    failed, recorded no calls of a layer the workload must enter, or
    counted different calls."""
    counts = []
    for run in m.traced:
        if run.summary is None:
            raise BenchError(f"{workload}: traced run failed: {run.problems}")
        missing = check_required_spans(workload, run.summary)
        if missing:
            raise BenchError(f"{workload}: traced run recorded no calls of {missing}")
        counts.append(span_counts(run.summary))
    if any(c != counts[0] for c in counts):
        raise BenchError(f"{workload}: traced runs counted different calls")
    print(f"{workload:13s} traced counts repeat across {len(counts)} runs")
    return per_layer_metrics(m, cfg)


def run_one(workload: str, seed: int, seconds: float, traced: bool, threads: int) -> str:
    """One workload: measure, print, and return the result line."""
    session = Session(workload, seed, threads)
    try:
        m = measure(session, seconds, traced)
    finally:
        session.close()
    print_end_to_end(workload, m)
    if traced:
        layer = traced_metrics(workload, m, session.cfg)
        print_per_layer(workload, layer)
        metrics = contract_metrics("per_layer", layer)
    else:
        metrics = contract_metrics("end_to_end", {
            name: (value, unit) for name, (value, unit, _) in end_to_end_metrics(m).items()})
    return result_line(m.failed == 0, len(m.all_runs()), m.failed, metrics)


def run_suite(seed: int, seconds: float, threads: int) -> str:
    """Every workload untraced and traced, plus the calibration row."""
    metrics: dict = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        session = Session(workload, seed, threads)
        try:
            m = measure(session, seconds, traced=False)
            t = measure(session, seconds, traced=True)
        finally:
            session.close()
        print_end_to_end(workload, m)
        layer = traced_metrics(workload, t, session.cfg)
        print_per_layer(workload, layer)
        for name, (value, unit, _) in end_to_end_metrics(m).items():
            metrics[f"{workload}.{name}"] = (value, unit)
        for name, value in layer.items():
            metrics[f"{workload}.{name}"] = value
        for part in (m, t):
            attempted += len(part.all_runs())
            failed += part.failed
    calibration = Session("clock-ladder", seed, 1)
    try:
        run = calibration.run()
    finally:
        calibration.close()
    attempted += 1
    failed += 1 if run.problems else 0
    print(f"calibration   clock-ladder with 1 BLAS thread (ungated): "
          f"wall_s {fmt(run.wall_s)}  cpu_s {fmt(run.cpu_s)}  "
          f"peak_rss_mb {fmt(run.peak_rss_mb)}  "
          f"{'ok' if not run.problems else run.problems}")
    return result_line(failed == 0, attempted, failed, metrics)


def write_reference(threads: int) -> None:
    """Store the reference-seed numbers every later run is compared with."""
    table = {}
    for workload in WORKLOADS:
        session = Session(workload, REFERENCE_SEED, threads, compare_reference=False)
        try:
            run = session.run()
        finally:
            session.close()
        if run.problems:
            raise BenchError(f"{workload}: {run.problems}")
        table[workload] = {"config": session.cfg,
                           "values": reference_values(session.cfg, run.report)}
        print(f"{workload}: reference stored")
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qsc" / "cli.py").is_file():
        print(f"no qsc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = cpu_threads()
    try:
        if args.write_reference:
            write_reference(threads)
            return 0
        print("environment: " + json.dumps(environment(threads), sort_keys=True))
        if args.workload is None:
            line = run_suite(args.seed, args.seconds, threads)
        else:
            line = run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace), threads)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
