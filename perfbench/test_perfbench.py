"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_repeat_for_the_same_seed(workload):
    for seed in (0, 1, 17):
        assert workloads.make_config(workload, seed) == workloads.make_config(workload, seed)
    assert workloads.make_config(workload, 1)["seed"] == 1


def test_configs_vary_with_the_seed():
    circuits = {tuple(workloads.make_config("clock-ladder", s)["circuit"]) for s in range(8)}
    marked = {workloads.make_config("search-traj", s)["marked"][0] for s in range(8)}
    assert len(circuits) > 1 and len(marked) > 1


@pytest.fixture(scope="module")
def small_runs():
    """Two traced small runs of every workload."""
    runs = {}
    for workload in workloads.WORKLOADS:
        session = bench.Session(workload, 0, threads=1, size="small")
        try:
            runs[workload] = (session.cfg, [session.run(traced=True) for _ in range(2)])
        finally:
            session.close()
    return runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_runs_pass_the_output_check(small_runs, workload):
    _, runs = small_runs[workload]
    for run in runs:
        assert run.exit_code == 0
        assert run.problems == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_across_two_runs(small_runs, workload):
    _, (first, second) = small_runs[workload]
    assert bench.check_required_spans(workload, first.summary) == []
    assert bench.span_counts(first.summary) == bench.span_counts(second.summary)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_listed_metric_is_measured(small_runs, workload):
    cfg, (first, second) = small_runs[workload]
    m = bench.Measurement(runs=[second], setups=[0.1], traced=[first, second])
    layer = bench.traced_metrics(workload, m, cfg)
    assert list(bench.contract_metrics("per_layer", layer)) == [
        entry["name"] for entry in json.loads((BENCH_DIR.parent / "BENCHMARK.json")
                                              .read_text())["per_layer"]]
    end = {name: (v, u) for name, (v, u, _) in bench.end_to_end_metrics(m).items()}
    assert set(bench.contract_metrics("end_to_end", end)) == set(end)


CORRUPTIONS = {
    "clock-ladder": [
        lambda r: r["report"].update(trace_residual=1e-9),
        lambda r: r["report"].update(min_eigenvalue=-1e-9),
        lambda r: r["report"].update(ground_fidelity=0.5),
    ],
    "search-traj": [lambda r: r["report"].update(ground_fidelity=0.5)],
    "bounds-lab": [
        lambda r: r.update(violations_found=True),
        lambda r: next(iter(r["suites"].values())).update(passes=-1),
    ],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_output_check_rejects_corrupted_reports(small_runs, workload):
    cfg, (run, _) = small_runs[workload]
    assert workloads.check_invariants(cfg, run.report) == []
    for corrupt in CORRUPTIONS[workload]:
        report = copy.deepcopy(run.report)
        corrupt(report)
        assert workloads.check_invariants(cfg, report) != []


def test_output_check_rejects_a_non_zero_exit_and_a_missing_report(tmp_path):
    cfg = workloads.make_config("clock-ladder", 0, "small")
    assert workloads.check_run("clock-ladder", cfg, 2, tmp_path, None) == (["exit code 2"], None)
    problems, _ = workloads.check_run("clock-ladder", cfg, 0, tmp_path, None)
    assert problems[0].startswith("unreadable report")
    (tmp_path / "clock_report.json").write_text(json.dumps({"report": {}}))
    problems, _ = workloads.check_run("clock-ladder", cfg, 0, tmp_path, None)
    assert problems[0].startswith("malformed report")


def test_reference_check_rejects_a_moved_number(small_runs):
    cfg, (run, _) = small_runs["bounds-lab"]
    values = workloads.reference_values(cfg, run.report)
    reference = {"bounds-lab": {"config": cfg, "values": values}}
    assert workloads.check_reference("bounds-lab", cfg, run.report, reference) == []
    moved = copy.deepcopy(reference)
    key = next(k for k in values if k.endswith(".passes"))
    moved["bounds-lab"]["values"][key] += 1
    assert workloads.check_reference("bounds-lab", cfg, run.report, moved) != []
    exponent = next(k for k in values if k.endswith("_exponent"))
    moved = copy.deepcopy(reference)
    moved["bounds-lab"]["values"][exponent] *= 1 + 1e-6
    assert workloads.check_reference("bounds-lab", cfg, run.report, moved) != []


def test_stored_reference_matches_the_generated_configs():
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    for workload in workloads.WORKLOADS:
        assert reference[workload]["config"] == workloads.make_config(
            workload, workloads.REFERENCE_SEED)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_nested_call():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def inner():
        clock.now += 2.0

    inner = tracer.wrap("m.inner", inner)

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 3.0
        inner()
        clock.now += 0.5

    outer = tracer.wrap("m.outer", outer)

    def recursive(depth):
        clock.now += 1.0
        if depth:
            recursive(depth - 1)

    recursive = tracer.wrap("m.recursive", recursive)
    outer()
    recursive(2)
    summary = tracing.summarize(tracer.spans())
    assert summary["m.outer"] == {"calls": 1, "s": 8.5, "self_s": 4.5, "max_n": 0, "n3": 0}
    assert summary["m.inner"]["calls"] == 2
    assert summary["m.inner"]["s"] == 4.0 and summary["m.inner"]["self_s"] == 4.0
    # nested in itself: inclusive time counts the outermost call only
    assert summary["m.recursive"]["calls"] == 3
    assert summary["m.recursive"]["s"] == 3.0 and summary["m.recursive"]["self_s"] == 3.0
    layers = tracing.summarize(tracer.spans(), group=tracing.layer_of)
    assert layers["m"]["s"] == 11.5 and layers["m"]["self_s"] == 11.5


def test_spans_survive_save_and_load(tmp_path):
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    f = tracer.wrap("m.f", lambda a: clock.__setattr__("now", clock.now + 1.0),
                    tracing._matrix_size)

    class Square:
        shape = (3, 3)

    f(Square())
    tracer.save(tmp_path / "spans.bin")
    assert tracing.summarize(tracing.load(tmp_path / "spans.bin")) == {
        "m.f": {"calls": 1, "s": 1.0, "self_s": 1.0, "max_n": 3, "n3": 27}}


def test_install_rebinds_aliases_and_uninstall_restores():
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import numpy as np
    from qsc import bounds, cli, cooling, experiments, levelshift

    originals = (levelshift.self_energy, bounds.self_energy, cooling.solve_detuning,
                 experiments.run_deterministic, cli._RUNNERS["clock"], np.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bounds.self_energy is levelshift.self_energy is not originals[0]
        assert cooling.solve_detuning is levelshift.solve_detuning is not originals[2]
        assert experiments.run_deterministic is cooling.run_deterministic
        assert cli._RUNNERS["clock"] is experiments.run_clock is not originals[4]
        assert np.linalg.eigh is not originals[5]
        np.linalg.norm(np.eye(3), 2)
        np.linalg.norm(np.ones(3))
    finally:
        tracer.uninstall()
    assert (levelshift.self_energy, bounds.self_energy, cooling.solve_detuning,
            experiments.run_deterministic, cli._RUNNERS["clock"], np.linalg.eigh) == originals
    summary = tracing.summarize(tracer.spans())
    assert summary["linalg.lapack.svd2norm"]["calls"] == 1


def test_traced_runs_that_count_differently_are_refused(small_runs):
    cfg, (first, second) = small_runs["clock-ladder"]
    changed = copy.deepcopy(second)
    changed.summary["linalg.lapack.eigh"]["calls"] += 1
    m = bench.Measurement(runs=[second], setups=[0.1], traced=[first, changed])
    with pytest.raises(bench.BenchError, match="different calls"):
        bench.traced_metrics("clock-ladder", m, cfg)
