"""Command-line interface tests: schemas of emitted files, byte-level
reproducibility, seed overrides, and the exit-code contract."""

import ast
import csv
import importlib.util
import json
from pathlib import Path

import pytest

from qsc import __version__, cli, config, experiments
from qsc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VIOLATION, load_config, main

ROOT = Path(__file__).resolve().parents[1]

SMALL = {
    "fig1": {"n_min": 4, "n_max": 5, "points": 60, "seed": 0},
    "grover": {"n": 3, "marked": [1], "r": 0.02, "seed": 0},
    "clock": {"n": 1, "circuit": ["G I 1", "G I 1"], "eps": 0.1, "seed": 0},
    "prob": {"n": 1, "circuit": ["G I 1", "G I 1"], "trials": 150, "seed": 0},
    "bounds": {"instances": 5, "seed": 0, "protocol": False},
    "spectrum": {"n": 1, "L_min": 2, "L_max": 3, "seed": 0},
}

EXPECTED_FILES = {
    "fig1": ["fig1_curves.csv", "fig1_summary.json"],
    "grover": ["grover_report.json"],
    "clock": ["clock_report.json"],
    "prob": ["prob_report.json"],
    "bounds": ["bounds_summary.json"],
    "spectrum": ["spectrum.csv", "spectrum_summary.json"],
}

CSV_COLUMNS = {
    "fig1_curves.csv": ["n", "detuning_rel", "fidelity"],
    "spectrum.csv": ["L", "h", "j", "omega_j", "x_j", "h_j", "delta", "h_s_norm"],
}


def run_cli(tmp_path, experiment, cfg, seed=None):
    cfg_path = tmp_path / f"{experiment}.json"
    cfg_path.write_text(json.dumps(cfg))
    args = [experiment, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if seed is not None:
        args += ["--seed", str(seed)]
    return main(args)


@pytest.mark.parametrize("experiment", list(SMALL))
def test_emits_expected_files(tmp_path, experiment):
    code = run_cli(tmp_path, experiment, SMALL[experiment])
    assert code == EXIT_OK
    out = tmp_path / "out"
    for name in EXPECTED_FILES[experiment]:
        path = out / name
        assert path.exists(), name
        if name.endswith(".json"):
            payload = json.loads(path.read_text())
            assert payload["version"] == __version__
            assert "config" in payload and "seed" in payload["config"]
        else:
            _check_csv_schema(path, name)


def _check_csv_schema(path: Path, name: str):
    lines = path.read_text().splitlines()
    assert lines[0].startswith(f"# qsc-{__version__} schema=")
    assert lines[1].startswith("# config=")
    json.loads(lines[1].removeprefix("# config="))  # config echo is valid JSON
    reader = csv.reader(line for line in lines if not line.startswith("#"))
    header = next(reader)
    assert header == CSV_COLUMNS[name]
    count = 0
    for row in reader:
        assert len(row) == len(header)
        for cell in row:
            float(cell)  # every cell numeric and parseable
        count += 1
    assert count > 0


@pytest.mark.parametrize("experiment", ["fig1", "clock", "prob", "spectrum", "bounds"])
def test_byte_identical_reruns(tmp_path, experiment):
    cfg = dict(SMALL[experiment])
    if experiment == "fig1":
        cfg.update(n_min=4, n_max=4, points=40)
    if experiment == "prob":
        cfg.update(trials=60)
    if experiment == "bounds":
        cfg.update(instances=3)

    blobs = []
    for tag in ("a", "b"):
        sub = tmp_path / tag
        sub.mkdir()
        code = run_cli(sub, experiment, cfg)
        assert code == EXIT_OK
        files = sorted((sub / "out").glob("*"))
        blobs.append({f.name: f.read_bytes() for f in files})
    assert blobs[0] == blobs[1]


def test_seed_override_changes_output(tmp_path):
    cfg = dict(SMALL["prob"])
    outputs = []
    for tag, seed in (("a", 1), ("b", 2)):
        sub = tmp_path / tag
        sub.mkdir()
        assert run_cli(sub, "prob", cfg, seed=seed) == EXIT_OK
        payload = json.loads((sub / "out" / "prob_report.json").read_text())
        assert payload["config"]["seed"] == seed
        outputs.append(payload["report"]["accept_count"])
    assert outputs[0] != outputs[1]


def test_missing_config_file(tmp_path):
    code = main(["clock", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_experiment_mismatch(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": "fig1"}))
    code = main(["clock", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_malformed_gates_file(tmp_path):
    gates = tmp_path / "bad.gates"
    gates.write_text("G FROB 1\n")
    cfg = {"n": 1, "gates_file": str(gates), "eps": 0.1}
    assert run_cli(tmp_path, "clock", cfg) == EXIT_CONFIG


def test_dimension_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("QSC_MAX_DIM", "4")
    cfg = {"n": 2, "circuit": ["G H 1", "G CX 1 2", "G I 1"], "eps": 0.1}
    assert run_cli(tmp_path, "clock", cfg) == EXIT_RESOURCE


def test_self_check_failure_is_reported_not_raised(tmp_path, monkeypatch, capsys):
    # a residual self-check that fails is an error line and exit 1, not a
    # traceback
    monkeypatch.setattr(config, "RESIDUAL_RTOL", -1.0)
    assert run_cli(tmp_path, "clock", SMALL["clock"]) == EXIT_VIOLATION
    err = capsys.readouterr().err
    assert err.startswith("error: legal-sector hopping block deviates")


SUMMARY_FILE = {
    "fig1": "fig1_summary.json",
    "grover": "grover_report.json",
    "clock": "clock_report.json",
    "prob": "prob_report.json",
    "bounds": "bounds_summary.json",
    "spectrum": "spectrum_summary.json",
}


@pytest.mark.parametrize("experiment,cfg", [
    *SMALL.items(),
    ("fig1", {"n_min": 4, "n_max": 14, "points": 50, "seed": 0}),  # 2390 characters
], ids=[*SMALL, "fig1-long"])
def test_stdout_is_the_summary_without_config(tmp_path, capsys, experiment, cfg):
    # stdout carries the whole summary line, however long
    assert run_cli(tmp_path, experiment, cfg) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    written = json.loads((tmp_path / "out" / SUMMARY_FILE[experiment]).read_text())
    del written["config"]
    assert printed == written


def test_bounds_replay_clean_and_corrupted(tmp_path):
    # a well-formed passing instance replays clean; a corrupted file
    # trips the violation exit with a dump
    good = {
        "suite": "weyl",
        "seed": 0,
        "h": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        "h_tilde": [[[1.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.1, 0.0]]],
    }
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(good))
    cfg = {"instances": 2, "protocol": False, "replay": [str(good_path)]}
    sub = tmp_path / "clean"
    sub.mkdir()
    assert run_cli(sub, "bounds", cfg) == EXIT_OK

    corrupt = dict(good)
    corrupt["h"] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]  # not Hermitian
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(corrupt))
    cfg = {"instances": 2, "protocol": False, "replay": [str(bad_path)]}
    sub = tmp_path / "dirty"
    sub.mkdir()
    assert run_cli(sub, "bounds", cfg) == EXIT_VIOLATION
    dumps = list((sub / "out").glob("violation_replay_*.json"))
    assert dumps


def test_unknown_suite_is_config_error(tmp_path):
    assert run_cli(tmp_path, "bounds", {"suites": ["frobnicate"], "instances": 1}) == EXIT_CONFIG


def test_clock_gates_file_roundtrip(tmp_path, circuits_dir):
    cfg = {"n": 2, "gates_file": str(circuits_dir / "bell_n2_L2.gates"), "eps": 0.1}
    assert run_cli(tmp_path, "clock", cfg) == EXIT_OK
    payload = json.loads((tmp_path / "out" / "clock_report.json").read_text())
    assert payload["report"]["ground_fidelity"] > 0.9
    assert payload["readout"]["output_fidelity_given_site"] > 0.99


@pytest.mark.parametrize("experiment,key", [("prob", "trails"), ("clock", "trials"),
                                            ("bounds", "instance")])
def test_unknown_key_is_config_error(tmp_path, capsys, experiment, key):
    # a misspelt key is refused, not run with the default it meant to replace
    cfg = dict(SMALL[experiment], **{key: 10})
    assert run_cli(tmp_path, experiment, cfg) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_gates_file_replaces_the_default_circuit(tmp_path, circuits_dir):
    gates = str(circuits_dir / "x_n1_L2.gates")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"n": 1, "gates_file": gates}))
    cfg = load_config(str(cfg_path), "clock")
    assert cfg["gates_file"] == gates and "circuit" not in cfg
    both = {"n": 1, "gates_file": gates, "circuit": ["G X 1", "G I 1"]}
    assert run_cli(tmp_path, "prob", both) == EXIT_CONFIG


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_and_benchmark_configs_load(tmp_path):
    # every shipped config and every benchmark config passes the key check
    for path in sorted((ROOT / "configs").glob("*.json")):
        load_config(str(path), json.loads(path.read_text())["experiment"])
    workloads = _perfbench_workloads()
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for seed in (0, 1, 7, 123):
                cfg = workloads.make_config(workload, seed, size)
                path = tmp_path / f"{workload}-{size}-{seed}.json"
                path.write_text(json.dumps(cfg))
                loaded = load_config(str(path), cfg["experiment"])
                assert loaded["seed"] == seed


def _keys_read(functions: dict, name: str) -> set:
    """The config keys a function of experiments.py reads (`cfg.get(k)`,
    `cfg[k]`, `k in cfg`), with those of the helpers it hands cfg to."""
    keys = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in functions and any(getattr(a, "id", None) == "cfg"
                                                 for a in node.args):
                keys |= _keys_read(functions, node.func.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and getattr(node.func.value, "id", None) == "cfg"):
            keys.add(node.args[0].value)
        elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg":
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Compare)
              and getattr(node.comparators[0], "id", None) == "cfg"):
            keys.add(node.left.value)
    return keys


def test_declared_keys_are_the_keys_read():
    # the accepted keys are what each experiment reads: none missing (it
    # would be refused) and no optional key that nothing reads
    tree = ast.parse(Path(experiments.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for experiment, runner in cli._RUNNERS.items():
        read = _keys_read(functions, runner.__name__)
        assert read <= set(cli._DEFAULTS[experiment]) | set(cli._OPTIONAL[experiment])
        assert set(cli._OPTIONAL[experiment]) <= read, experiment
