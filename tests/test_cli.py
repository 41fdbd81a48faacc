"""Command-line interface tests: schemas of emitted files, byte-level
reproducibility, seed overrides, and the exit-code contract."""

import ast
import contextlib
import csv
import importlib.util
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import __version__, bounds, cli, config, experiments
from qsc.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VIOLATION,
    load_config,
    main,
    resolve_config,
)
from qsc.errors import (
    ConfigError,
    CouplingTooLarge,
    DimensionTooLarge,
    ParseError,
    QscError,
    UnresolvedSplitting,
)

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


@pytest.mark.parametrize("literal", ["[[1,0],[0,{}]]", "[[None,0],[0,1]]"])
def test_gate_literal_that_is_not_a_number(tmp_path, capsys, literal):
    # a non-numeric entry is a parse error naming its line, not a traceback
    # or a NaN that fails later as an SVD error
    gates = tmp_path / "bad.gates"
    gates.write_text(f"G {literal} 1\nG I 1\n")
    cfg = {"n": 1, "gates_file": str(gates), "eps": 0.1}
    assert run_cli(tmp_path, "clock", cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "line 1" in err
    assert not (tmp_path / "out").exists()


def test_dimension_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("QSC_MAX_DIM", "4")
    cfg = {"n": 2, "circuit": ["G H 1", "G CX 1 2", "G I 1"], "eps": 0.1}
    assert run_cli(tmp_path, "clock", cfg) == EXIT_RESOURCE


@pytest.mark.parametrize("experiment,cfg,code", [
    # the search path's largest array is the 2^n fiducial: 2^6 = 8^2 fits
    ("grover", {"n": 6, "marked": [1], "r": 0.02}, EXIT_OK),
    ("grover", {"n": 7, "marked": [1], "r": 0.02}, EXIT_RESOURCE),
    # the clock's is the dense H_S, 4^(n+L) entries: n + L = 3 fits
    ("clock", {"n": 1, "circuit": ["G H 1", "G T 1"], "eps": 0.1}, EXIT_OK),
    ("clock", {"n": 1, "circuit": ["G H 1", "G T 1", "G X 1"], "eps": 0.1}, EXIT_RESOURCE),
])
def test_the_cap_bounds_the_largest_array(tmp_path, monkeypatch, experiment, cfg, code):
    # one rule for both models: the largest array a run allocates holds at
    # most cap^2 entries
    monkeypatch.setenv("QSC_MAX_DIM", "8")
    assert run_cli(tmp_path, experiment, dict(cfg, seed=0)) == code
    assert (tmp_path / "out").exists() == (code == EXIT_OK)


@pytest.mark.parametrize("experiment,cfg,code", [
    # trajectory mode draws shots x (steps + 1) uniforms: 2 per shot here
    ("grover", {"n": 3, "marked": [1], "mode": "trajectory", "shots": 32}, EXIT_OK),
    ("grover", {"n": 3, "marked": [1], "mode": "trajectory", "shots": 50}, EXIT_RESOURCE),
    # the qutrit scheme draws 3 uniforms per trial
    ("prob", {"n": 1, "circuit": ["G I 1", "G I 1"], "trials": 21}, EXIT_OK),
    ("prob", {"n": 1, "circuit": ["G I 1", "G I 1"], "trials": 30}, EXIT_RESOURCE),
])
def test_the_cap_bounds_the_shot_and_trial_uniforms(tmp_path, monkeypatch, experiment, cfg,
                                                    code):
    # the uniforms of every shot or trial are one array, refused past cap^2
    # entries before it is allocated
    monkeypatch.setenv("QSC_MAX_DIM", "8")
    assert run_cli(tmp_path, experiment, dict(cfg, seed=0)) == code
    assert (tmp_path / "out").exists() == (code == EXIT_OK)


@pytest.mark.parametrize("instances,code", [(16, EXIT_OK), (17, EXIT_RESOURCE)])
def test_the_cap_bounds_the_bound_instances(tmp_path, monkeypatch, capsys, instances, code):
    # one seed word per instance: more than cap^2 is refused before any
    # suite runs, naming the key
    monkeypatch.setenv("QSC_MAX_DIM", "4")
    cfg = {"instances": instances, "protocol": False, "seed": 0}
    assert run_cli(tmp_path, "bounds", cfg) == code
    assert (tmp_path / "out").exists() == (code == EXIT_OK)
    if code == EXIT_RESOURCE:
        assert "'instances' would hold 17 entries" in capsys.readouterr().err


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


def _seed_five_dump(suite: str) -> dict:
    """The dump payload of the seed-5 instance of a suite."""
    draw, _, dim = bounds.SUITES[suite]
    return bounds._payload(draw(np.array([5], dtype=np.uint64), dim), 0) | {"suite": suite,
                                                                            "seed": 5}


@pytest.mark.parametrize("suite,change", [
    ("spectral_correspondence", {"gap": float("nan")}),
    ("subspace_overlap", {"gap": -1.0}),
    ("corollaries", {"gap": float("nan")}),
    ("spectral_correspondence", {"window": [1.0, -1.0]}),
    ("subspace_overlap", {"window": [-1.0, float("inf")]}),
    ("corollaries", {"v": [[[0.0, 0.0]]]}),
    ("sylvester", {"x": [[[float("nan"), 0.0]]]}),
], ids=["nan-gap", "negative-gap", "corollaries-nan-gap", "reversed-window",
        "infinite-window", "v-shape", "nan-x"])
def test_a_replay_with_a_bad_gap_window_shape_or_x_is_a_corrupted_dump(tmp_path, suite, change):
    # a dump that decodes to no valid instance is recorded like a
    # non-Hermitian matrix: passed false with the error, and a dump
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_seed_five_dump(suite) | change))
    cfg = {"suites": ["weyl"], "instances": 1, "protocol": False, "replay": [str(path)]}
    assert run_cli(tmp_path, "bounds", cfg) == EXIT_VIOLATION
    summary = json.loads((tmp_path / "out" / "bounds_summary.json").read_text())
    (entry,) = summary["replays"]
    assert entry["passed"] is False and entry["error"].startswith("ValueError: ")
    assert (tmp_path / "out" / "violation_replay_bad.json").exists()


def test_an_unreadable_replay_is_a_config_error(tmp_path, capsys, monkeypatch):
    # every replay path is read before the first suite runs: a missing file
    # or a directory is refused as a config error naming the key, and
    # nothing is written; a readable file that holds no JSON stays a
    # recorded corrupted dump
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_seed_five_dump("weyl")))
    run_suite = bounds.run_suite

    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(bounds, "run_suite", no_run)
    for unreadable in (tmp_path / "no_such.json", tmp_path):
        cfg = {"suites": ["weyl"], "instances": 1, "protocol": False,
               "replay": [str(good), str(unreadable)]}
        assert run_cli(tmp_path, "bounds", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'replay'" in err
        assert not (tmp_path / "out").exists()
    monkeypatch.setattr(bounds, "run_suite", run_suite)
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff{not json")
    cfg = {"suites": ["weyl"], "instances": 1, "protocol": False,
           "replay": [str(good), str(garbled)]}
    assert run_cli(tmp_path, "bounds", cfg) == EXIT_VIOLATION
    clean, corrupted = json.loads((tmp_path / "out" / "bounds_summary.json").read_text())[
        "replays"]
    assert clean["passed"] is True
    assert corrupted["passed"] is False and "error" in corrupted


def test_unknown_suite_is_config_error(tmp_path, capsys, monkeypatch):
    # every suite name is checked before the first suite runs
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(bounds, "run_suite", no_run)
    cfg = {"suites": ["weyl", "frobnicate"], "instances": 1}
    assert run_cli(tmp_path, "bounds", cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "'suites' names unknown suite(s): 'frobnicate'" in err


@pytest.mark.parametrize("grid", [[0.04, 0.0], [0.04, -0.02], [], [0.04], [0.02, 0.02],
                                  [0.5, 0.3, 0.2]])
def test_a_bad_r_grid_is_config_error(tmp_path, capsys, monkeypatch, grid):
    # a zero or negative ratio, one outside r < 1/8, or fewer than two
    # distinct ratios to fit an exponent through: refused before a suite runs
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(bounds, "run_suite", no_run)
    assert run_cli(tmp_path, "bounds", {"instances": 1, "r_grid": grid}) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'r_grid'" in err


def test_an_r_grid_lost_in_roundoff_is_config_error(tmp_path, capsys):
    # r = 1e-16 passes the grid check, but its splittings are roundoff
    cfg = {"suites": ["weyl"], "instances": 1, "r_grid": [1e-15, 1e-16, 1e-17]}
    assert run_cli(tmp_path, "bounds", cfg) == EXIT_CONFIG
    assert "exact splitting" in capsys.readouterr().err


def test_clock_gates_file_roundtrip(tmp_path, circuits_dir):
    cfg = {"n": 2, "gates_file": str(circuits_dir / "bell_n2_L2.gates"), "eps": 0.1}
    assert run_cli(tmp_path, "clock", cfg) == EXIT_OK
    payload = json.loads((tmp_path / "out" / "clock_report.json").read_text())
    assert payload["report"]["ground_fidelity"] > 0.9
    # the cooled history state spreads evenly over the L + 1 clock sites
    readout = payload["readout"]
    assert readout["final_site_probability"] == pytest.approx(
        readout["expected_site_weight"], rel=1e-3)
    assert "output_fidelity_given_site" not in readout


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
    # each runner reads exactly the keys its table declares: none it reads
    # is refused, none it accepts goes unread.  Every experiment takes a
    # seed (--seed sets it, every output echoes it), though fig1 and
    # spectrum draw no random numbers.
    tree = ast.parse(Path(experiments.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for experiment, runner in cli._RUNNERS.items():
        read = _keys_read(functions, runner.__name__)
        assert read | {"seed"} == set(experiments.CONFIG_KEYS[experiment]), experiment


def _json_kinds(kind) -> set:
    """The kinds of JSON value a declared config type admits."""
    if isinstance(kind, tuple):
        return set().union(*map(_json_kinds, kind))
    if isinstance(kind, list):
        return {"list"}
    if isinstance(kind, str):
        return {"str"}
    return {"int", "float"} if kind is float else {kind.__name__}


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-9, 9),
                     st.floats(-9, 9, allow_nan=False), st.text(max_size=4))
_JSON_VALUES = {
    "NoneType": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-9, 9),
    "float": st.floats(-9, 9, allow_nan=False),
    "str": st.text(max_size=4),
    "list": st.lists(_SCALARS, max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
}


@st.composite
def _mistyped(draw):
    """(experiment, declared key, a JSON value of a kind the key does not
    admit)."""
    experiment = draw(st.sampled_from(sorted(experiments.CONFIG_KEYS)))
    keys = experiments.CONFIG_KEYS[experiment]
    key = draw(st.sampled_from(sorted(keys)))
    kind = draw(st.sampled_from(sorted(set(_JSON_VALUES) - _json_kinds(keys[key][0]))))
    return experiment, key, draw(_JSON_VALUES[kind])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_mistyped())
def test_mistyped_value_is_refused_before_the_run(case):
    experiment, key, value = case
    with pytest.raises(ConfigError, match=repr(key)):
        resolve_config({key: value}, experiment)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "c.json"
        cfg_path.write_text(json.dumps({key: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([experiment, "--config", str(cfg_path), "--out", f"{tmp}/out"])
        assert code == EXIT_CONFIG
        assert err.getvalue().startswith("config error:") and repr(key) in err.getvalue()
        assert not (Path(tmp) / "out").exists()


MISREAD = [
    ("clock", {"omega": "1"}, "'omega'"),
    ("grover", {"marked": 5}, "'marked'"),
    ("grover", {"detuning": "corected"}, "'detuning'"),
    ("bounds", {"protocol": "no"}, "'protocol'"),
    ("bounds", {"suites": "weyl"}, "'suites'"),
    ("fig1", {"n_max": 4.5}, "'n_max'"),
    ("bounds", {"instances": "3"}, "'instances'"),  # strings are not coerced
    ("grover", {"marked": [True]}, "'marked'"),  # list elements are checked
    ("clock", {"circuit": ["G I 1", 1]}, "'circuit'"),
    ("bounds", {"r_grid": [0.04, "0.02"]}, "'r_grid'"),
    ("spectrum", {"h_grid": [0.1, None]}, "'h_grid'"),
    # counts are named as the config key, whatever the mode
    ("grover", {"mode": "trajectory", "shots": 0}, "'shots' must be >= 1, got 0"),
    ("clock", {"mode": "trajectory", "shots": 0}, "'shots' must be >= 1, got 0"),
    ("grover", {"shots": 0}, "'shots' must be >= 1, got 0"),
    ("prob", {"trials": 0}, "'trials' must be >= 1, got 0"),
    # a round limit below 1 is hit at once: it would reset the sampling
    # window on every failure, so no tau doubling is ever made
    ("prob", {"max_rounds": 0}, "'max_rounds' must be >= 1, got 0"),
    ("prob", {"max_rounds": -1}, "'max_rounds' must be >= 1, got -1"),
    ("grover", {"ensemble_draws": -5}, "'ensemble_draws' must be >= 0, got -5"),
    ("fig1", {"points": 9}, "'points' must be >= 10, got 9"),
    # an inset outside the n grid is refused, not replaced by the grid's last n
    ("fig1", {"inset_n": 12}, "'inset_n' must lie in [n_min, n_max] = [4, 5], got 12"),
    # the eta reduction runs the density ladder, which a trajectory config
    # did not ask for
    ("clock", {"eta": 0.3, "mode": "trajectory", "shots": 50}, "'eta' and 'mode'"),
    # a master seed is non-negative: named here, not by numpy inside the run
    ("grover", {"mode": "trajectory", "shots": 20, "seed": -1}, "'seed' must be >= 0, got -1"),
    ("prob", {"seed": -3}, "'seed' must be >= 0, got -3"),
    ("bounds", {"seed": -1}, "'seed' must be >= 0, got -1"),
    # and one 64-bit stream seed: named here, not by the stream inside the run
    ("bounds", {"seed": 2 ** 64}, f"'seed' must be <= {2 ** 64 - 1}, got {2 ** 64}"),
    ("grover", {"fiducial": "haar", "seed": 2 ** 64}, f"'seed' must be <= {2 ** 64 - 1}"),
    # a coupling ratio, pulse-time target, Rabi-rate fraction or overlap
    # floor is positive: named as the config key, not as the coupling
    # omega0 = r * Delta or the library parameter it becomes, before a run
    # on a negative value, a division by zero or a complex eps ** 1.5
    ("clock", {"eps": -0.1}, "'eps' must be > 0, got -0.1"),
    ("clock", {"eps": 0}, "'eps' must be > 0, got 0"),
    ("grover", {"r": -0.02}, "'r' must be > 0, got -0.02"),
    ("clock", {"r": -0.01}, "'r' must be > 0, got -0.01"),
    ("prob", {"r": -0.01}, "'r' must be > 0, got -0.01"),
    ("prob", {"omega_star_rel": -1}, "'omega_star_rel' must be > 0, got -1"),
    ("prob", {"f1_lower": 0}, "'f1_lower' must be > 0, got 0"),
    ("prob", {"eps": -0.1}, "'eps' must be > 0, got -0.1"),
    # the coupling is set by r (or eps) alone: omega0 is no config key
    ("clock", {"omega0": -0.01}, "unknown clock config key(s): omega0"),
    ("grover", {"omega0": 1e-20}, "unknown grover config key(s): omega0"),
    # counts and grids are checked before the first suite or L runs
    ("bounds", {"instances": -3}, "'instances' must be >= 1, got -3"),
    ("bounds", {"instances": 0}, "'instances' must be >= 1, got 0"),
    ("spectrum", {"n": 0}, "'n' must be >= 1, got 0"),
    ("spectrum", {"L_min": -2}, "'L_min' must be >= 1, got -2"),
    ("spectrum", {"L_min": 3, "L_max": 2}, "'L_max' must be >= L_min = 3, got 2"),
    # sizes are named as the config key, not by the model built from them
    ("grover", {"n": 0}, "'n' must be >= 1, got 0"),
    ("clock", {"n": 0}, "'n' must be >= 1, got 0"),
    ("prob", {"n": 0}, "'n' must be >= 1, got 0"),
    ("clock", {"padding": -2}, "'padding' must be >= 0, got -2"),
    ("prob", {"padding": -2}, "'padding' must be >= 0, got -2"),
    ("fig1", {"n_min": -3}, "'n_min' must be >= 1, got -3"),
    # a missing gates file (None drops the inline circuit), not a traceback
    ("clock", {"circuit": None, "gates_file": "circuits/no_such.gates"},
     "'gates_file' cannot be read"),
    ("prob", {"circuit": None, "gates_file": "circuits/no_such.gates"},
     "'gates_file' cannot be read"),
    # an exact-tau splitting within roundoff of the step norm gives no
    # pulse time: a coupling too small for the schedule, as a too-large one
    # is a CouplingTooLarge
    ("clock", {"circuit": ["G H 1", "G T 1"], "eps": 1e-16}, "step j=2: exact splitting"),
    ("grover", {"r": 1e-20}, "step j=1: exact splitting"),
    # the models refuse their own parameters as config errors that name
    # the value, not by the catch-all of every ValueError
    ("clock", {"h": 1.5}, "0 < h <= 1, got h = 1.5"),
    ("clock", {"h": 1.0}, "lower h = 1.0"),  # the input penalty passes the level spacing
    ("clock", {"omega": 0}, "omega must be positive, got 0"),
    ("clock", {"circuit": []}, "at least one gate, got an empty circuit"),
    ("grover", {"marked": [9]}, "marked string out of range 0..7, got [9]"),
    ("grover", {"marked": ["01x"]}, "'marked' holds a string that is not a bit string: "
     "invalid literal for int() with base 2: '01x'"),
    ("grover", {"omega1": -1}, "omega1 must be positive, got -1"),
    # the couplings of fig1 and prob are positive, named as their keys
    # before a curve is written or a setup is built
    ("fig1", {"omega0_rel": -0.05}, "'omega0_rel' must be > 0, got -0.05"),
    ("fig1", {"scan_factor": 0}, "'scan_factor' must be > 0, got 0"),
    ("prob", {"r_scale": -1}, "'r_scale' must be > 0, got -1"),
    # NaN and Infinity are no JSON numbers
    ("clock", {"eta": float("nan")}, "'eta' must be float, got NaN"),
    ("fig1", {"scan_factor": float("inf")}, "'scan_factor' must be float, got Infinity"),
    ("bounds", {"r_grid": [0.04, float("-inf")]}, "'r_grid' must be a list of float"),
    # a shot or trial index is one 32-bit word
    ("grover", {"mode": "trajectory", "shots": 2 ** 32 + 1}, "'shots' must be <= 4294967296"),
    ("prob", {"trials": 2 ** 32 + 1}, "'trials' must be <= 4294967296"),
    # a rate formed from positive values that underflows keeps no digits
    ("grover", {"omega1": 5e-324}, "the coupling r * omega1 = 0.000e+00 is below the least"),
    ("clock", {"r": 5e-324}, "the coupling r * delta = 0.000e+00 is below the least"),
    ("prob", {"eps": 1e-300}, "the coupling r * delta = 0.000e+00 is below the least"),
    ("prob", {"omega_star_rel": 1e-320}, "the floor omega_star_rel * rabi = "),
    # a value whose square (or power 1.5) the run forms leaves the doubles:
    # refused with the config, not a ZeroDivisionError or OverflowError
    ("prob", {"f1_lower": 1e-300}, "'f1_lower' must be >= 1e-150, got 1e-300"),
    ("prob", {"f1_lower": 1e300}, "'f1_lower' must be <= 1, got 1e+300"),
    ("prob", {"eps": 1e300}, "'eps' must be <= 1, got 1e+300"),
    ("grover", {"omega1": 1e300}, "'omega1' must be <= 1e+150, got 1e+300"),
    ("clock", {"omega": 1e300}, "'omega' must be <= 1e+150, got 1e+300"),
    # a band gap lost in the roundoff of the dense eigh, not the input
    # penalty, is no detuning bracket
    ("clock", {"h": 1e-300}, "is not resolved; raise h = 1e-300"),
    ("clock", {"h": 1e-20}, "is not resolved; raise h = 1e-20"),
    # an underflowed scan width gives no half-width, and no curve is written
    ("fig1", {"scan_factor": 5e-324, "points": 20}, "the scan width scan_factor * omega0_rel"),
    # a scan narrower than the curve's resolution stays above the half
    # level: no half-width, not the scan's edge as one
    ("fig1", {"scan_factor": 1e-300, "points": 20}, "has no half-width; raise scan_factor"),
    # a Rabi splitting still lost in roundoff at r = 0.12, under the 1/8
    # cap: the advice names the gap (through h), not only r
    ("clock", {"h": 1e-12, "r": 0.12},
     "raise the coupling ratio r (below its 1/8 cap) or the gap Delta"),
]


@pytest.mark.parametrize("experiment,change,named", MISREAD,
                         ids=[f"{e}-{json.dumps(c)}" for e, c, _ in MISREAD])
def test_misread_value_is_a_config_error(tmp_path, capsys, experiment, change, named):
    # each value is refused before any output is written, instead of a
    # traceback or a run on a value the config did not mean
    cfg = {k: v for k, v in dict(SMALL[experiment], **change).items() if v is not None}
    assert run_cli(tmp_path, experiment, cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("experiment,key", [("grover", "omega1"), ("clock", "omega"),
                                            ("prob", "omega"), ("spectrum", "omega")])
def test_an_energy_scale_at_its_cap_runs(tmp_path, experiment, key):
    # the greatest energy scale the config admits still runs to exit 0: the
    # squares of it that the run takes, and its dense eighs, stay finite
    cfg = dict(SMALL[experiment], **{key: experiments.CONFIG_MAXIMUMS[key]})
    assert run_cli(tmp_path, experiment, cfg) == EXIT_OK


@pytest.mark.parametrize("experiment,cfg", [
    ("bounds", {"instances": 2, "protocol": False}),
    ("grover", {"n": 3, "marked": [1], "fiducial": "haar", "ensemble_draws": 3,
                "mode": "trajectory", "shots": 20}),
    ("prob", {"n": 1, "circuit": ["G I 1", "G I 1"], "trials": 20}),
])
def test_the_greatest_seed_runs(tmp_path, experiment, cfg):
    # the last 64-bit seed seeds the stream and the shot and trial uniforms
    seed = experiments.CONFIG_MAXIMUMS["seed"]
    assert run_cli(tmp_path, experiment, dict(cfg, seed=seed)) == EXIT_OK


@pytest.fixture
def no_setup(monkeypatch):
    """Fail the test if a run builds a model setup."""
    def refuse(*args, **kwargs):
        raise AssertionError("a setup was built from a refused config")

    monkeypatch.setattr(experiments, "grover_setup", refuse)
    monkeypatch.setattr(experiments, "clock_block", refuse)


@pytest.mark.parametrize("experiment,key,typo", [
    ("grover", "mode", "densty"),
    ("grover", "tau_mode", "analytical"),
    ("grover", "fiducial", "Haar"),
    ("clock", "mode", "trajectories"),
    ("clock", "tau_mode", "exactly"),
])
def test_a_misspelt_choice_builds_no_setup(tmp_path, capsys, no_setup, experiment, key, typo):
    # a choice of literal values is checked with the config: the typo is
    # named as its key, before any model or setup is built
    assert run_cli(tmp_path, experiment, dict(SMALL[experiment], **{key: typo})) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {experiment} config key {key!r} must be ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment,key", [
    ("clock", "eps"), ("clock", "r"), ("prob", "eps"), ("prob", "r"), ("prob", "r_scale"),
    ("prob", "omega_star_rel"), ("prob", "f1_lower"), ("grover", "r"),
    ("fig1", "omega0_rel"), ("fig1", "scan_factor"),
])
@pytest.mark.parametrize("value", [0, -0.5])
def test_a_non_positive_value_builds_no_setup(tmp_path, capsys, no_setup, experiment, key,
                                              value):
    # a value that must be > 0 is checked with the config: it is named as
    # its key, before any model or dense setup is built or any file (fig1's
    # curves) is written
    assert run_cli(tmp_path, experiment, dict(SMALL[experiment], **{key: value})) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {experiment} config key {key!r} must be > 0, "
                          f"got {value}")
    assert not (tmp_path / "out").exists()


def test_negative_seed_option_is_a_config_error(tmp_path, capsys):
    # --seed replaces the config's seed before the same check
    assert run_cli(tmp_path, "grover", SMALL["grover"], seed=-2) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'seed' must be >= 0, got -2" in err
    assert not list((tmp_path / "out").glob("*"))


def _strict(text: str):
    """Parse JSON that holds no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("experiment,change,field", [
    ("grover", {"mode": "trajectory", "shots": 20}, "error_budget"),
    ("clock", {"mode": "trajectory", "shots": 20}, "error_budget"),
    ("prob", {"trials": 1}, "mean_time_per_success"),  # seed 0 accepts nothing
])
def test_undefined_report_fields_are_null(tmp_path, capsys, experiment, change, field):
    # a report field with no finite value is written as null, and the file
    # and the stdout summary are strict JSON
    assert run_cli(tmp_path, experiment, dict(SMALL[experiment], **change)) == EXIT_OK
    written = _strict((tmp_path / "out" / SUMMARY_FILE[experiment]).read_text())
    _strict(capsys.readouterr().out)
    assert written["report"][field] is None
    if experiment == "prob":
        assert written["report"]["accept_count"] == 0


def test_non_finite_output_is_an_error(tmp_path, capsys, monkeypatch):
    # a non-finite number that reaches the writer is the program's fault:
    # exit 1, not a config error, and no file is written
    monkeypatch.setitem(cli._RUNNERS, "spectrum", lambda cfg, out_dir: experiments._write_json(
        out_dir / "broken.json", {"rows": float("nan")}))
    assert run_cli(tmp_path, "spectrum", SMALL["spectrum"]) == EXIT_VIOLATION
    assert "broken.json" in capsys.readouterr().err
    assert not (tmp_path / "out" / "broken.json").exists()


def test_a_failed_fig1_writes_nothing(tmp_path, capsys, monkeypatch):
    # the whole run is computed before its first write: a summary that
    # fails its own check leaves no curves behind
    monkeypatch.setattr(experiments, "half_width", lambda d, f: (float("nan"), 0.0, 1.0))
    assert run_cli(tmp_path, "fig1", SMALL["fig1"]) == EXIT_VIOLATION
    assert "fig1_summary.json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _assert_a_program_fault(code, err, exception, message):
    """Exit 4 with the fault's traceback on stderr, never a config error
    (2) or a violation (1)."""
    assert code == EXIT_INTERNAL
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().splitlines()[-1].startswith(f"{exception}: ")
    assert message in err and "config error" not in err


def test_an_internal_key_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    # no config path raises KeyError (a misspelt key is a ConfigError), so
    # one from a run is the program's bug: exit 4 with its traceback
    def broken(cfg, out_dir):
        return cfg["no such key"]

    monkeypatch.setitem(cli._RUNNERS, "spectrum", broken)
    code = run_cli(tmp_path, "spectrum", SMALL["spectrum"])
    _assert_a_program_fault(code, capsys.readouterr().err, "KeyError", "no such key")


def test_an_internal_value_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    # a ValueError that no config check raised is the program's bug: exit
    # 4 with its traceback, never exit 2
    def broken(cfg, out_dir):
        raise ValueError("an internal fault")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", broken)
    code = run_cli(tmp_path, "spectrum", SMALL["spectrum"])
    _assert_a_program_fault(code, capsys.readouterr().err, "ValueError", "an internal fault")


def test_a_refused_valid_state_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    # a positivity floor above every eigenvalue makes DensityMatrix refuse
    # the run's own (valid) state: a program fault, never "config error"
    monkeypatch.setattr(config, "POSITIVITY_FLOOR", 1.0)
    code = run_cli(tmp_path, "clock", SMALL["clock"])
    _assert_a_program_fault(code, capsys.readouterr().err, "ValueError",
                            "density matrix minimum eigenvalue")
    assert not (tmp_path / "out").exists()


def test_a_max_dim_that_is_no_integer_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QSC_MAX_DIM", "abc")
    assert run_cli(tmp_path, "clock", SMALL["clock"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: environment variable QSC_MAX_DIM must be an "
                          "integer, got 'abc'")
    assert not (tmp_path / "out").exists()


def test_the_error_type_sets_the_exit_code():
    # main catches exactly the three types that set exit 2, 3 and 1, then
    # any other exception, a program fault (exit 4); the errors that exit 2
    # are ConfigErrors, and a ConfigError is a ValueError
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(f for f in tree.body if getattr(f, "name", None) == "main")
    handlers = [h for node in ast.walk(main_def) if isinstance(node, ast.Try)
                for h in node.handlers]
    assert [ast.unparse(h.type) for h in handlers] == ["ConfigError", "DimensionTooLarge",
                                                      "QscError", "Exception"]
    assert issubclass(ConfigError, QscError) and issubclass(ConfigError, ValueError)
    for error in (ParseError, CouplingTooLarge, UnresolvedSplitting):
        assert issubclass(error, ConfigError)
    assert not issubclass(DimensionTooLarge, ConfigError)


def test_echo_is_the_resolved_config(tmp_path):
    # a float key keeps an int as given, and every defaulted key is echoed
    cfg = {"n": 1, "L_min": 2, "L_max": 2, "omega": 2, "seed": 0}
    assert run_cli(tmp_path, "spectrum", cfg) == EXIT_OK
    echo = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())["config"]
    assert echo == {**cfg, "h": 0.1} == resolve_config(cfg, "spectrum")
    assert type(echo["omega"]) is int
