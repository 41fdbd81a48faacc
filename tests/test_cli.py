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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import __version__, bounds, cli, config, experiments
from qsc.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VIOLATION,
    load_config,
    main,
    resolve_config,
)
from qsc.errors import ConfigError

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
    ("grover", {"mode": "trajectory", "shots": 0}, "shots >= 1"),
    ("clock", {"mode": "trajectory", "shots": 0}, "shots >= 1"),
    ("prob", {"trials": 0}, "trials >= 1, got 0"),
    ("grover", {"ensemble_draws": -5}, "ensemble_draws must be >= 0, got -5"),
    # the eta reduction runs the density ladder, which a trajectory config
    # did not ask for
    ("clock", {"eta": 0.3, "mode": "trajectory", "shots": 50}, "'eta' and 'mode'"),
    # a master seed is non-negative: named here, not by numpy inside the run
    ("grover", {"mode": "trajectory", "shots": 20, "seed": -1}, "'seed' must be >= 0, got -1"),
    ("prob", {"seed": -3}, "'seed' must be >= 0, got -3"),
    ("bounds", {"seed": -1}, "'seed' must be >= 0, got -1"),
    # a coupling, pulse-time scale or overlap floor is positive: named where
    # it enters the library, before a run on a negative value, a division
    # by zero or a complex eps ** 1.5
    ("clock", {"eps": -0.1}, "eps must be > 0, got -0.1"),
    ("clock", {"eps": 0}, "eps must be > 0, got 0"),
    ("clock", {"omega0": -0.01}, "omega0 must be > 0, got -0.01"),
    # a coupling ratio is named as the config key, not as the coupling
    # omega0 = r * Delta or the model parameter it becomes in the library
    ("grover", {"r": -0.02}, "'r' must be > 0, got -0.02"),
    ("clock", {"r": -0.01}, "'r' must be > 0, got -0.01"),
    ("prob", {"r": -0.01}, "'r' must be > 0, got -0.01"),
    ("prob", {"omega_star_rel": -1}, "omega_star must be > 0"),
    ("prob", {"f1_lower": 0}, "f1_lower must be > 0, got 0"),
    ("prob", {"eps": -0.1}, "eps must be > 0, got -0.1"),
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
    ("grover", {"omega0": 1e-20}, "step j=1: exact splitting"),
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


def test_an_internal_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    # no config path raises KeyError (a misspelt key is a ConfigError), so
    # one from a run is the program's bug: it propagates, it is never exit 2
    def broken(cfg, out_dir):
        return cfg["no such key"]

    monkeypatch.setitem(cli._RUNNERS, "spectrum", broken)
    with pytest.raises(KeyError, match="no such key"):
        run_cli(tmp_path, "spectrum", SMALL["spectrum"])


def test_echo_is_the_resolved_config(tmp_path):
    # a float key keeps an int as given, and every defaulted key is echoed
    cfg = {"n": 1, "L_min": 2, "L_max": 2, "omega": 2, "seed": 0}
    assert run_cli(tmp_path, "spectrum", cfg) == EXIT_OK
    echo = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())["config"]
    assert echo == {**cfg, "h": 0.1} == resolve_config(cfg, "spectrum")
    assert type(echo["omega"]) is int
