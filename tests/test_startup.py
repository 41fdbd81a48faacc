"""A run pays only for its own command: each check starts `cli.main` in a
fresh interpreter, on a small config, and reads the modules it loaded and
the garbage collector's state after it returned.

`qsc.bounds` is the bounds lab, imported only by `qsc bounds`; no command
loads `numpy.random` (bounds instances and Haar states come from
`models.Stream`, and shot and trial uniforms are replayed by
`cooling.trial_uniforms`); and no command loads `dataclasses`, whose
frozen classes generate and compile their methods at import (the value
types are plain `__slots__` classes)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsc

SRC = Path(qsc.__file__).resolve().parents[1]

CHILD = """
import gc, json, sys
from qsc import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "frozen": gc.get_freeze_count(),
                  "bounds": "qsc.bounds" in sys.modules,
                  "random": "numpy.random" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules}))
"""

# every command, each on a config that takes every path that draws random
# numbers: Haar fiducial and ensemble draws, shots, trials, every bounds
# suite and the protocol fits
SMALL = {
    "clock": {"n": 1, "circuit": ["G H 1", "G T 1"], "eps": 0.1},
    "grover": {"n": 3, "marked": [1], "mode": "trajectory", "shots": 50, "fiducial": "haar",
               "ensemble_draws": 5},
    "prob": {"n": 1, "circuit": ["G I 1", "G I 1"], "trials": 20},
    "spectrum": {"n": 1, "L_min": 2, "L_max": 3},
    "fig1": {"n_min": 4, "n_max": 5, "points": 60},
    "bounds": {"suites": "all", "instances": 2, "protocol": True},
}


def _run(tmp_path: Path, experiment: str) -> dict:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL[experiment]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, experiment, "--config", str(config),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state["code"] == 0, proc.stderr
    return state


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict:
    """The state after one run of each command."""
    return {experiment: _run(tmp_path_factory.mktemp(experiment), experiment)
            for experiment in SMALL}


@pytest.mark.parametrize("experiment", ["clock", "grover", "prob", "spectrum", "fig1"])
def test_a_ladder_run_loads_neither_the_bounds_lab_nor_numpy_random(loaded, experiment):
    assert not loaded[experiment]["bounds"]
    assert not loaded[experiment]["random"]


def test_a_bounds_run_loads_the_bounds_lab(loaded):
    assert loaded["bounds"]["bounds"]


def test_a_bounds_run_does_not_load_numpy_random(loaded):
    assert not loaded["bounds"]["random"]


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_the_import_time_heap_is_frozen(loaded, experiment):
    assert loaded[experiment]["frozen"] > 0


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_no_command_loads_dataclasses(loaded, experiment):
    assert not loaded[experiment]["dataclasses"]
