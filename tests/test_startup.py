"""A run pays only for its own command: each check starts `cli.main` in a
fresh interpreter, on a small config, and reads the modules it loaded and
the garbage collector's state after it returned.

`qsc.bounds` is the bounds lab, imported only by `qsc bounds`;
`numpy.random` is loaded on first use, which no ladder run makes (its
shot and trial uniforms are replayed by `cooling.trial_uniforms`); and
no command loads `dataclasses`, whose frozen classes generate and compile
their methods at import (the value types are plain `__slots__` classes)."""

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

SMALL = {
    "clock": {"n": 1, "circuit": ["G H 1", "G T 1"], "eps": 0.1},
    "grover": {"n": 3, "marked": [1], "mode": "trajectory", "shots": 50},
    "bounds": {"suites": ["weyl"], "instances": 2, "protocol": False},
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


@pytest.mark.parametrize("experiment", ["clock", "grover"])
def test_a_ladder_run_loads_neither_the_bounds_lab_nor_numpy_random(tmp_path, experiment):
    state = _run(tmp_path, experiment)
    assert not state["bounds"]
    assert not state["random"]


def test_a_bounds_run_loads_the_bounds_lab(tmp_path):
    assert _run(tmp_path, "bounds")["bounds"]


@pytest.mark.parametrize("experiment", ["clock", "bounds"])
def test_the_import_time_heap_is_frozen(tmp_path, experiment):
    assert _run(tmp_path, experiment)["frozen"] > 0


@pytest.mark.parametrize("experiment", ["clock", "grover", "bounds"])
def test_no_command_loads_dataclasses(tmp_path, experiment):
    assert not _run(tmp_path, experiment)["dataclasses"]
