"""The value types of `src/qsc` are immutable after construction: a field
can be neither assigned nor deleted, and no attribute can be added.  No run
copies or pickles a value, and an attempt fails loudly: `copy` and
`pickle` restore a value's fields by assignment, which the guard refuses."""

import copy
import importlib
import inspect
import pickle

import numpy as np
import pytest

from qsc.bounds import SuiteReport, check_weyl, make_windowed_instance
from qsc.cooling import (
    build_schedule,
    clock_setup,
    grover_setup,
    run_deterministic,
    run_probabilistic,
)
from qsc.levelshift import make_context
from qsc.linalg import DensityMatrix, Operator
from qsc.models import ClockModel, Gate, GroverModel, parse_circuit

MODULES = ("linalg", "levelshift", "models", "cooling", "bounds")


def _instances() -> dict:
    """One instance of each value type, keyed by name, with a field to
    tamper with."""
    h = Operator(np.diag([0.0, 1.0]).astype(complex))
    basis = np.eye(2, dtype=complex)
    grover = GroverModel(n=2, marked=frozenset({0}))
    setup = grover_setup(grover)
    schedule = build_schedule(setup, omega0=0.01)
    circuit = parse_circuit("G I 1\nG I 1\n", 1)
    clock = ClockModel(circuit=circuit)
    weyl = check_weyl(h, h)
    return {
        "Operator": (h, "matrix"),
        "DensityMatrix": (DensityMatrix(np.eye(2) / 2), "entries"),
        "LevelShiftContext": (make_context(h, basis[:, :1], basis[:, 1:], gap=0.5), "p"),
        "GroverModel": (grover, "n"),
        "Gate": (Gate(np.eye(2), (1,)), "targets"),
        "CircuitSpec": (circuit, "gates"),
        "ClockModel": (clock, "circuit"),
        "BandStructure": (setup.band, "delta"),
        "CoolingSetup": (setup, "h_s"),
        "ScheduleStep": (schedule.steps[0], "tau"),
        "CoolingSchedule": (schedule, "steps"),
        "RunReport": (run_deterministic(setup, schedule), "ground_fidelity"),
        "ProbRunReport": (run_probabilistic(clock_setup(clock), omega0=1e-3, omega_star=1e-3,
                                            f1_lower=0.5, trials=3), "accept_count"),
        "CheckResult": (weyl, "passed"),
        "BoundInstance": (make_windowed_instance(0, dim=8), "gap"),
        "SuiteReport": (SuiteReport(instances=1, passes=1, vacuous=0, violations=()), "passes"),
    }


INSTANCES = _instances()


def test_every_public_value_type_is_covered():
    public = set()
    for name in MODULES:
        module = importlib.import_module(f"qsc.{name}")
        public |= {attr for attr, obj in vars(module).items()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__
                   and not attr.startswith("_")}
    assert public == set(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_a_value_is_immutable(name):
    value, field = INSTANCES[name]
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.added = 1


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_a_copy_fails_loudly(name):
    value, _ = INSTANCES[name]
    for twin in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            twin(value)
