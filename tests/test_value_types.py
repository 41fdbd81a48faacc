"""The value types of `src/qsc` are immutable after construction: a field
can be neither assigned nor deleted, and no attribute can be added.  They
still copy and pickle, so a sweep can hand them to other processes."""

import copy
import importlib
import inspect
import pickle

import numpy as np
import pytest

from qsc.bounds import check_weyl, make_windowed_instance, run_suite
from qsc.cooling import (
    build_schedule,
    clock_setup,
    grover_setup,
    run_deterministic,
    run_probabilistic,
)
from qsc.levelshift import make_context
from qsc.linalg import DensityMatrix, Operator, StateVector
from qsc.models import BathSpec, ClockModel, Gate, GroverModel, parse_circuit

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
        "StateVector": (StateVector.basis(2, 0), "amplitudes"),
        "DensityMatrix": (DensityMatrix(np.eye(2) / 2), "entries"),
        "LevelShiftContext": (make_context(h, basis[:, :1], basis[:, 1:], gap=0.5), "gap"),
        "DetuningSolution": (schedule.steps[0].solution, "omega_b"),
        "GroverModel": (grover, "n"),
        "Gate": (Gate(np.eye(2), (1,)), "targets"),
        "CircuitSpec": (circuit, "gates"),
        "ClockModel": (clock, "circuit"),
        "BandStructure": (setup.band, "delta"),
        "BathSpec": (BathSpec("qubit", 1.0), "omega_b"),
        "CoolingSetup": (setup, "h_s"),
        "ScheduleStep": (schedule.steps[0], "tau"),
        "CoolingSchedule": (schedule, "steps"),
        "RunReport": (run_deterministic(setup, schedule), "ground_fidelity"),
        "ProbRunReport": (run_probabilistic(clock_setup(clock), omega0=1e-3, trials=3),
                          "accept_count"),
        "CheckResult": (weyl, "passed"),
        "BoundInstance": (make_windowed_instance(0, dim=8), "gap"),
        "SuiteReport": (run_suite("weyl", 1, master_seed=0, dim=4), "passes"),
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
def test_a_value_copies_and_pickles(name):
    value, field = INSTANCES[name]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert pickle.dumps(twin) == pickle.dumps(value)
        with pytest.raises(AttributeError):
            setattr(twin, field, getattr(twin, field))
