"""The value types of `src/qsc` are immutable after construction: a field
can be neither assigned nor deleted, and no attribute can be added.  No run
copies or pickles a value, and an attempt fails loudly: `copy` and
`pickle` restore a value's fields by assignment, which the guard refuses.
Every value type is built by the one constructor, `_Frozen.__init__`,
which binds arguments to the public `__slots__` as a signature would."""

import copy
import importlib
import inspect
import pickle

import numpy as np
import pytest

from qsc.bounds import CheckResult, SuiteReport, check_weyl, make_windowed_instance
from qsc.config import DEFAULT_PENALTY_FACTOR
from qsc.cooling import (
    ScheduleStep,
    build_schedule,
    clock_setup,
    grover_setup,
    run_deterministic,
    run_probabilistic,
)
from qsc.errors import ConfigError
from qsc.levelshift import make_context
from qsc.linalg import DensityMatrix, Operator, _Frozen
from qsc.models import ClockModel, Gate, GroverModel, Stream, parse_circuit

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
    (weyl,) = check_weyl(h.matrix[None], h.matrix[None])
    return {
        "Operator": (h, "matrix"),
        "DensityMatrix": (DensityMatrix(np.eye(2) / 2), "entries"),
        "LevelShiftContext": (make_context(h.matrix, basis[:, :1], basis[:, 1:], gap=0.5), "p"),
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
        "BoundInstance": (make_windowed_instance(np.zeros(1, dtype=np.uint64), dim=8), "gap"),
        "SuiteReport": (SuiteReport(instances=1, passes=1, vacuous=0, violations=()), "passes"),
        "Stream": (Stream(0), "seed"),
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


class _Pulse(_Frozen):
    """A value type of the test's own: two fields, a default, a cache, and
    a check that counts its runs."""

    __slots__ = ("tau", "rate", "_period")
    _DEFAULTS = {"rate": 1.0}
    checks = []

    def __post_init__(self):
        self.checks.append(self._period)
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


def test_the_constructor_binds_fields_as_a_signature_would():
    # positional and keyword arguments bind to the public slots in order,
    # an omitted field takes its default, and a cache slot starts as None
    assert (_Pulse(2.0, 3.0).tau, _Pulse(2.0, 3.0).rate) == (2.0, 3.0)
    assert (_Pulse(rate=3.0, tau=2.0).tau, _Pulse(2.0, rate=3.0).rate) == (2.0, 3.0)
    assert _Pulse(2.0).rate == 1.0
    assert _Pulse(2.0)._period is None
    step = ScheduleStep(2, 0.5, tau=7.0)
    assert (step.j, step.omega_b, step.tau) == (2, 0.5, 7.0)
    assert (SuiteReport(1, 1, 0, ()).violations, Operator(np.eye(2)).dim) == ((), 2)
    assert DensityMatrix(np.eye(2) / 2)._min_eig == 0.5  # the check filled the cache


@pytest.mark.parametrize("args,kwargs,message", [
    ((), {}, "_Pulse() missing required arguments: tau"),
    ((2.0,), {"width": 1}, "_Pulse() got an unexpected keyword argument 'width'"),
    ((2.0,), {"_period": 1}, "_Pulse() got an unexpected keyword argument '_period'"),
    ((2.0,), {"tau": 3.0}, "_Pulse() got multiple values for argument 'tau'"),
    ((2.0, 3.0, 4.0), {}, "_Pulse() takes 2 positional arguments but 3 were given"),
])
def test_a_field_missing_unknown_repeated_or_surplus_is_a_type_error(args, kwargs, message):
    _Pulse.checks.clear()
    with pytest.raises(TypeError) as caught:
        _Pulse(*args, **kwargs)
    assert str(caught.value) == message
    assert not _Pulse.checks  # refused before the check runs
    with pytest.raises(TypeError, match="missing required arguments: j, tau"):
        ScheduleStep(omega_b=0.5)


def test_defaults_are_filled_and_checked():
    # a default is a field like any other: a report's unset fields, and
    # a fresh empty details dict for each check result
    report = INSTANCES["RunReport"][0]
    assert (report.skipped_bands, report.f_perp, report.shots) == ((), 0.0, 0)
    a, b = CheckResult(True, ()), CheckResult(True, ())
    assert a.details == {} and a.details is not b.details
    assert GroverModel(3, [1]).marked == frozenset({1})  # normalized by the check
    assert ClockModel(parse_circuit("G I 1\n", 1)).h == DEFAULT_PENALTY_FACTOR


def test_replace_runs_the_check_again():
    _Pulse.checks.clear()
    pulse = _Pulse(2.0)
    assert pulse._replace(rate=5.0).rate == 5.0 and _Pulse.checks == [None, None]
    with pytest.raises(ValueError, match="tau must be > 0, got -1"):
        pulse._replace(tau=-1.0)
    grover = INSTANCES["GroverModel"][0]
    with pytest.raises(ConfigError, match="omega1 must be positive"):
        grover._replace(omega1=-1.0)
