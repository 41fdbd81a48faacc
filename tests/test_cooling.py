"""Cooling-engine tests: schedules, the record step against the
conditional-evolution map, the deterministic and reduced ladders, the probabilistic qutrit scheme, cost
accounting, and the oracles' error injection against the engine's clean
runs."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsc import config, cooling
from qsc.errors import CouplingTooLarge, NonHermitianInput, UnresolvedSplitting
from qsc.linalg import DensityMatrix, Operator, connected_blocks, operator_norm
from qsc.models import (
    CircuitSpec,
    ClockModel,
    Gate,
    GroverModel,
    KET_DOWN,
    KET_UP,
    parse_circuit,
)
from qsc.cooling import (
    CoolingSchedule,
    ScheduleStep,
    _qutrit_hamiltonians,
    _step_hamiltonian,
    _step_norm,
    analytic_acceptance,
    build_schedule,
    clock_block,
    clock_setup,
    cooling_step,
    extension_gap,
    extension_rabi,
    grover_setup,
    run_deterministic,
    run_probabilistic,
    run_reduced,
    trial_uniforms,
)

from conftest import haar_gate
from oracles import (
    ErrorInjection,
    cooling_map_dense,
    dense_grover_setup,
    extension_error_budget,
    extension_gap_by_loop,
    inject_errors,
    ladder_by_fresh_build,
    probabilistic_by_dense_projectors,
    qubit_bath_by_kron,
    qutrit_bath_by_kron,
    trajectory_by_shot,
    trial_rng,
    unitary,
)


@pytest.fixture(scope="module")
def grover6():
    model = GroverModel(n=6, marked=frozenset({0}))
    return grover_setup(model)


@pytest.fixture(scope="module")
def clock12():
    model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
    return clock_setup(model)


class TestBuildSchedule:
    def test_grover_single_step(self, grover6):
        sched = build_schedule(grover6, omega0=0.02)
        assert len(sched.steps) == 1
        assert sched.steps[0].j == 1

    def test_clock_step_order_and_scaling(self, clock12):
        eps = 0.1
        sched = build_schedule(clock12, eps=eps)
        assert [s.j for s in sched.steps] == [2, 1]
        expected_r = eps * 2 ** (-2.5)
        assert sched.r == pytest.approx(expected_r)
        assert sched.omega0 == pytest.approx(expected_r * clock12.band.delta)

    def test_three_step_order(self):
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\nG I 1\n", 1))
        setup = clock_setup(model)
        sched = build_schedule(setup, eps=0.1)
        assert [s.j for s in sched.steps] == [3, 2, 1]

    def test_analytic_vs_exact_tau(self, grover6):
        r = 0.02
        exact = build_schedule(grover6, omega0=r, tau_mode="exact")
        analytic = build_schedule(grover6, omega0=r, tau_mode="analytic")
        for se, sa in zip(exact.steps, analytic.steps):
            rel = abs(se.tau - sa.tau) / sa.tau
            assert rel < 5 * r ** 2

    def test_coupling_cap(self, clock12):
        with pytest.raises(CouplingTooLarge):
            build_schedule(clock12, omega0=clock12.band.delta * 0.2)

    @pytest.mark.parametrize("omega0", [1e-20, 1e-300])
    def test_a_splitting_within_roundoff_is_refused(self, omega0):
        # 2 Omega_0 x0 x1 is far below one ulp of ||H_1 + V|| ~ 2: the
        # eigensolver's splitting is roundoff, and no pulse time is read
        # off it (with omega0 = 1e-300 it gave a fidelity of 0.94)
        setup = grover_setup(GroverModel(n=3, marked=frozenset({1})))
        with pytest.raises(UnresolvedSplitting, match=r"step j=1: exact splitting .* <= "
                           rf"{config.SPLITTING_FLOOR_EPS} \* eps\*\|\|H_j \+ V\|\|"):
            build_schedule(setup, omega0=omega0)
        analytic = build_schedule(setup, omega0=omega0, tau_mode="analytic")
        assert analytic.steps[0].tau == math.pi / (2 * omega0 * setup.xs[0] * setup.xs[1])


def _step_eig(setup, sched, step):
    """The eigendecomposition (w, v) of a step's H_j + V."""
    return np.linalg.eigh(_step_hamiltonian(setup, sched.omega0, step.omega_b))


def _branch_every_record(psi, weights, eig, tau):
    """One step of the record states `psi` (one per column, with weights)
    through `cooling_step`, evolving for `tau` under the step's
    eigendecomposition `eig`, every record branching both ways and each
    branch weighted by its outcome's probability; an outcome of
    probability 0 is dropped.  Returns the branches' states and weights."""
    p_up = np.sum(np.abs(psi[1::2]) ** 2, axis=0)
    branches = np.arange(2 * psi.shape[1])
    parent, up = branches // 2, branches % 2 == 1
    outcome = np.where(up, p_up[parent], 1.0 - p_up[parent])
    branches = branches[outcome > 0]
    return (cooling_step(psi, p_up, branches, eig, tau),
            weights[branches // 2] * outcome[outcome > 0])


def _mixture(psi, weights):
    """sum_r w_r |psi_r><psi_r|."""
    return (psi * weights) @ psi.conj().T


class TestCoolingStep:
    """`cooling_step` on measurement-record states: weighted by their
    outcomes' probabilities, a step's branches mix to the
    conditional-evolution map U D rho D U^+ + P_up rho P_up of the
    records' mixture rho."""

    def test_pumped_state_fixed(self, grover6):
        sched = build_schedule(grover6, omega0=0.02)
        step = sched.steps[0]
        up_state = np.kron(grover6.band.vector(0), KET_UP)[:, None]
        out = cooling_step(up_state, np.ones(1), np.array([1]),
                           _step_eig(grover6, sched, step), step.tau)
        assert np.max(np.abs(out - up_state)) < 1e-12

    def test_trace_and_positivity(self, clock12):
        sched = build_schedule(clock12, eps=0.1)
        psi = np.kron(clock12.fiducial, KET_DOWN)[:, None]
        weights = np.ones(1)
        for step in sched.steps:
            psi, weights = _branch_every_record(psi, weights,
                                                _step_eig(clock12, sched, step), step.tau)
            rho = DensityMatrix(_mixture(psi, weights))
            assert abs(np.trace(rho.entries).real - 1.0) < 1e-10
            assert rho.min_eigenvalue() > -1e-9

    def test_matches_dense_projector_map(self, clock12, rng):
        # bath selections on record states, weighted, in place of dense
        # 1 (x) |down><down| / |up><up| products on their mixture
        sched = build_schedule(clock12, eps=0.1)
        dim = 2 * clock12.dim_s
        for step in sched.steps:
            eig = _step_eig(clock12, sched, step)
            for _ in range(3):
                psi = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
                psi /= np.linalg.norm(psi, axis=0)
                weights = rng.dirichlet(np.ones(3))
                out, out_weights = _branch_every_record(psi, weights, eig, step.tau)
                expected = cooling_map_dense(_mixture(psi, weights), unitary(*eig, step.tau))
                assert np.max(np.abs(_mixture(out, out_weights) - expected)) <= 1e-15

    def test_ground_band_retention(self, grover6):
        # a state already in the lower manifold leaks only ~r amplitude
        sched = build_schedule(grover6, omega0=0.02)
        step = sched.steps[0]
        down = np.kron(grover6.band.vector(0), KET_DOWN)
        out, weights = _branch_every_record(down[:, None], np.ones(1),
                                            _step_eig(grover6, sched, step), step.tau)
        keep = float(weights @ np.abs(down.conj() @ out) ** 2)
        assert keep > 1 - 10 * sched.r ** 2

    def test_single_step_up_probability(self):
        # one pulse moves the excited-band weight onto the pumped state
        model = GroverModel(n=4, marked=frozenset({0}))
        setup = grover_setup(model)
        sched = build_schedule(setup, omega0=0.02)
        report = run_deterministic(setup, sched)
        x1_sq = setup.xs[1] ** 2
        assert abs(report.per_step_up_probability[-1] - x1_sq) < 3 * sched.r

    def test_residual_block_norms(self):
        # decomposition after one step: bounded residual norm and trace
        models = [
            grover_setup(GroverModel(n=4, marked=frozenset({0}))),
            clock_setup(ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))),
        ]
        for setup in models:
            r = 0.02
            sched = build_schedule(setup, omega0=r * setup.band.delta)
            step = sched.steps[0]
            j = step.j
            psi = np.kron(setup.fiducial, KET_DOWN)[:, None]
            out = _mixture(*_branch_every_record(psi, np.ones(1),
                                                 _step_eig(setup, sched, step), step.tau))
            cols = [np.kron(setup.band.vector(k), KET_DOWN) for k in range(j)]
            cols.append(np.kron(setup.band.vector(0), KET_UP))
            b = np.column_stack(cols)
            m_prev = b @ b.conj().T
            resid = out - m_prev @ out @ m_prev
            norm = np.linalg.norm(resid, 2)
            trace = abs(np.trace(resid).real)
            assert norm <= 3 * math.sqrt(j) * r
            assert trace <= 3 * j ** 1.5 * r


class TestRunDeterministic:
    def test_already_ground(self, grover6):
        # the ladder from the ground state, on the oracle ladder (the lab
        # always starts from the fiducial)
        sched = build_schedule(grover6, omega0=0.02)
        down = np.kron(grover6.band.vector(0), KET_DOWN)
        fidelity, _, _ = ladder_by_fresh_build(grover6, sched, rho0=np.outer(down, down.conj()))
        assert fidelity > 1 - 10 * sched.r ** 2

    def test_fidelity_improves_with_smaller_r(self, clock12):
        infids = []
        for r in (0.05, 0.02, 0.01):
            sched = build_schedule(clock12, omega0=r * clock12.band.delta)
            report = run_deterministic(clock12, sched)
            infids.append(1 - report.ground_fidelity)
        assert infids[0] > infids[1] > infids[2]
        # Lemma-7-style budget with a generous constant
        n_steps = clock12.n_bands - 1
        for r, infid in zip((0.05, 0.02, 0.01), infids):
            assert infid <= n_steps ** 2.5 * r

    def test_trajectory_matches_density(self, clock12):
        sched = build_schedule(clock12, eps=0.1)
        dens = run_deterministic(clock12, sched, mode="density")
        traj = run_deterministic(clock12, sched, mode="trajectory", shots=2000, seed=5)
        p = dens.ground_fidelity
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / 2000)
        assert abs(traj.ground_fidelity - p) <= 3 * sigma + 1e-9
        assert traj.shots == 2000

    @pytest.mark.parametrize("kind,gates", [("grover", ()), ("clock", ("I", "I"))])
    def test_trajectory_needs_a_shot(self, kind, gates):
        # grover n = 3 or clock n = 1, L = 2: no shot is a ValueError, not
        # an IndexError from an empty draw table
        setup, sched = _ladder(kind, 3, gates)
        for shots in (0, -1):
            with pytest.raises(ValueError, match="shots >= 1"):
                run_deterministic(setup, sched, mode="trajectory", shots=shots)

    def test_schedule_runs_on_the_dense_setup_of_its_model(self):
        # a schedule holds only pulse times and detunings, so the 4 x 4
        # block's schedule runs on the 16 x 16 dense setup, each step built
        # there from its omega_b
        model = GroverModel(n=3, marked=frozenset({1}))
        sched = build_schedule(grover_setup(model), omega0=0.02)
        dense = dense_grover_setup(model)
        report = run_deterministic(dense, sched)
        fidelity, up_probs, _ = ladder_by_fresh_build(dense, sched)
        assert report.ground_fidelity == pytest.approx(fidelity, abs=1e-12)
        assert report.per_step_up_probability == pytest.approx(up_probs, abs=1e-12)

    def test_schedule_of_another_setup_of_the_same_size(self):
        # both block setups are 4 x 4: the run builds its steps on its own
        # setup, not on the one the schedule was solved for
        model = GroverModel(n=3, marked=frozenset({1}))
        other = GroverModel(n=3, marked=frozenset({1, 2}))
        setup = grover_setup(model)
        sched = build_schedule(grover_setup(other), omega0=0.02)
        report = run_deterministic(setup, sched)
        fidelity, _, _ = ladder_by_fresh_build(setup, sched)
        assert report.ground_fidelity == pytest.approx(fidelity, abs=1e-12)
        assert report.ground_fidelity < 0.9

    def test_density_mode_bitwise_reproducible(self, clock12):
        sched = build_schedule(clock12, eps=0.1)
        a = run_deterministic(clock12, sched)
        b = run_deterministic(clock12, sched)
        assert a.ground_fidelity == b.ground_fidelity
        assert a.per_step_up_probability == b.per_step_up_probability

    def test_report_hygiene(self, grover6):
        sched = build_schedule(grover6, omega0=0.02)
        report = run_deterministic(grover6, sched)
        assert report.trace_residual <= 1e-10
        assert report.min_eigenvalue >= -1e-9
        assert 0 <= report.ground_fidelity <= 1 + 1e-9
        assert report.cost == pytest.approx(report.h_norm * report.total_time)


@functools.lru_cache(maxsize=None)
def _ladder(kind: str, size: int, gates: tuple[str, ...] = (), marked: int = 0):
    """A small ladder: grover n = size with one marked string, or a clock
    n = 1 circuit of the given gates (L = len(gates))."""
    if kind == "grover":
        setup = grover_setup(GroverModel(n=size, marked=frozenset({marked})))
        return setup, build_schedule(setup, omega0=0.02)
    setup = clock_setup(ClockModel(circuit=parse_circuit(
        "".join(f"G {g} 1\n" for g in gates), 1)))
    return setup, build_schedule(setup, eps=0.1)


def _assert_matches_per_shot(setup, sched, shots, seed):
    report = run_deterministic(setup, sched, mode="trajectory", shots=shots, seed=seed)
    successes, up_weights = trajectory_by_shot(setup, sched, shots, seed)
    assert report.ground_fidelity == successes / shots
    np.testing.assert_allclose(report.per_step_up_probability, up_weights,
                               rtol=1e-12, atol=0)
    return up_weights


class TestTrajectoryRecords:
    """Shots with the same measurement record share one propagated state;
    the record run must reproduce the one-shot-at-a-time loop."""

    def test_vector_draws_equal_scalar_draws(self):
        for t in range(200):
            drawn = trial_rng(41, t).random(5)
            rng = trial_rng(41, t)
            assert drawn.tolist() == [rng.random() for _ in range(5)]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 72 - 1), trials=st.integers(1, 3000),
           k=st.integers(1, 6))
    @example(seed=0, trials=1, k=1)
    @example(seed=2 ** 32 - 1, trials=3000, k=3)
    @example(seed=2 ** 64, trials=2, k=6)
    @example(seed=2 ** 130 + 7, trials=5, k=2)  # entropy words beyond the pool
    def test_uniforms_are_the_per_trial_generators(self, seed, trials, k):
        # bit for bit, every trial's stream of its own spawned generator
        drawn = trial_uniforms(seed, trials, k)
        expected = np.array([trial_rng(seed, t).random(k) for t in range(trials)])
        assert drawn.shape == (trials, k)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    def test_uniforms_refuse_what_one_spawn_word_cannot_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            trial_uniforms(-1, 3, 2)
        with pytest.raises(ValueError, match="< 2\\^32"):
            trial_uniforms(0, 2 ** 32 + 1, 1)

    @pytest.mark.parametrize("which", ["grover", "clock"])
    @pytest.mark.parametrize("shots", [37, 301])
    def test_matches_per_shot_loop(self, which, shots):
        # the clock's three steps take both outcomes, so its records branch
        if which == "grover":
            setup, sched = _ladder("grover", 4)
        else:
            setup, sched = _ladder("clock", 1, ("H", "T", "X"))
        for seed in (0, 1, 7):
            up_weights = _assert_matches_per_shot(setup, sched, shots, seed)
            if which == "clock":
                assert 0 < up_weights[1] < 1

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shots=st.integers(1, 500),
        ladder=st.one_of(
            st.tuples(st.just("grover"), st.sampled_from([2, 3, 4]), st.just(()),
                      st.integers(0, 3)),
            st.tuples(st.just("clock"), st.just(1),
                      st.lists(st.sampled_from("HSTXYZ"), min_size=1, max_size=3)
                      .map(tuple), st.just(0)),
        ),
        tau_scale=st.sampled_from([1.0, 0.5, 0.3]),
    )
    def test_property_matches_per_shot_loop(self, seed, shots, ladder, tau_scale):
        # short pulses leave the records in different states, so each
        # record's own p_up and p_ground matter
        setup, sched = _ladder(*ladder)
        steps = tuple(s._replace(tau=s.tau * tau_scale) for s in sched.steps)
        _assert_matches_per_shot(setup, sched._replace(steps=steps), shots, seed)


class TestDensityRecords:
    """Density mode weighs the record states that trajectory mode samples:
    the weighted mixture of the L' + 1 records is the ladder of
    dense-projector maps, each step built afresh
    (`oracles.ladder_by_fresh_build`)."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(gates=st.lists(st.sampled_from("HSTXYZ"), min_size=1, max_size=5).map(tuple),
           dense=st.booleans(), tau_scale=st.sampled_from([1.0, 0.5, 0.3]))
    @example(gates=("H", "T", "X", "S", "Y"), dense=False, tau_scale=1.0)
    def test_matches_the_fresh_ladder(self, gates, dense, tau_scale):
        # the clock block the lab runs, or the dense setup it is cut from;
        # short pulses leave weight on every record
        block = clock_block(ClockModel(circuit=parse_circuit(
            "".join(f"G {g} 1\n" for g in gates), 1)))
        setup = block.dense if dense else block
        sched = build_schedule(setup, eps=0.1)
        sched = sched._replace(steps=tuple(s._replace(tau=s.tau * tau_scale)
                                           for s in sched.steps))
        report = run_deterministic(setup, sched)
        fidelity, up_probs, rho = ladder_by_fresh_build(setup, sched)
        assert abs(report.ground_fidelity - fidelity) <= 1e-14
        np.testing.assert_allclose(report.per_step_up_probability, up_probs, rtol=0, atol=1e-14)
        assert np.max(np.abs(report.final_state.entries - rho)) <= 1e-14
        # criterion 7's hygiene, read off the records and the final state
        assert report.trace_residual <= 1e-10
        assert report.min_eigenvalue >= -1e-9


def _marked_strings(n: int, count: int) -> frozenset[int]:
    rng = np.random.default_rng(100 * n + count)
    return frozenset(int(m) for m in rng.choice(2 ** n, size=count, replace=False))


def _naive(sched):
    """The schedule with every bath left at omega1 = 1."""
    return sched._replace(steps=tuple(s._replace(omega_b=1.0) for s in sched.steps))


class TestSearchBlock:
    """The search setup is the exact two-band block of the full composite
    space: every ladder run on it matches the dense setup."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_matches_dense_setup(self, n, count):
        model = GroverModel(n=n, marked=_marked_strings(n, count))
        for kind in ("uniform", "haar"):
            block = grover_setup(model, kind=kind, seed=n + count)
            dense = dense_grover_setup(model, kind=kind, seed=n + count)
            assert block.dim_s == 2 and block.band.delta == dense.band.delta
            np.testing.assert_allclose(block.xs, dense.xs, rtol=1e-14)
            for tau_mode in ("exact", "analytic"):
                scheds = [build_schedule(s, omega0=0.02, tau_mode=tau_mode)
                          for s in (block, dense)]
                for detuned in (lambda s: s, _naive):
                    b_sched, d_sched = (detuned(s) for s in scheds)
                    b = run_deterministic(block, b_sched)
                    d = run_deterministic(dense, d_sched)
                    assert abs(b.ground_fidelity - d.ground_fidelity) <= 1e-12
                    np.testing.assert_allclose(b.per_step_up_probability,
                                               d.per_step_up_probability, rtol=0, atol=1e-12)
                    assert b.h_norm == pytest.approx(d.h_norm, rel=1e-13)
                    assert b.total_time == pytest.approx(d.total_time, rel=1e-10)
                    b, d = (run_deterministic(setup, sched, mode="trajectory",
                                              shots=200, seed=n)
                            for setup, sched in ((block, b_sched), (dense, d_sched)))
                    assert b.ground_fidelity == d.ground_fidelity


_EPS = np.finfo(float).eps


def _clock_circuits(n: int):
    """Circuits of 1..5 gates on an n-qubit register, as gates-file text."""
    one = st.builds("G {} {}".format, st.sampled_from("IHSTXYZ"), st.integers(1, n))
    gates = one if n == 1 else st.one_of(
        one, st.sampled_from(["G CX 1 2", "G CX 2 1", "G CZ 1 2", "G SWAP 1 2"]))
    return st.lists(gates, min_size=1, max_size=5).map("\n".join)


def _derived_setups(data, max_length: int = 5) -> tuple:
    """Setups drawn for the derived-Hamiltonian tests: a random clock's
    dense setup (`clock_setup`) and the band block cut from it (n + L <= 6
    and L <= max_length, some with a Haar gate), or a search block with
    random n <= 6, marked set and fiducial kind."""
    if data.draw(st.booleans(), label="clock"):
        n = data.draw(st.integers(1, 2), label="n")
        most = min(6 - n, max_length)
        text = data.draw(_clock_circuits(n).filter(lambda t: t.count("G") <= most))
        circuit = parse_circuit(text, n)
        if circuit.length < most and data.draw(st.booleans(), label="haar"):
            seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
            haar = Gate(haar_gate(np.random.default_rng(seed), 2), (1,))
            circuit = CircuitSpec(n, circuit.gates + (haar,))
        block = clock_block(ClockModel(circuit=circuit))
        return block.dense, block
    n = data.draw(st.integers(1, 6), label="n")
    marked = data.draw(st.sets(st.integers(0, 2 ** n - 1), min_size=1,
                               max_size=2 ** n - 1), label="marked")
    kind = data.draw(st.sampled_from(["uniform", "haar"]), label="fiducial")
    return (grover_setup(GroverModel(n=n, marked=frozenset(marked)), kind=kind, seed=n),)


class TestDerivedHamiltonians:
    """A step Hamiltonian H_j + V and the qutrit drive and verification
    Hamiltonians are plain arrays, built from the setup's validated H_S and
    coupling and never tested again: kron products with real symmetric
    bath factors, real scalings and sums of exactly Hermitian matrices are
    exactly Hermitian (`qsc.linalg`'s docstring), and every setup's H_S and
    coupling are."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_exactly_hermitian(self, data):
        setups = _derived_setups(data)
        omega_b = data.draw(st.floats(-10.0, 10.0), label="omega_b")
        omega0 = data.draw(st.floats(1e-8, 10.0), label="omega0")
        for setup in setups:
            derived = (_step_hamiltonian(setup, omega0, omega_b),
                       *_qutrit_hamiltonians(setup, omega0))
            for h in derived:
                assert isinstance(h, np.ndarray) and not isinstance(h, Operator)
                assert np.array_equal(h, h.conj().T)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_equal_to_the_kron_references(self, data):
        # a step's H_j + V, the step norm's block sums and the qutrit drive
        # and verification equal the kron constructions of the bath terms
        # in `oracles`, entry for entry
        setups = _derived_setups(data)
        omega_b = data.draw(st.floats(-10.0, 10.0), label="omega_b")
        omega0 = data.draw(st.floats(1e-8, 10.0), label="omega0")
        for setup in setups:
            h_s, c = setup.h_s.matrix, setup.coupling
            h, v = qubit_bath_by_kron(h_s, omega0 * c, omega_b)
            assert np.array_equal(_step_hamiltonian(setup, omega0, omega_b), h + v)
            h, x, y = qutrit_bath_by_kron(h_s, c, float(setup.band.omegas[1]), omega0)
            drive, verify = _qutrit_hamiltonians(setup, omega0)
            assert np.array_equal(drive, h + x) and np.array_equal(verify, h + y)
            schedule = CoolingSchedule((ScheduleStep(1, omega_b, 1.0),), omega0, 0.0)
            with mock.patch.object(cooling, "operator_norm", wraps=operator_norm) as priced:
                _step_norm(setup, schedule)
            blocks = connected_blocks(h_s, c)
            assert priced.call_count == len(blocks)
            for call, block in zip(priced.call_args_list, blocks):
                h, v = qubit_bath_by_kron(h_s[block][:, block], omega0 * c[block][:, block],
                                          omega_b)
                assert np.array_equal(call.args[0], h + v)


class TestCouplingDirection:
    """Every setup's coupling direction is a plain complex array, built
    exactly Hermitian (bit for bit, so no `Operator` checks it) with unit
    2-norm: the 0/1 mask of a dense clock setup, x x^T of real overlaps x
    on the clock and search blocks."""

    @staticmethod
    def _check(setup):
        c = setup.coupling
        assert type(c) is np.ndarray and c.dtype == complex
        assert np.array_equal(c, c.conj().T)
        assert abs(np.linalg.norm(c, 2) - 1.0) <= 1e-15

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_every_setup(self, data):
        # clocks with n in {1, 2} and L <= 4, random gates; search blocks
        for setup in _derived_setups(data, max_length=4):
            self._check(setup)

    @pytest.mark.parametrize("kind", ["uniform", "haar"])
    @pytest.mark.parametrize("n,marked", [(3, {5}), (3, {0, 2, 7}), (6, {9}), (6, {1, 8, 40, 63})])
    def test_search_blocks(self, kind, n, marked):
        self._check(grover_setup(GroverModel(n=n, marked=frozenset(marked)), kind=kind, seed=n))


class TestClockBlock:
    """The clock ladder runs on its exact (L+1)-band block; the dense ladder
    on `clock_setup` is its oracle.  The two compute the same numbers in
    another basis, so each tolerance is the roundoff floor of the dense
    run: eigenvalues carry an absolute error of about eps * h_norm, so a
    pulse time carries eps * h_norm / rabi relative, and the phases of a
    ladder, hence its probabilities, eps * h_norm * total_time."""

    # the largest sizes in every run kind, which the draws reach rarely
    @example(circuit=(2, "G H 1\nG CX 1 2\nG T 2\nG SWAP 1 2\nG Y 1"), tau_mode="exact",
             run=("density", None))
    @example(circuit=(2, "G H 2\nG CZ 1 2\nG S 1\nG X 2\nG CX 2 1"), tau_mode="exact",
             run=("trajectory", None))
    @example(circuit=(1, "G H 1\nG T 1\nG X 1\nG S 1\nG Y 1"), tau_mode="exact",
             run=("density", 0.2))
    @example(circuit=(2, "G X 1\nG CX 1 2\nG H 2\nG Z 1"), tau_mode="analytic",
             run=("density", 0.45))
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        circuit=st.sampled_from([1, 2]).flatmap(
            lambda n: st.tuples(st.just(n), _clock_circuits(n))),
        tau_mode=st.sampled_from(["exact", "analytic"]),
        run=st.sampled_from([("density", None), ("trajectory", None),
                             ("density", 0.2), ("density", 0.45)]),
    )
    def test_matches_dense_oracle(self, circuit, tau_mode, run):
        n, text = circuit
        mode, eta = run
        model = ClockModel(circuit=parse_circuit(text, n))
        block = clock_block(model)
        dense = clock_setup(model)
        assert block.dim_s == model.length + 1 and block.dense.dim_s == dense.dim_s
        assert block.band.delta == dense.band.delta
        b_sched, d_sched = (build_schedule(s, eps=0.1, tau_mode=tau_mode)
                            for s in (block, dense))
        if eta is not None:
            b, d = run_reduced(block, b_sched, eta=eta), run_reduced(dense, d_sched, eta=eta)
            assert b.skipped_bands == d.skipped_bands and b.f_perp == d.f_perp
        else:
            b, d = (run_deterministic(setup, sched, mode=mode, shots=200, seed=n)
                    for setup, sched in ((block, b_sched), (dense, d_sched)))
        assert b.h_norm == d.h_norm  # both priced on the same dense matrix
        for bs, ds in zip(b_sched.steps, d_sched.steps, strict=True):
            # a step's rate is pi / (2 tau)
            assert bs.tau == pytest.approx(ds.tau, rel=20 * _EPS * d.h_norm * ds.tau / math.pi,
                                           abs=0)
        slowest = math.pi / (2 * max(s.tau for s in d_sched.steps))
        assert b.total_time == pytest.approx(d.total_time, rel=10 * _EPS * d.h_norm / slowest,
                                             abs=0)
        prob_tol = 10 * _EPS * d.h_norm * d.total_time + 1e-12
        np.testing.assert_allclose(b.per_step_up_probability, d.per_step_up_probability,
                                   rtol=0, atol=prob_tol)
        if mode == "trajectory":
            assert b.ground_fidelity == d.ground_fidelity  # equal success counts
        else:
            assert b.ground_fidelity == pytest.approx(d.ground_fidelity, rel=0, abs=prob_tol)
            np.testing.assert_allclose(b.per_step_retention, d.per_step_retention,
                                       rtol=0, atol=prob_tol)


class TestRunReduced:
    def test_zero_threshold_identical(self, clock12):
        full = build_schedule(clock12, eps=0.1)
        base = run_deterministic(clock12, full)
        reduced = run_reduced(clock12, full, eta=0.0)
        assert reduced.ground_fidelity == pytest.approx(base.ground_fidelity, abs=1e-12)
        assert reduced.skipped_bands == ()

    def test_everything_skipped(self, clock12):
        report = run_reduced(clock12, build_schedule(clock12, eps=0.1), eta=1.0)
        assert report.skipped_bands == (2, 1)
        assert report.total_time == 0.0
        assert report.ground_fidelity == pytest.approx(clock12.xs[0] ** 2, abs=1e-12)

    def test_default_threshold_close_to_full(self):
        model = ClockModel(circuit=parse_circuit("\n".join(["G I 1"] * 5), 1))
        setup = clock_setup(model)
        eps = 0.1
        full_sched = build_schedule(setup, eps=eps)
        full = run_deterministic(setup, full_sched)
        reduced = run_reduced(setup, full_sched, eta=eps / model.length ** 1.5)
        assert reduced.total_time <= full.total_time
        assert abs(reduced.ground_fidelity - full.ground_fidelity) <= 2 * eps
        predicted_penalty = len(reduced.skipped_bands) * reduced.f_perp
        assert 1 - reduced.ground_fidelity <= (1 - full.ground_fidelity) + max(
            10 * predicted_penalty, 1e-9
        )


def _prob_setup():
    """The clock n = 1, L = 2 identity-circuit setup the qutrit scheme runs on."""
    return clock_setup(ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1)))


def _run_prob(setup, omega0, **kwargs):
    """`run_probabilistic` at the `qsc prob` defaults: Omega* = 0.9 times
    the band coupling rate, and the overlap floor f1 = x_1."""
    return run_probabilistic(setup, omega0=omega0, omega_star=0.9 * extension_rabi(setup, omega0),
                             f1_lower=float(setup.xs[1]), **kwargs)


class TestRunProbabilistic:
    def test_maximal_overlap_single_shot(self):
        # fiducial exactly on the addressed band state: a half-period pulse
        # transfers with probability 1 - O(r), verification near-certain
        setup = _prob_setup()
        on_band1 = setup._replace(fiducial=setup.band.vector(1),
                           xs=np.eye(setup.n_bands)[1])
        r = 0.02
        omega0 = r * extension_gap(on_band1)
        rabi = extension_rabi(on_band1, omega0)
        # half-period window collapsed to the ideal time: sample around it
        report = run_probabilistic(
            on_band1, omega0=omega0, omega_star=rabi * 2, f1_lower=1.0, trials=400, seed=9
        )
        # tau in [pi/(2 rabi), pi/rabi]: sin^2 averages >= 1/2 for f1 = 1
        assert report.acceptance_rate > 0.4
        assert report.conditional_success > 1 - 10 * r ** 2

    def test_acceptance_tracks_analytic(self):
        setup = _prob_setup()
        eps = 0.1
        r = setup.xs[1] * eps ** 1.5
        report = _run_prob(setup, r * extension_gap(setup), trials=2000, seed=3)
        ratio = report.acceptance_rate / report.analytic_acceptance
        assert 0.5 <= ratio <= 2.0
        assert report.conditional_success >= 1 - eps

    def test_verification_rejects_excited_states(self):
        # spurious verification probability from any excited state is O(r^2)
        from qsc.bounds import _verification_leakage

        setup = _prob_setup()
        r = 0.02
        omega0 = r * extension_gap(setup)
        _, vs = np.linalg.eigh(setup.h_s.matrix)  # ground first: it is unique
        leak = _verification_leakage(_qutrit_hamiltonians(setup, omega0)[1], omega0, vs[:, 1:])
        assert leak < 30 * r ** 2

    @pytest.mark.parametrize(
        "lines,n",
        [("G I 1\nG I 1", 1), ("G X 1\nG I 1", 1), ("G H 1\nG CX 1 2", 2)],
    )
    def test_verification_energy_structure(self, lines, n):
        # the composite spectrum: the two displaced ground levels are
        # degenerate, and every other left-displaced state sits at least one
        # gap below every right-displaced state
        setup = clock_setup(ClockModel(circuit=parse_circuit(lines, n)))
        omega1, delta = float(setup.band.omegas[1]), extension_gap(setup)
        assert delta == extension_gap_by_loop(setup.band.spectrum, omega1)
        h_full, _ = _qutrit_hamiltonians(setup, 0.0)  # the drive with no coupling: H
        vals, vecs = np.linalg.eigh(h_full)
        dim_s = setup.dim_s
        proj_l = np.kron(np.eye(dim_s), np.diag([0.0, 0.0, 1.0]))
        proj_r = np.kron(np.eye(dim_s), np.diag([0.0, 1.0, 0.0]))
        # degenerate clusters demand projector traces, not single vectors
        clusters = []
        start = 0
        for i in range(1, len(vals) + 1):
            if i == len(vals) or vals[i] - vals[i - 1] > 1e-9:
                clusters.append((vals[start], slice(start, i)))
                start = i
        left_energies, right_energies = [], []
        pinned_l = pinned_r = 0.0
        for energy, block in clusters:
            sub = vecs[:, block]
            l_trace = float(np.real(np.trace(sub.conj().T @ proj_l @ sub)))
            r_trace = float(np.real(np.trace(sub.conj().T @ proj_r @ sub)))
            if abs(energy - omega1) < 1e-10:
                pinned_l, pinned_r = l_trace, r_trace
                continue
            if l_trace > 0.9:
                left_energies.append(energy)
            if r_trace > 0.9:
                right_energies.append(energy)
        # the displaced ground pair is degenerate at the pinned energy
        assert pinned_l >= 1 - 1e-9 and pinned_r >= 1 - 1e-9
        # every other left-displaced state sits at least a gap below every
        # right-displaced partner (whose minimum is the pinned energy)
        assert max(left_energies) <= omega1 - delta + 1e-9
        if right_energies:
            assert min(right_energies) >= omega1 - 1e-9

    def test_halving_rate_floor_doubles_time(self):
        setup = _prob_setup()
        r = 0.02
        omega0 = r * extension_gap(setup)
        rabi = extension_rabi(setup, omega0)
        fast = run_probabilistic(setup, omega0=omega0, omega_star=0.9 * rabi,
                                 f1_lower=float(setup.xs[1]), trials=600, seed=1)
        slow = run_probabilistic(setup, omega0=omega0, omega_star=0.45 * rabi,
                                 f1_lower=float(setup.xs[1]), trials=600, seed=1)
        ratio = slow.mean_time_per_success / fast.mean_time_per_success
        assert 1.3 <= ratio <= 3.5

    @pytest.mark.parametrize(
        "lines,n", [("G I 1\nG I 1", 1), ("G X 1\nG I 1", 1), ("G H 1\nG CX 1 2", 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_projector_oracle(self, lines, n, seed):
        # bath selections on the composite index take the same trials as
        # dense projector products
        setup = clock_setup(ClockModel(circuit=parse_circuit(lines, n)))
        omega0 = setup.xs[1] * 0.1 ** 1.5 * extension_gap(setup)
        report = _run_prob(setup, omega0, trials=300, seed=seed)
        accepts, b_count, success = probabilistic_by_dense_projectors(
            setup, omega0, 0.9 * extension_rabi(setup, omega0), float(setup.xs[1]),
            trials=300, seed=seed)
        assert report.accept_count == accepts > 0
        assert report.b_measure_count == b_count
        assert abs(report.conditional_success - success) <= 1e-14

    @pytest.mark.parametrize(
        "lines,n", [("G I 1\nG I 1", 1), ("G X 1\nG I 1", 1), ("G H 1\nG CX 1 2", 2)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_block_matches_the_dense_projector_oracle(self, lines, n, seed):
        # the (L+1)-band block holds the fiducial, the ground state and
        # band 1, and both evolutions keep it: the block run takes the
        # dense setup's trials
        block = clock_block(ClockModel(circuit=parse_circuit(lines, n)))
        assert extension_gap(block) == extension_gap(block.dense)
        omega0 = block.xs[1] * 0.1 ** 1.5 * extension_gap(block)
        report = _run_prob(block, omega0, trials=300, seed=seed)
        accepts, b_count, success = probabilistic_by_dense_projectors(
            block.dense, omega0, 0.9 * extension_rabi(block, omega0), float(block.xs[1]),
            trials=300, seed=seed)
        assert report.accept_count == accepts > 0
        assert report.b_measure_count == b_count
        assert report.conditional_success == pytest.approx(success, rel=1e-12, abs=0)

    def test_doubling_trace_recorded(self):
        setup = _prob_setup()
        eps = 0.1
        r = setup.xs[1] * eps ** 1.5
        report = _run_prob(setup, r * extension_gap(setup), trials=500, seed=3)
        # acceptance ~0.2 makes 8-failure runs common: the trace must show
        # doublings, each halving the sampling floor
        assert len(report.tau_doublings) > 0

    @pytest.mark.parametrize("scale", [0.9, 1.5])
    def test_overlap_floor_matches_the_oracle(self, scale):
        # an overlap floor f1_lower other than f1 sets the doubling
        # threshold: the engine and the dense oracle double alike
        setup = _prob_setup()
        f1 = float(setup.xs[1])
        f1_lower = scale * f1
        assert math.ceil(4.0 / f1_lower ** 2) != math.ceil(4.0 / f1 ** 2)
        omega0 = f1 * 0.1 ** 1.5 * extension_gap(setup)
        omega_star = 0.9 * extension_rabi(setup, omega0)
        report = run_probabilistic(setup, omega0=omega0, omega_star=omega_star,
                                   f1_lower=f1_lower, trials=500, seed=3)
        assert report.tau_doublings
        accepts, b_count, success = probabilistic_by_dense_projectors(
            setup, omega0, omega_star, f1_lower, trials=500, seed=3)
        assert report.accept_count == accepts > 0
        assert report.b_measure_count == b_count
        assert abs(report.conditional_success - success) <= 1e-14


class TestInjectErrors:
    """Static errors on the step Hamiltonians run on the oracles (the lab
    injects none): their block-norm budgets, and noisy runs against the
    engine's clean ones."""

    def test_error_leaving_the_block_runs_on_the_dense_setup(self):
        # an error coupling the marked string to a state outside
        # span{P0 F, P1 F} has no place on the two-band block; the dense
        # setup carries it, the budget flags it and the run leaks into it
        model = GroverModel(n=4, marked=frozenset({0}))
        dense = dense_grover_setup(model)
        sched = build_schedule(dense, omega0=0.02)
        outside = np.zeros(dense.dim_s, dtype=complex)
        outside[[1, 2]] = [1.0, -1.0]
        outside /= math.sqrt(2)  # orthogonal to both band vectors
        assert np.max(np.abs(dense.band.vectors.conj().T @ outside)) < 1e-15
        ket = np.kron(dense.band.vector(0), KET_DOWN)
        leak = np.kron(outside, KET_DOWN)
        error = Operator(0.1 * (np.outer(ket, leak) + np.outer(leak, ket)))
        budget = inject_errors(dense, sched, ErrorInjection(deltas={1: error}))
        assert not budget.per_step[0]["Rx_ok"] and budget.per_step[0]["R1"] < 1e-15
        clean = run_deterministic(dense, sched)
        fidelity, _, rho = ladder_by_fresh_build(dense, sched, {1: error})
        assert fidelity < clean.ground_fidelity
        outside_weight = np.kron(np.outer(outside, outside.conj()), np.eye(2))
        assert np.trace(outside_weight @ rho).real > 1e-4

    def test_zero_error_within_budget(self, grover6):
        sched = build_schedule(grover6, omega0=0.02)
        report = inject_errors(grover6, sched, ErrorInjection(deltas={}))
        assert report.all_within_budget
        for row in report.per_step:
            assert row["R1"] == 0.0
            assert row["R1_ok"] and row["Rx_ok"] and row["R2_ok"]

    def _scaled_s1_error(self, setup, sched, scale, seed=0):
        """Hermitian error inside the band-bath block, scaled to `scale`
        times the per-step S1 budget."""
        rng = np.random.default_rng(seed)
        k = 2 * setup.n_bands
        cols = [np.kron(setup.band.vector(i), e)
                for i in range(setup.n_bands) for e in (KET_DOWN, KET_UP)]
        b = np.column_stack(cols)
        z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        block = (z + z.conj().T) / 2
        block /= np.linalg.norm(block, 2)
        step = sched.steps[0]
        budget_norm = sched.r * sched.omega0 * setup.xs[0] * setup.xs[step.j]
        full = b @ (scale * budget_norm * block) @ b.conj().T
        return Operator((full + full.conj().T) / 2)

    def test_budget_saturating_error_degrades_gracefully(self):
        model = GroverModel(n=4, marked=frozenset({0}))
        setup = grover_setup(model)
        sched = build_schedule(setup, omega0=0.02)
        delta = self._scaled_s1_error(setup, sched, scale=0.999)
        budget = inject_errors(setup, sched, ErrorInjection(deltas={1: delta}))
        assert budget.all_within_budget
        clean = run_deterministic(setup, sched)
        noisy, _, _ = ladder_by_fresh_build(setup, sched, {1: delta})
        infid_clean = 1 - clean.ground_fidelity
        infid_noisy = 1 - noisy
        assert infid_noisy <= 30 * max(infid_clean, 1e-6)

    def test_budget_violation_documented(self):
        model = GroverModel(n=4, marked=frozenset({0}))
        setup = grover_setup(model)
        sched = build_schedule(setup, omega0=0.02)
        delta = self._scaled_s1_error(setup, sched, scale=10.0)
        budget = inject_errors(setup, sched, ErrorInjection(deltas={1: delta}))
        assert not budget.all_within_budget
        clean = run_deterministic(setup, sched)
        noisy, _, _ = ladder_by_fresh_build(setup, sched, {1: delta})
        # collapse is expected and recorded; no bound is claimed
        assert noisy < clean.ground_fidelity

    def test_hermitian_required(self):
        with pytest.raises(NonHermitianInput):
            ErrorInjection(deltas={1: Operator(np.array([[0, 1], [0, 0]], dtype=complex))})

    def test_extension_budget_clean_and_injected(self):
        setup = _prob_setup()
        r = 0.02
        omega0 = r * extension_gap(setup)
        clean = extension_error_budget(setup, omega0)
        assert clean.all_within_budget
        # an in-band error at ten times the drive budget is flagged
        rng = np.random.default_rng(4)
        dim = 3 * setup.dim_s
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        noise = (z + z.conj().T) / 2
        noise *= 10 * r * extension_rabi(setup, omega0) / np.linalg.norm(noise, 2)
        bad = extension_error_budget(setup, omega0, Operator(noise))
        assert not bad.all_within_budget

    def test_probabilistic_with_injected_error(self):
        # a within-budget error leaves acceptance statistics intact
        setup = _prob_setup()
        eps = 0.1
        r = setup.xs[1] * eps ** 1.5
        omega0 = r * extension_gap(setup)
        rng = np.random.default_rng(6)
        dim = 3 * setup.dim_s
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        noise = (z + z.conj().T) / 2
        rabi = extension_rabi(setup, omega0)
        noise *= 0.5 * r * rabi / np.linalg.norm(noise, 2)
        delta = Operator(noise)
        assert extension_error_budget(setup, omega0, delta).all_within_budget
        accepts, _, success = probabilistic_by_dense_projectors(
            setup, omega0, 0.9 * rabi, float(setup.xs[1]), trials=600, seed=3, delta_op=delta)
        ratio = accepts / 600 / analytic_acceptance(setup.xs[1], rabi, 0.9 * rabi)
        assert 0.4 <= ratio <= 2.5
        assert success >= 1 - 2 * eps


def _per_step_norm(setup, sched) -> float:
    """The largest step norm of a ladder, read off each step's own
    eigendecomposition."""
    return max(float(np.max(np.abs(_step_eig(setup, sched, s)[0]))) for s in sched.steps)


class TestCostReport:
    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("count", [1, 3])
    def test_search_h_norm_is_the_largest_step_norm(self, n, count):
        # one eigvalsh at the largest bath energy prices every step, on the
        # two-band block and on the dense setup it reduces
        model = GroverModel(n=n, marked=_marked_strings(n, count))
        for setup in (grover_setup(model), dense_grover_setup(model)):
            sched = build_schedule(setup, omega0=0.02)
            for detuned in (sched, _naive(sched)):
                expected = _per_step_norm(setup, detuned)
                for mode in ("density", "trajectory"):
                    report = run_deterministic(setup, detuned, mode=mode, shots=10)
                    assert report.h_norm == pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize("text,n", [("G I 1\nG I 1", 1), ("G H 1\nG T 1\nG X 1", 1),
                                        ("G H 1\nG CX 1 2", 2)])
    @pytest.mark.parametrize("tau_mode", ["exact", "analytic"])
    def test_clock_h_norm_is_the_largest_step_norm(self, text, n, tau_mode):
        setup = clock_setup(ClockModel(circuit=parse_circuit(text, n)))
        sched = build_schedule(setup, eps=0.1, tau_mode=tau_mode)
        expected = _per_step_norm(setup, sched)
        assert run_deterministic(setup, sched).h_norm == pytest.approx(expected, rel=1e-14,
                                                                       abs=0)
        # the reduced ladder prices only the steps it keeps
        reduced = run_reduced(setup, sched, eta=0.45)
        kept = sched._replace(steps=tuple(s for s in sched.steps
                                          if s.j not in reduced.skipped_bands))
        if kept.steps:
            assert reduced.h_norm == pytest.approx(_per_step_norm(setup, kept), rel=1e-14,
                                                   abs=0)
        else:
            assert reduced.h_norm == 0.0

    def test_grover_single_pulse_time(self, grover6):
        sched = build_schedule(grover6, omega0=0.02)
        h = _step_hamiltonian(grover6, sched.omega0, sched.steps[0].omega_b)
        rep = run_deterministic(grover6, sched)
        assert rep.h_norm == pytest.approx(operator_norm(h), rel=1e-14)
        x0, x1 = grover6.xs
        leading = math.pi / (2 * 0.02 * x0 * x1)
        assert abs(rep.total_time - leading) / leading < 5 * sched.r ** 2
        assert rep.cost == pytest.approx(rep.h_norm * rep.total_time)

    def test_time_grows_with_circuit_length(self):
        times = []
        for length in (2, 3, 4, 5):
            circ = parse_circuit("\n".join(["G I 1"] * length), 1)
            setup = clock_setup(ClockModel(circuit=circ))
            sched = build_schedule(setup, eps=0.1, tau_mode="analytic")
            times.append(sched.total_time)
        assert times == sorted(times)
        assert times[-1] > 4 * times[0]

    def test_doubling_eps_halves_time_exactly(self, clock12):
        t1 = build_schedule(clock12, eps=0.05, tau_mode="analytic").total_time
        t2 = build_schedule(clock12, eps=0.1, tau_mode="analytic").total_time
        assert abs(t1 - 2 * t2) <= 1e-9 * t1
