"""Cooling-engine tests: schedules, the conditional-evolution map, the
deterministic and reduced ladders, the probabilistic qutrit scheme, error
injection budgets, and cost accounting."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc.errors import CouplingTooLarge, DimensionMismatch
from qsc.linalg import DensityMatrix, Operator, evolve, operator_norm
from qsc.models import (
    ClockModel,
    GroverModel,
    KET_DOWN,
    KET_UP,
    parse_circuit,
)
from qsc.cooling import (
    ErrorInjection,
    _step_hamiltonian,
    build_schedule,
    clock_extension_setup,
    clock_setup,
    cooling_step,
    grover_setup,
    inject_errors,
    run_deterministic,
    run_probabilistic,
    run_reduced,
    trial_rng,
)

from oracles import (
    cooling_map_dense,
    dense_grover_setup,
    ladder_by_fresh_build,
    trajectory_by_shot,
)


@pytest.fixture(scope="module")
def grover6():
    model = GroverModel(n=6, marked=frozenset({0}), omega0_coupling=0.02)
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


class TestCoolingStep:
    def test_pumped_state_fixed(self, grover6):
        sched = build_schedule(grover6, omega0=0.02)
        step = sched.steps[0]
        h = _step_hamiltonian(grover6, sched.omega0, step.omega_b)
        up_state = np.kron(grover6.band.vector(0), KET_UP)
        rho = DensityMatrix(np.outer(up_state, up_state.conj()))
        out = cooling_step(rho, step, h)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-12

    def test_trace_and_positivity(self, clock12):
        sched = build_schedule(clock12, eps=0.1)
        psi = np.kron(clock12.fiducial.amplitudes, KET_DOWN)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        for step in sched.steps:
            h = _step_hamiltonian(clock12, sched.omega0, step.omega_b)
            rho = cooling_step(rho, step, h)
            assert abs(rho.trace() - 1.0) < 1e-10
            assert rho.min_eigenvalue() > -1e-9

    def test_matches_dense_projector_map(self, clock12, rng):
        # bath masks in place of dense 1 (x) |down><down| / |up><up| products
        sched = build_schedule(clock12, eps=0.1)
        dim = 2 * clock12.dim_s
        for step in sched.steps:
            h = _step_hamiltonian(clock12, sched.omega0, step.omega_b)
            u = evolve(h, step.tau).matrix
            for _ in range(3):
                z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = z @ z.conj().T
                rho /= np.trace(rho).real
                out = cooling_step(DensityMatrix(rho), step, h)
                assert np.max(np.abs(out.entries - cooling_map_dense(rho, u))) <= 1e-15

    def test_ground_band_retention(self, grover6):
        # a state already in the lower manifold leaks only ~r amplitude
        sched = build_schedule(grover6, omega0=0.02)
        step = sched.steps[0]
        h = _step_hamiltonian(grover6, sched.omega0, step.omega_b)
        down = np.kron(grover6.band.vector(0), KET_DOWN)
        rho = DensityMatrix(np.outer(down, down.conj()))
        out = cooling_step(rho, step, h)
        keep = float(np.real(down.conj() @ out.entries @ down))
        r = sched.r
        assert keep > 1 - 10 * r ** 2

    def test_single_step_up_probability(self):
        # one pulse moves the excited-band weight onto the pumped state
        model = GroverModel(n=4, marked=frozenset({0}), omega0_coupling=0.02)
        setup = grover_setup(model)
        sched = build_schedule(setup, omega0=0.02)
        report = run_deterministic(setup, sched)
        x1_sq = setup.xs[1] ** 2
        assert abs(report.per_step_up_probability[-1] - x1_sq) < 3 * sched.r

    def test_residual_block_norms(self):
        # decomposition after one step: bounded residual norm and trace
        models = [
            grover_setup(GroverModel(n=4, marked=frozenset({0}), omega0_coupling=0.02)),
            clock_setup(ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))),
        ]
        for setup in models:
            r = 0.02
            sched = build_schedule(setup, omega0=r * setup.band.delta)
            step = sched.steps[0]
            j = step.j
            h = _step_hamiltonian(setup, sched.omega0, step.omega_b)
            psi = np.kron(setup.fiducial.amplitudes, KET_DOWN)
            rho = DensityMatrix(np.outer(psi, psi.conj()))
            out = cooling_step(rho, step, h)
            cols = [np.kron(setup.band.vector(k), KET_DOWN) for k in range(j)]
            cols.append(np.kron(setup.band.vector(0), KET_UP))
            b = np.column_stack(cols)
            m_prev = b @ b.conj().T
            resid = out.entries - m_prev @ out.entries @ m_prev
            norm = np.linalg.norm(resid, 2)
            trace = abs(np.trace(resid).real)
            assert norm <= 3 * math.sqrt(j) * r
            assert trace <= 3 * j ** 1.5 * r


class TestRunDeterministic:
    def test_already_ground(self, grover6):
        sched = build_schedule(grover6, omega0=0.02)
        down = np.kron(grover6.band.vector(0), KET_DOWN)
        rho0 = DensityMatrix(np.outer(down, down.conj()))
        report = run_deterministic(grover6, sched, rho0=rho0)
        assert report.ground_fidelity > 1 - 10 * sched.r ** 2

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

    def test_schedule_runs_on_the_dense_setup_of_its_model(self):
        # the block schedule's stored decompositions are 4 x 4; on the
        # 16 x 16 dense setup every step is built afresh from its omega_b
        model = GroverModel(n=3, marked=frozenset({1}), omega0_coupling=0.02)
        sched = build_schedule(grover_setup(model), omega0=0.02)
        dense = dense_grover_setup(model)
        report = run_deterministic(dense, sched)
        fidelity, up_probs = ladder_by_fresh_build(dense, sched)
        assert report.ground_fidelity == pytest.approx(fidelity, abs=1e-12)
        assert report.per_step_up_probability == pytest.approx(up_probs, abs=1e-12)

    def test_schedule_of_another_setup_of_the_same_size(self):
        # both block setups are 4 x 4, so the other setup's stored
        # decomposition would propagate without complaint
        model = GroverModel(n=3, marked=frozenset({1}), omega0_coupling=0.02)
        other = GroverModel(n=3, marked=frozenset({1, 2}), omega0_coupling=0.02)
        setup = grover_setup(model)
        sched = build_schedule(grover_setup(other), omega0=0.02)
        report = run_deterministic(setup, sched)
        fidelity, _ = ladder_by_fresh_build(setup, sched)
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
        setup = grover_setup(GroverModel(n=size, marked=frozenset({marked}),
                                         omega0_coupling=0.02))
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
        steps = tuple(replace(s, tau=s.tau * tau_scale) for s in sched.steps)
        _assert_matches_per_shot(setup, replace(sched, steps=steps), shots, seed)


def _marked_strings(n: int, count: int) -> frozenset[int]:
    rng = np.random.default_rng(100 * n + count)
    return frozenset(int(m) for m in rng.choice(2 ** n, size=count, replace=False))


def _naive(sched):
    """The schedule with every bath left at omega1 = 1."""
    return replace(sched, steps=tuple(replace(s, omega_b=1.0) for s in sched.steps))


class TestSearchBlock:
    """The search setup is the exact two-band block of the full composite
    space: every ladder run on it matches the dense setup."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_matches_dense_setup(self, n, count):
        model = GroverModel(n=n, marked=_marked_strings(n, count), omega0_coupling=0.02)
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
        reduced = run_reduced(setup, full_sched)  # eta = eps / L^1.5
        assert reduced.total_time <= full.total_time
        assert abs(reduced.ground_fidelity - full.ground_fidelity) <= 2 * eps
        predicted_penalty = len(reduced.skipped_bands) * reduced.f_perp
        assert 1 - reduced.ground_fidelity <= (1 - full.ground_fidelity) + max(
            10 * predicted_penalty, 1e-9
        )


class TestRunProbabilistic:
    def test_maximal_overlap_single_shot(self):
        # fiducial exactly on the addressed band state: a half-period pulse
        # transfers with probability 1 - O(r), verification near-certain
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        ext = clock_extension_setup(model)
        from qsc.linalg import StateVector
        from dataclasses import replace

        ext1 = replace(ext, fiducial=StateVector(ext.band1[:, 0]), f1=1.0)
        r = 0.02
        omega0 = r * ext1.delta
        rabi = float(
            np.abs(ext1.band1[:, 0].conj() @ (omega0 * ext1.coupling.matrix) @ ext1.ground)
        )
        # half-period window collapsed to the ideal time: sample around it
        report = run_probabilistic(
            ext1, omega0=omega0, omega_star=rabi * 2, trials=400, seed=9
        )
        # tau in [pi/(2 rabi), pi/rabi]: sin^2 averages >= 1/2 for f1 = 1
        assert report.acceptance_rate > 0.4
        assert report.conditional_success > 1 - 10 * r ** 2

    def test_acceptance_tracks_analytic(self):
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        ext = clock_extension_setup(model)
        eps = 0.1
        r = ext.f1 * eps ** 1.5
        report = run_probabilistic(ext, omega0=r * ext.delta, trials=2000, seed=3)
        ratio = report.acceptance_rate / report.analytic_acceptance
        assert 0.5 <= ratio <= 2.0
        assert report.conditional_success >= 1 - eps

    def test_verification_rejects_excited_states(self):
        # spurious verification probability from any excited state is O(r^2)
        from qsc.bounds import _verification_leakage

        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        ext = clock_extension_setup(model)
        r = 0.02
        leak = _verification_leakage(ext, r * ext.delta)
        assert leak < 30 * r ** 2

    @pytest.mark.parametrize(
        "lines,n",
        [("G I 1\nG I 1", 1), ("G X 1\nG I 1", 1), ("G H 1\nG CX 1 2", 2)],
    )
    def test_verification_energy_structure(self, lines, n):
        # the composite spectrum: the two displaced ground levels are
        # degenerate, and every other left-displaced state sits at least one
        # gap below every right-displaced state
        from qsc.models import BathSpec, build_bath_and_couplings
        from qsc.linalg import Operator
        import numpy as np

        model = ClockModel(circuit=parse_circuit(lines, n))
        ext = clock_extension_setup(model)
        t_s = Operator(np.zeros_like(ext.h_s.matrix), hermitian=True)
        h_full, _ = build_bath_and_couplings(
            ext.h_s, BathSpec("qutrit", ext.omega1), t_s
        )
        vals, vecs = np.linalg.eigh(h_full)
        dim_s = ext.h_s.dim
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
            if abs(energy - ext.omega1) < 1e-10:
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
        assert max(left_energies) <= ext.omega1 - ext.delta + 1e-9
        if right_energies:
            assert min(right_energies) >= ext.omega1 - 1e-9

    def test_halving_rate_floor_doubles_time(self):
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        ext = clock_extension_setup(model)
        r = 0.02
        omega0 = r * ext.delta
        rabi = float(
            np.abs(ext.band1[:, 0].conj() @ (omega0 * ext.coupling.matrix) @ ext.ground)
        )
        fast = run_probabilistic(ext, omega0=omega0, omega_star=0.9 * rabi,
                                 trials=600, seed=1)
        slow = run_probabilistic(ext, omega0=omega0, omega_star=0.45 * rabi,
                                 trials=600, seed=1)
        ratio = slow.mean_time_per_success / fast.mean_time_per_success
        assert 1.3 <= ratio <= 3.5

    def test_doubling_trace_recorded(self):
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        ext = clock_extension_setup(model)
        eps = 0.1
        r = ext.f1 * eps ** 1.5
        report = run_probabilistic(ext, omega0=r * ext.delta, trials=500, seed=3)
        # acceptance ~0.2 makes 8-failure runs common: the trace must show
        # doublings, each halving the sampling floor
        assert len(report.tau_doublings) > 0


class TestInjectErrors:
    def test_error_on_another_space_is_rejected(self):
        setup, sched = _ladder("grover", 2)
        wrong = Operator(np.eye(2 * setup.dim_s + 1, dtype=complex), hermitian=True)
        with pytest.raises(DimensionMismatch):
            run_deterministic(setup, sched, delta_ops={1: wrong})
        ext = clock_extension_setup(ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1)))
        with pytest.raises(DimensionMismatch):
            run_probabilistic(ext, 0.02 * ext.delta, trials=1, delta_op=wrong)

    def test_error_leaving_the_block_runs_on_the_dense_setup(self):
        # an error coupling the marked string to a state outside
        # span{P0 F, P1 F} has no place on the two-band block; the dense
        # setup carries it, the budget flags it and the run leaks into it
        model = GroverModel(n=4, marked=frozenset({0}), omega0_coupling=0.02)
        block, dense = grover_setup(model), dense_grover_setup(model)
        sched = build_schedule(dense, omega0=0.02)
        outside = np.zeros(dense.dim_s, dtype=complex)
        outside[[1, 2]] = [1.0, -1.0]
        outside /= math.sqrt(2)  # orthogonal to both band vectors
        assert np.max(np.abs(dense.band.vectors.conj().T @ outside)) < 1e-15
        ket = np.kron(dense.band.vector(0), KET_DOWN)
        leak = np.kron(outside, KET_DOWN)
        error = Operator(0.1 * (np.outer(ket, leak) + np.outer(leak, ket)), hermitian=True)
        budget = inject_errors(dense, sched, ErrorInjection(deltas={1: error}))
        assert not budget.per_step[0]["Rx_ok"] and budget.per_step[0]["R1"] < 1e-15
        clean = run_deterministic(dense, sched)
        noisy = run_deterministic(dense, sched, delta_ops={1: error})
        fidelity, _ = ladder_by_fresh_build(dense, sched, {1: error})
        assert abs(noisy.ground_fidelity - fidelity) <= 1e-12
        assert noisy.ground_fidelity < clean.ground_fidelity
        outside_weight = np.kron(np.outer(outside, outside.conj()), np.eye(2))
        assert np.trace(outside_weight @ noisy.final_state.entries).real > 1e-4
        with pytest.raises(DimensionMismatch):
            run_deterministic(block, build_schedule(block, omega0=0.02), delta_ops={1: error})

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
        return Operator((full + full.conj().T) / 2, hermitian=True)

    def test_budget_saturating_error_degrades_gracefully(self):
        model = GroverModel(n=4, marked=frozenset({0}), omega0_coupling=0.02)
        setup = grover_setup(model)
        sched = build_schedule(setup, omega0=0.02)
        delta = self._scaled_s1_error(setup, sched, scale=0.999)
        budget = inject_errors(setup, sched, ErrorInjection(deltas={1: delta}))
        assert budget.all_within_budget
        clean = run_deterministic(setup, sched)
        noisy = run_deterministic(setup, sched, delta_ops={1: delta})
        infid_clean = 1 - clean.ground_fidelity
        infid_noisy = 1 - noisy.ground_fidelity
        assert infid_noisy <= 30 * max(infid_clean, 1e-6)

    def test_budget_violation_documented(self):
        model = GroverModel(n=4, marked=frozenset({0}), omega0_coupling=0.02)
        setup = grover_setup(model)
        sched = build_schedule(setup, omega0=0.02)
        delta = self._scaled_s1_error(setup, sched, scale=10.0)
        budget = inject_errors(setup, sched, ErrorInjection(deltas={1: delta}))
        assert not budget.all_within_budget
        clean = run_deterministic(setup, sched)
        noisy = run_deterministic(setup, sched, delta_ops={1: delta})
        # collapse is expected and recorded; no bound is claimed
        assert noisy.ground_fidelity < clean.ground_fidelity

    def test_hermitian_required(self):
        with pytest.raises(ValueError):
            ErrorInjection(deltas={1: Operator(np.array([[0, 1], [0, 0]], dtype=complex))})

    def test_extension_budget_clean_and_injected(self):
        from qsc.cooling import extension_error_budget

        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        ext = clock_extension_setup(model)
        r = 0.02
        omega0 = r * ext.delta
        clean = extension_error_budget(ext, omega0)
        assert clean.all_within_budget
        # an in-band error at ten times the drive budget is flagged
        rng = np.random.default_rng(4)
        dim = 3 * ext.h_s.dim
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        noise = (z + z.conj().T) / 2
        rabi = float(np.abs(
            ext.band1[:, 0].conj() @ (omega0 * ext.coupling.matrix) @ ext.ground
        ))
        noise *= 10 * r * rabi / np.linalg.norm(noise, 2)
        bad = extension_error_budget(ext, omega0, Operator(noise, hermitian=True))
        assert not bad.all_within_budget

    def test_probabilistic_with_injected_error(self):
        # a within-budget error leaves acceptance statistics intact
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        ext = clock_extension_setup(model)
        eps = 0.1
        r = ext.f1 * eps ** 1.5
        omega0 = r * ext.delta
        rabi = float(np.abs(
            ext.band1[:, 0].conj() @ (omega0 * ext.coupling.matrix) @ ext.ground
        ))
        rng = np.random.default_rng(6)
        dim = 3 * ext.h_s.dim
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        noise = (z + z.conj().T) / 2
        noise *= 0.5 * r * rabi / np.linalg.norm(noise, 2)
        delta = Operator(noise, hermitian=True)
        from qsc.cooling import extension_error_budget

        assert extension_error_budget(ext, omega0, delta).all_within_budget
        report = run_probabilistic(ext, omega0=omega0, trials=600, seed=3,
                                   delta_op=delta)
        ratio = report.acceptance_rate / report.analytic_acceptance
        assert 0.4 <= ratio <= 2.5
        assert report.conditional_success >= 1 - 2 * eps


class TestCostReport:
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
