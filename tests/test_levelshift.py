"""Level-shift tests: resolvents, the closed-form self-energy (against its
series expansion among other references), the rational sums, detuning
solves against scan oracles, and the qutrit truncation identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import config
from qsc.errors import DimensionMismatch, NoSignChange, SingularResolvent
from qsc.levelshift import make_context, self_energy, solve_detuning
from qsc.linalg import Operator, operator_norm
from qsc.models import (
    ClockModel,
    GroverModel,
    band_energies,
    build_clock,
    clock_band_structure,
    clock_coupling_direction,
    overlap_coefficients,
    parse_circuit,
)
from qsc.bounds import make_multiband_instance, make_windowed_instance
from qsc import levelshift
from qsc.cooling import build_schedule, clock_block, clock_setup, extension_gap, grover_setup

from oracles import (
    PoleTooClose,
    complement,
    detuning_function_per_call,
    detuning_scan_oracle,
    effective_grover_hamiltonian,
    effective_two_level,
    g_sums,
    green_function,
    qutrit_truncation_check,
    self_energy_by_series,
    self_energy_spectral,
)

from conftest import random_hermitian, seed_array


def two_level_context(omega1=1.0):
    """The context of diag(0, omega1) with P the ground level, and its gap."""
    h = np.diag([0.0, omega1]).astype(complex)
    basis = np.eye(2, dtype=complex)
    return make_context(h, basis[:, :1], basis[:, 1:], omega1), omega1


def grover_block_context(omega1, omega_b, omega0, x0, x1):
    """The four-level invariant block with P = {|1,down>, |0,up>}: its
    context, the perturbation and the gap."""
    h = np.diag([0.0, omega_b, omega1, omega1 + omega_b]).astype(complex)
    v = omega0 * np.array(
        [
            [x0 * x0 * 0, x0 * x0, 0, x0 * x1],
            [x0 * x0, 0, x0 * x1, 0],
            [0, x0 * x1, 0, x1 * x1],
            [x0 * x1, 0, x1 * x1, 0],
        ],
        dtype=complex,
    )
    basis = np.eye(4, dtype=complex)
    gap = min(omega_b, omega1)  # distance from P energies to {0, omega1+omega_b}
    ctx = make_context(h, basis[:, [2, 1]], basis[:, [0, 3]], gap * 0.9)
    return ctx, v, gap * 0.9


class TestGreenFunction:
    def test_two_level_scalar_inverse(self):
        ctx, gap = two_level_context()
        g = green_function(ctx, 0.5, gap)
        assert np.allclose(g.matrix, np.diag([0.0, -2.0]))

    def test_vanishes_on_p(self, rng):
        from conftest import random_hermitian

        h = random_hermitian(rng, 6)
        w, vecs = np.linalg.eigh(h)
        p = vecs[:, :2]
        gap = max(float(w[2] - w[1]), 1e-6)
        ctx = make_context(h, p, complement(p), gap)
        z = float(np.mean(w[:2]))
        g = green_function(ctx, z, gap)
        pm = p @ p.conj().T
        assert np.max(np.abs(pm @ g.matrix @ pm)) < 1e-9

    def test_resolvent_identity(self):
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        omega1 = band.omegas[1]
        w, vecs = np.linalg.eigh(h_s.matrix)
        p = vecs[:, (w > omega1 - band.delta / 2) & (w < omega1 + band.delta / 2)]
        ctx = make_context(h_s.matrix, p, complement(p), band.delta)
        z = omega1 + band.delta * 0.4
        g = green_function(ctx, z, band.delta)
        q = ctx.q @ ctx.q.conj().T
        lhs = g.matrix @ (z * q - q @ h_s.matrix @ q)
        assert np.max(np.abs(lhs - q)) < 1e-9
        # eigenbasis-inversion oracle
        oracle = np.zeros_like(g.matrix)
        for idx in range(len(w)):
            vec = vecs[:, idx]
            if abs(np.vdot(vec, p @ (p.conj().T @ vec))) > 0.5:
                continue
            oracle += np.outer(vec, vec.conj()) / (z - w[idx])
        assert np.max(np.abs(g.matrix - oracle)) < 1e-9

    def test_pole_guard(self):
        ctx, gap = two_level_context()
        with pytest.raises(PoleTooClose):
            green_function(ctx, 1.0 - 1e-3, gap)


class TestSelfEnergy:
    def test_zero_perturbation(self):
        ctx, _ = two_level_context()
        v = np.zeros((2, 2), dtype=complex)
        sigma = self_energy(ctx, v)(0.4)
        assert sigma[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_two_level_block(self):
        # the solved-block closed form with the two rational sums
        omega1, omega0 = 1.0, 0.04
        x0 = 2.0 ** (-2.5)
        x1 = math.sqrt(1 - x0 ** 2)
        omega_b = omega1 * 0.999
        ctx, v, _ = grover_block_context(omega1, omega_b, omega0, x0, x1)
        z = omega_b
        g_j, g_0 = g_sums([x0, x1], [0.0, omega1], omega_b, 1, z)
        denom = 1 - omega0 ** 2 * g_j * g_0
        expected = np.array(
            [
                [omega1 + omega0 ** 2 * x1 ** 2 * g_0 / denom, omega0 * x0 * x1 / denom],
                [omega0 * x0 * x1 / denom, omega_b + omega0 ** 2 * x0 ** 2 * g_j / denom],
            ]
        )
        sigma = self_energy(ctx, v)(z)
        assert np.max(np.abs(sigma - expected)) < 1e-9

    def test_matches_closed_form_clock_block(self):
        # same identity on a clock model: P = {|j,down>, |0,up>} inside the
        # full composite space
        from qsc.models import build_bath_and_couplings

        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\nG I 1\n", 1))
        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        xs = overlap_coefficients(model.length)
        j = model.length
        omega0 = 0.02 * band.delta
        omega_b = solve_detuning(xs, band.omegas, j, omega0, band.delta)
        t_s = Operator(omega0 * clock_coupling_direction(model))
        h_full, v = build_bath_and_couplings(h_s.matrix, t_s.matrix, omega_b)
        down = np.array([1, 0], dtype=complex)
        up = np.array([0, 1], dtype=complex)
        p = np.column_stack([np.kron(band.vector(j), down), np.kron(band.vector(0), up)])
        ctx = make_context(h_full, p, complement(p), band.delta / 2)
        sigma = self_energy(ctx, v)(omega_b)
        g_j, g_0 = g_sums(xs, band.omegas, omega_b, j, omega_b)
        denom = 1 - omega0 ** 2 * g_j * g_0
        expected = np.array(
            [
                [band.omegas[j] + omega0 ** 2 * xs[j] ** 2 * g_0 / denom,
                 omega0 * xs[0] * xs[j] / denom],
                [omega0 * xs[0] * xs[j] / denom,
                 omega_b + omega0 ** 2 * xs[0] ** 2 * g_j / denom],
            ]
        )
        assert np.max(np.abs(sigma - expected)) < 1e-9
        # the solve equalized the diagonals
        assert abs(sigma[0, 0] - sigma[1, 1]) < 1e-9 * band.delta

    def test_series_approaches_closed(self):
        omega1, omega0 = 1.0, 0.02
        x0, x1 = 0.3, math.sqrt(1 - 0.09)
        ctx, v, gap = grover_block_context(omega1, omega1 * 1.001, omega0, x0, x1)
        closed = self_energy(ctx, v)(omega1)
        r = omega0 / gap
        prev_err = None
        for order in (2, 4, 6):
            series = self_energy_by_series(ctx, v, omega1, order, gap)
            err = np.linalg.norm(series - closed, 2)
            assert err < 10 * gap * r ** (order + 1)
            if prev_err is not None:
                assert err < prev_err
            prev_err = err

    def test_tracks_exact_eigenvalues(self, rng):
        # eigenvalues of the self-energy at a window-center z match the
        # perturbed window spectrum within the grid-certified radius
        from qsc.bounds import check_spectral_correspondence

        for k in range(5):
            inst = make_windowed_instance(seed_array(900 + k), dim=8, p_rank=2)
            (res,) = check_spectral_correspondence(inst)
            assert res.passed

    def test_taylor_bound_on_random_contexts(self):
        # |Sigma(z) - Sigma(z0)| <= |z - z0| (4 |V| / gap)^2 near the window
        # center, for contexts whose complement stays gap-separated
        checked = 0
        for k in range(50):
            inst = make_windowed_instance(seed_array(3000 + k), dim=10, p_rank=2, v_scale=0.3)
            h, v = inst.h[0], inst.v[0]
            w, vecs = np.linalg.eigh(h)
            lam_lo, lam_hi = inst.window
            mask = (w > lam_lo) & (w < lam_hi)
            ctx = make_context(h, vecs[:, mask], vecs[:, ~mask], inst.gap)
            z0 = float(np.mean(w[mask]))
            sigma0 = self_energy(ctx, v)(z0)
            factor = (4 * operator_norm(v) / inst.gap) ** 2
            for dz in (-0.2, -0.05, 0.03, 0.11):
                z = z0 + dz * inst.gap / 4
                sigma = self_energy(ctx, v)(z)
                diff = np.linalg.norm(sigma - sigma0, 2)
                assert diff <= abs(z - z0) * factor * (1 + 1e-6) + 1e-12
                checked += 1
        assert checked == 200

    def test_given_complement_matches_the_computed_one(self):
        # Q as the rest of H's eigenbasis (the bounds lab's context) against
        # Q as the complement of P read off I - P: the self-energy does not
        # depend on the basis of Q
        for k in range(10):
            inst = make_windowed_instance(seed_array(4000 + k), dim=10, p_rank=3)
            h, v = inst.h[0], inst.v[0]
            w, vecs = np.linalg.eigh(h)
            lam_lo, lam_hi = inst.window
            mask = (w > lam_lo) & (w < lam_hi)
            p, q = vecs[:, mask], vecs[:, ~mask]
            given = make_context(h, p, q, inst.gap)
            computed = make_context(h, p, complement(p), inst.gap)
            assert given.q is q
            zs = float(np.mean(w[mask])) + np.linspace(-0.1, 0.1, 5) * inst.gap
            for z in zs:
                a = self_energy(given, v)(z)
                b = self_energy(computed, v)(z)
                assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.max(np.abs(b)))
            grid_a = self_energy(given, v)(zs)
            grid_b = self_energy(computed, v)(zs)
            assert np.max(np.abs(grid_a - grid_b)) <= 1e-12 * (1 + np.max(np.abs(grid_b)))

    def test_given_complement_must_be_orthogonal_to_p(self):
        h = np.diag([0.0, 2.0, 3.0]).astype(complex)
        p = np.eye(3, dtype=complex)[:, :1]
        tilted = np.eye(3, dtype=complex)[:, 1:]
        tilted[:, 0] = np.array([0.1, 1.0, 0.0]) / math.sqrt(1.01)
        with pytest.raises(ValueError, match="not orthogonal"):
            make_context(h, p, tilted, 1.5)

    def test_bases_with_the_wrong_row_count_are_refused(self):
        h = np.diag([0.0, 2.0, 3.0]).astype(complex)
        basis = np.eye(3, dtype=complex)
        short = np.eye(2, 1, dtype=complex)
        with pytest.raises(DimensionMismatch, match="P basis"):
            make_context(h, short, basis[:, 1:], 1.5)
        with pytest.raises(DimensionMismatch, match="Q basis"):
            make_context(h, basis[:, :1], np.eye(4, 2, dtype=complex), 1.5)

    def test_bases_that_do_not_fill_the_space_are_refused(self):
        h = np.diag([0.0, 2.0, 3.0]).astype(complex)
        basis = np.eye(3, dtype=complex)
        with pytest.raises(DimensionMismatch, match="do not fill"):
            make_context(h, basis[:, :1], basis[:, 1:2], 1.5)


def window_context(inst):
    """The bounds lab's context for a window instance (a stack of one), and
    its P spectrum."""
    w, vecs = np.linalg.eigh(inst.h[0])
    lam_lo, lam_hi = inst.window
    mask = (w > lam_lo) & (w < lam_hi)
    return make_context(inst.h[0], vecs[:, mask], vecs[:, ~mask], inst.gap), w[mask]


def diagonal_context():
    """H = diag(0, 2, 3) with P = span(e0) and a V coupling P to Q only, so
    Q(H+V)Q = diag(2, 3) exactly."""
    h = np.diag([0.0, 2.0, 3.0]).astype(complex)
    v = np.zeros((3, 3), dtype=complex)
    v[0, 1] = v[1, 0] = 0.1
    v[0, 2] = v[2, 0] = 0.2
    basis = np.eye(3, dtype=complex)
    return make_context(h, basis[:, :1], basis[:, 1:], 1.5), v


class TestSelfEnergyGrid:
    """`self_energy`'s evaluator on arrays of z: against the eigen-expansion
    oracle, row by row against smaller calls, and its condition rule."""

    @pytest.mark.parametrize("make_instance", [
        lambda seed: make_windowed_instance(seed_array(seed), dim=12, p_rank=3, v_scale=0.5),
        lambda seed: make_multiband_instance(seed_array(seed)),
    ], ids=["windowed", "multiband"])
    def test_matches_pointwise_self_energy(self, make_instance):
        worst = 0.0
        for k in range(10):
            inst = make_instance(4000 + k)
            ctx, p_vals = window_context(inst)
            lam_lo, lam_hi = inst.window
            zs = np.linspace(p_vals.min() - 0.2 * inst.gap, p_vals.max() + 0.2 * inst.gap, 64)
            assert lam_lo < zs[0] and zs[-1] < lam_hi
            stack = self_energy(ctx, inst.v[0])(zs)
            assert stack.shape == (64, ctx.p.shape[1], ctx.p.shape[1])
            for sigma, ref in zip(stack, self_energy_spectral(ctx, inst.v[0], zs)):
                err = np.linalg.norm(sigma - ref, 2) / np.linalg.norm(ref, 2)
                worst = max(worst, err)
                assert np.array_equal(sigma, sigma.conj().T)
        assert worst <= 1e-12

    @pytest.mark.parametrize("make_instance", [
        lambda seed: make_windowed_instance(seed_array(seed)),
        lambda seed: make_windowed_instance(seed_array(seed), p_rank=1),
        lambda seed: make_multiband_instance(seed_array(seed)),
    ], ids=["windowed", "rank-one", "multiband"])
    def test_rows_of_a_batch_are_the_single_calls_bit_for_bit(self, make_instance):
        # the closeness radius's two-end sweeps and the 64-point grids they
        # are tested against read the same numbers only if batching does
        # not move a bit
        for k in range(10):
            inst = make_instance(4100 + k)
            ctx, p_vals = window_context(inst)
            sigma_at = self_energy(ctx, inst.v[0])
            zs = np.linspace(p_vals.min() - 0.2 * inst.gap, p_vals.max() + 0.2 * inst.gap, 64)
            stack = sigma_at(zs)
            for i, z in enumerate(zs):
                assert np.array_equal(stack[i], sigma_at(z))
                assert np.array_equal(stack[i], sigma_at([z])[0])
            for i in range(0, 64, 7):
                pair = sigma_at(zs[[i, 63 - i]])
                assert np.array_equal(pair, stack[[i, 63 - i]])

    @given(seed=st.integers(0, 2 ** 32 - 1), q_rank=st.integers(1, 6),
           k=st.integers(0, 5), offset=st.floats(0.01, 3.0), below=st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_condition_rule_is_the_2_norm_condition_number(self, seed, q_rank, k, offset, below):
        # the rule reads max|z - w| / min|z - w| off M's spectrum w; it is
        # cond(zI - M) to 1e-12: a bound just below the SVD's value refuses
        # z, one just above accepts it, and z on M's spectrum or NaN is refused
        rng = np.random.default_rng(seed)
        dim = q_rank + 1
        h = np.diag(np.concatenate([[0.0], 1.0 + rng.random(q_rank)])).astype(complex)
        v = random_hermitian(rng, dim)
        v = 0.3 / operator_norm(v) * v
        basis = np.eye(dim, dtype=complex)
        ctx = make_context(h, basis[:, :1], basis[:, 1:], 0.5)
        m = ctx.q.conj().T @ (ctx.h + v) @ ctx.q
        w = np.linalg.eigvalsh(m)
        z = w[min(k, q_rank - 1)] + (-offset if below else offset) * (w[-1] - w[0] + 0.1)
        cond = np.linalg.cond(z * np.eye(q_rank) - m)
        sigma_at = self_energy(ctx, v)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(levelshift, "MAX_RESOLVENT_COND", cond * (1 - 1e-12))
            with pytest.raises(SingularResolvent):
                sigma_at(z)
            mp.setattr(levelshift, "MAX_RESOLVENT_COND", cond * (1 + 1e-12))
            sigma_at(z)
        for bad in (*w, float("nan")):
            with pytest.raises(SingularResolvent):
                sigma_at(bad)
            with pytest.raises(SingularResolvent):
                sigma_at([z, bad])

    def test_z_on_complement_eigenvalue_raises_on_both_paths(self):
        # a single z and an array holding it are refused alike
        ctx, v = diagonal_context()
        for z in (2.0, 3.0):
            with pytest.raises(SingularResolvent):
                self_energy(ctx, v)(z)
            with pytest.raises(SingularResolvent):
                self_energy(ctx, v)([0.5, z, 1.0])
        # away from Spec(Q(H+V)Q) both give the two-pole closed form
        sigma = self_energy(ctx, v)([0.5])[0]
        assert sigma[0, 0].real == pytest.approx(0.01 / (0.5 - 2) + 0.04 / (0.5 - 3), abs=1e-15)
        assert np.array_equal(sigma, self_energy(ctx, v)(0.5))

    def test_empty_complement_is_the_compressed_hamiltonian(self):
        # P spans the whole space: no resolvent, Sigma_P(z) = P(H+V)P
        h = np.diag([-0.2, 0.1, 0.3]).astype(complex)
        v = random_hermitian(np.random.default_rng(5), 3)
        v = 0.05 / operator_norm(v) * v
        ctx = make_context(h, np.eye(3, dtype=complex), np.zeros((3, 0)), 1.0)
        assert ctx.q.shape[1] == 0
        expected = h + v
        assert np.max(np.abs(self_energy(ctx, v)(0.0) - expected)) < 1e-15
        stack = self_energy(ctx, v)(np.linspace(-0.5, 0.5, 5))
        assert stack.shape == (5, 3, 3)
        assert np.max(np.abs(stack - expected)) < 1e-15

    def test_empty_p_gives_empty_matrices(self):
        h = np.diag([0.0, 2.0]).astype(complex)
        ctx = make_context(h, np.zeros((2, 0)), np.eye(2, dtype=complex), 1.0)
        v = np.zeros((2, 2), dtype=complex)
        assert self_energy(ctx, v)(0.5).shape == (0, 0)
        assert self_energy(ctx, v)([0.5, 1.0]).shape == (2, 0, 0)


class TestNormOnlyWhenNeeded:
    """The block-diagonality check scales its tolerance by 1 + |H|; the
    scaled threshold still decides at the boundary."""

    def test_block_diagonal_boundary(self):
        atol = config.PROJECTOR_ATOL
        basis = np.eye(3, dtype=complex)

        def h_with(cross):
            m = np.diag([0.0, 5.0, 10.0]).astype(complex)
            m[0, 2] = m[2, 0] = cross
            return m

        p, q = basis[:, :1], basis[:, 1:]
        make_context(h_with(5 * atol), p, q, 1.0)  # within atol * (1 + 10)
        with pytest.raises(ValueError, match="block-diagonal"):
            make_context(h_with(20 * atol), p, q, 1.0)


class TestGSums:
    def test_two_level_values(self):
        omega1 = 1.0
        x0, x1 = 0.6, 0.8
        g_j, g_0 = g_sums([x0, x1], [0.0, omega1], omega1, 1, omega1)
        assert g_j == pytest.approx(x0 ** 2 / omega1)
        assert g_0 == pytest.approx(-(x1 ** 2) / omega1)

    def test_isolated_band(self):
        xs = [0.0, 1.0, 0.0]
        g_j, _ = g_sums(xs, [0.0, 0.5, 1.5], 0.5, 1, 0.5)
        assert g_j == 0.0

    def test_direct_summation_oracle(self):
        xs = overlap_coefficients(3)
        omegas = band_energies(3)
        z = omegas[3]
        omega_b = omegas[3] * 1.01
        g_j, g_0 = g_sums(xs, omegas, omega_b, 3, z)
        direct_j = sum(xs[k] ** 2 / (z - omegas[k]) for k in range(4) if k != 3)
        direct_0 = sum(xs[k] ** 2 / (z - omegas[k] - omega_b) for k in range(4) if k != 0)
        assert g_j == pytest.approx(direct_j, abs=1e-12)
        assert g_0 == pytest.approx(direct_0, abs=1e-12)

    def test_pole_guard(self):
        with pytest.raises(PoleTooClose):
            g_sums([0.6, 0.8], [0.0, 1.0], 1.0, 1, 1e-4, gap=1.0)


class TestSolveDetuning:
    def test_weak_coupling_limit(self):
        xs = overlap_coefficients(2)
        omegas = band_energies(2)
        omega_b = solve_detuning(xs, omegas, 2, 1e-9, 0.05)
        assert omega_b == pytest.approx(omegas[2], abs=1e-12)

    def test_dominant_band_shift(self):
        # for x1 ~ 1 the root sits a first-order shift away from the band,
        # with magnitude (Omega_0/omega_1)^2 * omega_1
        omega1, omega0 = 1.0, 0.05
        x0 = 2.0 ** (-5)
        x1 = math.sqrt(1 - x0 ** 2)
        shift = solve_detuning([x0, x1], [0.0, omega1], 1, omega0, omega1) - omega1
        assert abs(shift) == pytest.approx(omega0 ** 2 / omega1, rel=0.05)

    def test_scan_oracle_agreement(self):
        # the solved detuning maximizes the end-of-pulse fidelity within
        # the scan's grid resolution
        omega1, omega0 = 1.0, 0.05
        n = 5
        x0 = 2.0 ** (-n / 2)
        x1 = math.sqrt(1 - x0 ** 2)
        omega_b = solve_detuning([x0, x1], [0.0, omega1], 1, omega0, omega1)
        best, resolution = detuning_scan_oracle(omega1, omega0, x0, x1)
        assert abs(omega_b - best) <= 2 * resolution

    def test_solution_in_bracket_with_residual(self):
        xs = overlap_coefficients(3)
        omegas = band_energies(3)
        delta = 0.002
        for j in (1, 2, 3):
            omega0 = 0.01 * delta
            omega_b = solve_detuning(xs, omegas, j, omega0, delta)
            assert abs(omega_b - omegas[j]) < delta * config.POLE_GUARD_FRACTION
            f = levelshift._detuning_function(xs, omegas, j, omega0)
            assert abs(f(omega_b)) < 1e-12

    @pytest.mark.parametrize("omega0", [1.0, 2.0])
    def test_a_bracket_without_a_sign_change_is_refused(self, omega0):
        # far outside r < 1/8 the level shift swamps the bracket
        with pytest.raises(NoSignChange):
            solve_detuning([0.6, 0.8], [0.0, 1.0], 1, omega0, 1.0)

    @pytest.mark.parametrize("which", ["clock", "grover"])
    def test_hoisted_sums_equal_the_per_call_formula(self, monkeypatch, which):
        # g_j's deleted arrays are cut once per solve: every band's bath
        # energy is the same float as with them cut per evaluation
        if which == "clock":
            setup = clock_block(ClockModel(circuit=parse_circuit("G H 1\nG T 1\nG X 1\nG S 1", 1)))
            omega0 = build_schedule(setup, eps=0.1).omega0
        else:
            setup = grover_setup(GroverModel(n=6, marked=frozenset({0})))
            omega0 = 0.02 * setup.band.delta
        def per_band():
            return [solve_detuning(setup.xs, setup.band.omegas, j, omega0, setup.band.delta)
                    for j in range(1, setup.n_bands)]

        solutions = per_band()
        monkeypatch.setattr(levelshift, "_detuning_function", detuning_function_per_call)
        assert solutions == per_band()


class TestEffectiveTwoLevel:
    def test_equal_diagonals_after_solve(self):
        omega1, omega0 = 1.0, 0.04
        x0 = 0.2
        x1 = math.sqrt(1 - x0 ** 2)
        omega_b = solve_detuning([x0, x1], [0.0, omega1], 1, omega0, omega1)
        eff = effective_grover_hamiltonian([x0, x1], [0.0, omega1], 1, omega0, omega_b)
        assert eff[0, 0] == pytest.approx(eff[1, 1].real)
        evals, evecs = np.linalg.eigh(eff)
        for col in evecs.T:
            assert abs(abs(col[0]) - 1 / math.sqrt(2)) < 1e-9

    @pytest.mark.parametrize("r", [0.05, 0.02])
    def test_splitting_matches_exact(self, r):
        omega1 = 1.0
        omega0 = r * omega1
        x0 = 0.3
        x1 = math.sqrt(1 - x0 ** 2)
        omega_b = solve_detuning([x0, x1], [0.0, omega1], 1, omega0, omega1)
        rabi, _ = effective_two_level([x0, x1], [0.0, omega1], 1, omega0, omega_b)
        ctx, v, _ = grover_block_context(omega1, omega_b, omega0, x0, x1)
        w = np.linalg.eigvalsh(ctx.h + v)
        down = np.array([0, 0, 1, 0.0])
        up = np.array([0, 1, 0, 0.0])
        _, vecs = np.linalg.eigh(ctx.h + v)
        weight = np.abs(vecs.conj().T @ down) ** 2 + np.abs(vecs.conj().T @ up) ** 2
        top = np.sort(np.argsort(-weight)[:2])
        exact_split = abs(w[top[1]] - w[top[0]])
        assert abs(2 * rabi - exact_split) / exact_split < 3 * r

    def test_rabi_leading_order(self):
        omega1, omega0 = 1.0, 0.01
        x0, x1 = 0.4, math.sqrt(1 - 0.16)
        omega_b = solve_detuning([x0, x1], [0.0, omega1], 1, omega0, omega1)
        rabi, _ = effective_two_level([x0, x1], [0.0, omega1], 1, omega0, omega_b)
        r = omega0 / omega1
        assert abs(rabi - omega0 * x0 * x1) <= 5 * omega0 * x0 * x1 * r ** 2


class TestQutritTruncation:
    @staticmethod
    def _band1(setup):
        """H_S, ground state, band-1 column and omega1 of a clock setup."""
        return (setup.h_s, setup.band.vector(0), setup.band.vectors[:, 1:2],
                float(setup.band.omegas[1]))

    @pytest.mark.parametrize(
        "gates,n",
        [
            ("identity_n1_L2.gates", 1),
            ("x_n1_L2.gates", 1),
            ("bell_n2_L2.gates", 2),
        ],
    )
    def test_bright_state_green_function_vanishes(self, circuits_dir, gates, n):
        from qsc.models import load_circuit

        setup = clock_setup(ClockModel(circuit=load_circuit(circuits_dir / gates, n)))
        delta = extension_gap(setup)
        t_s = Operator(0.01 * delta * setup.coupling)
        report = qutrit_truncation_check(*self._band1(setup), delta, t_s)
        assert report.b_green_norm <= 1e-9
        assert report.passed

    def test_no_ground_shift_without_diagonal_coupling(self):
        setup = clock_setup(ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1)))
        # coupling with vanishing ground expectation: |1><0| + |0><1| in the
        # band basis
        out = np.outer(setup.band.vector(1), setup.band.vector(0).conj())
        t_s = Operator(0.0001 * (out + out.conj().T))
        report = qutrit_truncation_check(*self._band1(setup), extension_gap(setup), t_s)
        assert abs(report.ground_shift) < 1e-12

    def test_rank_one_coupling_rabi(self):
        # T_S = Omega_0 |F><F| gives the off-diagonal Omega_0 f_0 f_1
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        setup = clock_setup(model)
        delta = extension_gap(setup)
        omega0 = 0.01 * delta
        f = setup.fiducial
        t_s = Operator(omega0 * np.outer(f, f.conj()))
        report = qutrit_truncation_check(*self._band1(setup), delta, t_s)
        xs = overlap_coefficients(model.length)
        assert report.rabi == pytest.approx(omega0 * xs[0] * xs[1], abs=1e-9)
