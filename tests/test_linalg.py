"""Operator-core tests: construction invariants, eigendecomposition against
independent oracles, exact evolution, norms, partial trace, and
eigenwindows."""

import tracemalloc

import numpy as np
import pytest

from qsc import config
from qsc.bounds import _window
from qsc.errors import DimensionMismatch, NonHermitianInput
from qsc.linalg import (
    DensityMatrix,
    Operator,
    _hermitian_deviation,
    evolve,
    operator_norm,
    partial_trace,
)
from qsc.models import ClockModel, band_energies, build_clock, clock_band_structure, parse_circuit

from conftest import random_hermitian
from oracles import (
    eigenvalues_by_inertia,
    expm_oracle,
    norm_by_power_iteration,
    partial_trace_by_index_sum,
)


class TestOperator:
    def test_hermitian_flag_checked(self):
        with pytest.raises(NonHermitianInput):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_hermiticity_gate_scales_with_norm(self):
        # |m| ~ 10: a deviation above atol but inside atol * (1 + |m|) is
        # accepted, one above the scaled tolerance is refused
        atol = config.HERMITICITY_ATOL

        def skewed(dev):
            m = np.diag([10.0, 0.0]).astype(complex)
            m[0, 1] = dev
            return m

        Operator(skewed(5 * atol))
        with pytest.raises(NonHermitianInput):
            Operator(skewed(20 * atol))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, entry):
        # refused by the type, before LAPACK sees it (a replay dump's JSON
        # may spell NaN and Infinity)
        m = np.eye(2, dtype=complex)
        m[1, 1] = entry
        with pytest.raises(NonHermitianInput, match="non-finite"):
            Operator(m)

    def test_rejects_nonsquare(self):
        for dtype in (float, complex):
            with pytest.raises(DimensionMismatch):
                Operator(np.zeros((2, 3), dtype=dtype))

    def test_takes_an_owned_complex_array_without_a_copy(self):
        # the array handed over is frozen in place; anything else (another
        # dtype, a view, a non-contiguous array) is copied and left writable
        m = np.diag([1.0, 2.0]).astype(complex)
        assert Operator(m).matrix is m and not m.flags.writeable
        base = np.eye(4, dtype=complex)
        for other in (np.eye(2), base[:2, :2], base[::2, ::2], base.reshape(2, 8)[:, :2]):
            assert Operator(other).matrix is not other and other.flags.writeable

    def test_deviation_over_panels_is_the_whole_matrix_one(self, rng):
        # 600 rows span two row panels: the maximum is the whole-matrix
        # one bit for bit, and a NaN entry propagates, as it did
        z = rng.normal(size=(600, 600)) + 1j * rng.normal(size=(600, 600))
        assert _hermitian_deviation(z) == np.max(np.abs(z - z.conj().T))
        z[599, 3] = np.nan
        assert np.isnan(_hermitian_deviation(z))
        assert _hermitian_deviation(np.zeros((0, 0), dtype=complex)) == 0.0

    def test_deviation_forms_no_matrix_sized_temporary(self):
        m = np.ones((1024, 1024), dtype=complex)  # 16 MB
        tracemalloc.start()
        try:
            _hermitian_deviation(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes

    def test_has_no_arithmetic(self, rng):
        # sums and products are taken on the plain matrices, so no
        # intermediate pays a validation
        a = Operator(random_hermitian(rng, 4))
        b = Operator(random_hermitian(rng, 4))
        for combine in (lambda: a + b, lambda: a - b, lambda: a @ b,
                        lambda: 2.5 * a, lambda: a * 2.5):
            with pytest.raises(TypeError):
                combine()

    def test_matrices_frozen(self):
        op = Operator(np.eye(3))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0


class TestHermitianEig:
    """The package diagonalizes an operator with `np.linalg.eigh` on its
    matrix and relies on ascending eigenvalues (norms read off the ends)."""

    def test_identity(self):
        w, _ = np.linalg.eigh(Operator(np.eye(4)).matrix)
        assert np.allclose(w, np.ones(4))

    def test_two_level_diagonal(self):
        w, v = np.linalg.eigh(Operator(np.diag([0.0, 1.0]).astype(complex)).matrix)
        assert np.allclose(w, [0.0, 1.0])
        assert abs(abs(v[0, 0]) - 1.0) < 1e-12

    def test_against_inertia_oracle(self, rng):
        h = random_hermitian(rng, 6)
        w, _ = np.linalg.eigh(Operator(h).matrix)
        oracle = eigenvalues_by_inertia(h, tol=1e-11)
        assert np.max(np.abs(w - oracle)) < 1e-8

    def test_reconstruction_residual_sweep(self, rng):
        # 200 random Hermitian matrices up to dim 64
        for _ in range(200):
            dim = int(rng.integers(2, 65))
            h = random_hermitian(rng, dim)
            w, v = np.linalg.eigh(Operator(h).matrix)
            recon = v @ np.diag(w) @ v.conj().T
            norm = np.linalg.norm(h, 2)
            assert np.linalg.norm(h - recon, 2) <= 1e-9 * (1 + norm)
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self, rng):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(NonHermitianInput):
            Operator(z)


class TestEvolve:
    """`evolve` applies exp(-i t h) to columns, never forming the unitary."""

    def test_zero_time_is_identity(self, rng):
        eig = np.linalg.eigh(random_hermitian(rng, 5))
        psi = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        assert np.allclose(evolve(*eig, 0.0, psi), psi, atol=1e-12)

    def test_diagonal_phases(self):
        omega = 0.7
        eig = np.linalg.eigh(np.diag([0.0, omega]).astype(complex))
        out = evolve(*eig, 1.3, np.eye(2, dtype=complex))
        assert abs(out[0, 0] - 1.0) < 1e-12 and abs(out[1, 0]) < 1e-12
        assert abs(out[1, 1] - np.exp(-1j * omega * 1.3)) < 1e-12 and abs(out[0, 1]) < 1e-12

    def test_against_pade_oracle(self, rng):
        # a block of columns under one decomposition, and one column
        # under a stack of them
        h = random_hermitian(rng, 8)
        psi = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        out = evolve(*np.linalg.eigh(h), 0.83, psi)
        assert np.linalg.norm(out - expm_oracle(h, 0.83) @ psi, 2) < 1e-10
        hs = np.stack([random_hermitian(rng, 8) for _ in range(4)])
        out = evolve(*np.linalg.eigh(hs), 0.83, psi[:, :1])
        assert out.shape == (4, 8, 1)
        for h, column in zip(hs, out):
            assert np.linalg.norm(column - expm_oracle(h, 0.83) @ psi[:, :1], 2) < 1e-10

    def test_unitarity_and_group_property(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 33))
            eig = np.linalg.eigh(random_hermitian(rng, dim))
            psi = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
            s, t = rng.normal(), rng.normal()
            out = evolve(*eig, s + t, psi)
            assert np.allclose(np.linalg.norm(out, axis=0), np.linalg.norm(psi, axis=0),
                               rtol=1e-12, atol=0)
            assert np.linalg.norm(evolve(*eig, s, evolve(*eig, t, psi)) - out, 2) < 1e-9
            assert np.linalg.norm(evolve(*eig, -t, evolve(*eig, t, psi)) - psi, 2) < 1e-9

    def test_stack_is_the_slices_bit_for_bit(self, rng):
        # fig1's batched detuning scan relies on it: the stack form makes
        # each slice's products as a call on that slice does
        for dim in (4, 9):
            w, v = np.linalg.eigh(np.stack([random_hermitian(rng, dim) for _ in range(6)]))
            psi = rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1))
            stacked = evolve(w, v, 0.61, psi)
            for i in range(len(w)):
                assert np.array_equal(stacked[i], evolve(w[i], v[i], 0.61, psi))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(7)) == pytest.approx(1.0)

    def test_two_level(self):
        omega = 2.3
        assert operator_norm(np.diag([0.0, omega]).astype(complex)) == pytest.approx(omega)

    def test_against_power_iteration(self, rng):
        a = random_hermitian(rng, 5)
        ours = operator_norm(a)
        oracle = norm_by_power_iteration(a)
        assert abs(ours - oracle) / ours < 1e-8

    def test_triangle_and_submultiplicative(self, rng):
        # on Hermitian sums: a + b, and the anticommutator ab + ba, whose
        # norm is at most 2 |a| |b|
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            na, nb = operator_norm(a), operator_norm(b)
            assert operator_norm(a + b) <= na + nb + 1e-10
            assert operator_norm(a @ b + b @ a) <= 2 * na * nb + 1e-10


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_hermitian(rng, 2)
        rho_a = a @ a.conj().T
        rho_a /= np.trace(rho_a).real
        b = random_hermitian(rng, 3)
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        joint = DensityMatrix(np.kron(rho_a, rho_b))
        out = partial_trace(joint, 3)
        assert np.max(np.abs(out.entries - rho_a)) < 1e-10

    def test_maximally_entangled(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()))
        out = partial_trace(rho, 2)
        assert np.max(np.abs(out.entries - np.eye(2) / 2)) < 1e-10

    def test_against_index_sum_oracle(self):
        # clock ground state, trace out the clock register
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        band = clock_band_structure(model, build_clock(model))
        eta = band.vector(0)
        rho = DensityMatrix(np.outer(eta, eta.conj()))
        ours = partial_trace(rho, 4)
        oracle = partial_trace_by_index_sum(rho.entries, [2, 4], keep=[0])
        assert np.max(np.abs(ours.entries - oracle)) < 1e-12

    def test_trace_and_positivity_preserved(self, rng):
        for _ in range(10):
            z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            out = partial_trace(DensityMatrix(rho), 2)
            assert abs(np.trace(out.entries).real - 1.0) < 1e-10
            assert out.min_eigenvalue() > -1e-9
            # the value kept from validation equals a fresh computation
            m = out.entries
            fresh = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
            assert out.min_eigenvalue() == fresh

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(DensityMatrix(np.eye(4) / 4), 3)


class TestEigenwindow:
    """`bounds._window`: the eigenvectors of an `eigh` pair inside a window."""

    def test_two_level(self):
        eig = np.linalg.eigh(np.diag([0.0, 1.0]).astype(complex))
        vectors, mask = _window(eig, -0.5, 0.5)
        assert vectors.shape == (2, 1)
        assert mask.tolist() == [True, False]
        assert abs(abs(vectors[0, 0]) - 1.0) < 1e-12

    def test_full_window(self, rng):
        eig = np.linalg.eigh(random_hermitian(rng, 5))
        vectors, mask = _window(eig, -100.0, 100.0)
        assert mask.all()
        assert np.allclose(vectors @ vectors.conj().T, np.eye(5), atol=1e-10)

    def test_empty_window_flagged(self):
        vectors, mask = _window(np.linalg.eigh(np.eye(3)), 5.0, 6.0)
        assert vectors.shape == (3, 0)
        assert not mask.any()

    def test_clock_band_window(self):
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        from qsc.models import build_clock

        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        omega1 = band_energies(2)[1]
        vectors, _ = _window(np.linalg.eigh(h_s.matrix), omega1 - band.delta / 2,
                             omega1 + band.delta / 2)
        assert vectors.shape[1] == 1
        overlap = abs(np.vdot(vectors[:, 0], band.vector(1)))
        assert abs(overlap - 1.0) < 1e-9


class TestValueTypes:
    def test_state_norm_enforced(self):
        # a state is a plain vector: a density run meets its norm as the
        # trace of its first density matrix
        psi = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.outer(psi, psi.conj()))

    def test_density_checks(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
