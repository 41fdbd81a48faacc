"""Operator-core tests: construction invariants, eigendecomposition against
independent oracles, exact evolution, norms, partial trace, and
eigenwindows."""

import numpy as np
import pytest

from qsc.errors import DimensionMismatch, NonHermitianInput
from qsc.linalg import (
    DensityMatrix,
    Operator,
    StateVector,
    Subspace,
    evolve,
    hermitian_eig,
    operator_norm,
    partial_trace,
)
from qsc.models import ClockModel, band_energies, clock_band_structure, parse_circuit

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
            Operator(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            Operator(np.zeros((2, 3)))

    def test_has_no_arithmetic(self, rng):
        # sums and products are taken on the plain matrices, so no
        # intermediate pays a validation
        a = Operator(random_hermitian(rng, 4), hermitian=True)
        b = Operator(random_hermitian(rng, 4), hermitian=True)
        for combine in (lambda: a + b, lambda: a - b, lambda: a @ b,
                        lambda: 2.5 * a, lambda: a * 2.5):
            with pytest.raises(TypeError):
                combine()

    def test_matrices_frozen(self):
        op = Operator(np.eye(3), hermitian=True)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0


class TestHermitianEig:
    def test_identity(self):
        sd = hermitian_eig(Operator(np.eye(4), hermitian=True))
        assert np.allclose(sd.eigenvalues, np.ones(4))

    def test_two_level_diagonal(self):
        sd = hermitian_eig(Operator(np.diag([0.0, 1.0]).astype(complex), hermitian=True))
        assert np.allclose(sd.eigenvalues, [0.0, 1.0])
        assert abs(abs(sd.eigenvectors[0, 0]) - 1.0) < 1e-12

    def test_against_inertia_oracle(self, rng):
        h = random_hermitian(rng, 6)
        sd = hermitian_eig(Operator(h, hermitian=True))
        oracle = eigenvalues_by_inertia(h, tol=1e-11)
        assert np.max(np.abs(sd.eigenvalues - oracle)) < 1e-8

    def test_reconstruction_residual_sweep(self, rng):
        # 200 random Hermitian matrices up to dim 64
        for _ in range(200):
            dim = int(rng.integers(2, 65))
            h = random_hermitian(rng, dim)
            sd = hermitian_eig(Operator(h, hermitian=True))
            recon = sd.eigenvectors @ np.diag(sd.eigenvalues) @ sd.eigenvectors.conj().T
            norm = np.linalg.norm(h, 2)
            assert np.linalg.norm(h - recon, 2) <= 1e-9 * (1 + norm)
            assert np.all(np.diff(sd.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self, rng):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(NonHermitianInput):
            hermitian_eig(Operator(z))


class TestEvolve:
    def test_zero_time_is_identity(self, rng):
        h = Operator(random_hermitian(rng, 5), hermitian=True)
        assert np.allclose(evolve(h, 0.0).matrix, np.eye(5), atol=1e-12)

    def test_diagonal_phases(self):
        omega = 0.7
        h = Operator(np.diag([0.0, omega]).astype(complex), hermitian=True)
        u = evolve(h, 1.3)
        assert abs(u.matrix[0, 0] - 1.0) < 1e-12
        assert abs(u.matrix[1, 1] - np.exp(-1j * omega * 1.3)) < 1e-12

    def test_against_pade_oracle(self, rng):
        h = random_hermitian(rng, 8)
        u = evolve(Operator(h, hermitian=True), 0.83)
        assert np.linalg.norm(u.matrix - expm_oracle(h, 0.83), 2) < 1e-10

    def test_unitarity_and_group_property(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 33))
            h = Operator(random_hermitian(rng, dim), hermitian=True)
            s, t = rng.normal(), rng.normal()
            us, ut, ust = evolve(h, s), evolve(h, t), evolve(h, s + t)
            assert np.linalg.norm(
                us.matrix @ ut.matrix - ust.matrix, 2
            ) < 1e-9
            assert np.linalg.norm(
                evolve(h, -t).matrix @ ut.matrix - np.eye(dim), 2
            ) < 1e-9


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(Operator(np.eye(7), hermitian=True)) == pytest.approx(1.0)

    def test_two_level(self):
        omega = 2.3
        assert operator_norm(
            Operator(np.diag([0.0, omega]).astype(complex), hermitian=True)
        ) == pytest.approx(omega)

    def test_against_power_iteration(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        ours = operator_norm(Operator(a))
        oracle = norm_by_power_iteration(a)
        assert abs(ours - oracle) / ours < 1e-8

    def test_triangle_and_submultiplicative(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            na, nb = operator_norm(Operator(a)), operator_norm(Operator(b))
            assert operator_norm(Operator(a + b)) <= na + nb + 1e-10
            assert operator_norm(Operator(a @ b)) <= na * nb + 1e-10


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_hermitian(rng, 2)
        rho_a = a @ a.conj().T
        rho_a /= np.trace(rho_a).real
        b = random_hermitian(rng, 3)
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        joint = DensityMatrix(np.kron(rho_a, rho_b))
        out = partial_trace(joint, [2, 3], keep=[0])
        assert np.max(np.abs(out.entries - rho_a)) < 1e-10

    def test_maximally_entangled(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()))
        for keep in ([0], [1]):
            out = partial_trace(rho, [2, 2], keep=keep)
            assert np.max(np.abs(out.entries - np.eye(2) / 2)) < 1e-10

    def test_against_index_sum_oracle(self):
        # clock ground state, trace out the clock register
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        band = clock_band_structure(model)
        eta = band.vector(0)
        rho = DensityMatrix(np.outer(eta, eta.conj()))
        ours = partial_trace(rho, [2, 4], keep=[0])
        oracle = partial_trace_by_index_sum(rho.entries, [2, 4], keep=[0])
        assert np.max(np.abs(ours.entries - oracle)) < 1e-12

    def test_trace_and_positivity_preserved(self, rng):
        for _ in range(10):
            z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            out = partial_trace(DensityMatrix(rho), [2, 2, 2], keep=[1])
            assert abs(out.trace() - 1.0) < 1e-10
            assert out.min_eigenvalue() > -1e-9
            # the value kept from validation equals a fresh computation
            m = out.entries
            fresh = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
            assert out.min_eigenvalue() == fresh

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(DensityMatrix(np.eye(4) / 4), [2, 3], keep=[0])


class TestEigenwindow:
    def test_two_level(self):
        sd = hermitian_eig(Operator(np.diag([0.0, 1.0]).astype(complex), hermitian=True))
        vectors, mask = sd.window(-0.5, 0.5)
        assert vectors.shape == (2, 1)
        assert mask.tolist() == [True, False]
        assert abs(abs(vectors[0, 0]) - 1.0) < 1e-12

    def test_full_window(self, rng):
        h = Operator(random_hermitian(rng, 5), hermitian=True)
        sd = hermitian_eig(h)
        vectors, mask = sd.window(-100.0, 100.0)
        assert mask.all()
        assert np.allclose(vectors @ vectors.conj().T, np.eye(5), atol=1e-10)

    def test_empty_window_flagged(self):
        sd = hermitian_eig(Operator(np.eye(3), hermitian=True))
        vectors, mask = sd.window(5.0, 6.0)
        assert vectors.shape == (3, 0)
        assert not mask.any()

    def test_clock_band_window(self):
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        from qsc.models import build_clock

        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        sd = hermitian_eig(h_s)
        omega1 = band_energies(2)[1]
        vectors, _ = sd.window(omega1 - band.delta / 2, omega1 + band.delta / 2)
        assert vectors.shape[1] == 1
        overlap = abs(np.vdot(vectors[:, 0], band.vector(1)))
        assert abs(overlap - 1.0) < 1e-9


class TestValueTypes:
    def test_state_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_density_checks(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_subspace_orthonormality(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            Subspace(2, bad)

    def test_projector_idempotent(self, rng):
        z = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        q, _ = np.linalg.qr(z)
        sub = Subspace(6, q)
        p = sub.projector.matrix
        assert np.max(np.abs(p @ p - p)) < 1e-9
        comp = sub.complement()
        assert comp.rank == 3
        assert np.max(np.abs(p @ comp.projector.matrix)) < 1e-10
