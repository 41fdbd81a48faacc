"""Dense complex linear algebra on tensor-product Hilbert spaces.

Value types (operators, states, density matrices, subspaces, spectral
decompositions) are immutable after construction and validate their own
invariants, so downstream protocol code can assume well-formed inputs.
Unitary evolution is computed by exact Hermitian eigendecomposition; there
is no Trotterization anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import config
from .errors import DimensionMismatch, NonHermitianInput


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix with a Hermiticity declaration.

    The `hermitian` flag is a checked promise: construction verifies it
    with `_check_hermitian` and operations that need Hermiticity trust it
    afterwards.  Sums and products are taken on the plain `matrix`; only
    the matrix a computation hands on is wrapped again.
    """

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        object.__setattr__(self, "matrix", _freeze(m))
        if self.hermitian:
            _check_hermitian(m, "hermitian flag set but")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def identity(dim: int) -> "Operator":
        return Operator(np.eye(dim, dtype=complex), hermitian=True)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


@dataclass(frozen=True)
class StateVector:
    """A unit-normalized complex vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(a)
        if abs(nrm - 1.0) > config.NORM_ATOL:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond tolerance")
        object.__setattr__(self, "amplitudes", _freeze(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @staticmethod
    def basis(dim: int, index: int) -> "StateVector":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return StateVector(v)


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Positivity is enforced down to the configured eigenvalue floor so that
    exact arithmetic noise from long map compositions does not reject
    physically valid states.  The minimum eigenvalue that validation
    computes is kept for `min_eigenvalue`.
    """

    entries: np.ndarray
    validate: bool = field(default=True, repr=False)
    _min_eig: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        object.__setattr__(self, "entries", _freeze(m))
        if self.validate:
            if np.max(np.abs(m - m.conj().T)) > 10 * config.HERMITICITY_ATOL:
                raise ValueError("density matrix is not Hermitian to tolerance")
            tr = np.trace(m).real
            if abs(tr - 1.0) > config.TRACE_ATOL:
                raise ValueError(f"density matrix trace {tr} deviates from 1")
            lo = self.min_eigenvalue()
            if lo < config.POSITIVITY_FLOOR:
                raise ValueError(f"density matrix minimum eigenvalue {lo:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian part, computed at most once."""
        if self._min_eig is None:
            h = (self.entries + self.entries.conj().T) / 2
            object.__setattr__(self, "_min_eig", float(np.min(np.linalg.eigvalsh(h))))
        return self._min_eig


@dataclass(frozen=True)
class Subspace:
    """An orthonormal basis for a subspace, with its projector derived.

    An empty basis is a valid value (a dimension-0 subspace, rank 0).
    """

    space_dim: int
    basis: np.ndarray  # space_dim x k, orthonormal columns

    def __post_init__(self):
        b = np.array(self.basis, dtype=complex)
        if b.size == 0:
            b = b.reshape(self.space_dim, 0)
        if b.ndim != 2 or b.shape[0] != self.space_dim:
            raise DimensionMismatch(f"basis shape {b.shape} vs dim {self.space_dim}")
        gram = b.conj().T @ b
        if gram.size and np.max(np.abs(gram - np.eye(b.shape[1]))) > config.GRAM_ATOL:
            raise ValueError("subspace basis is not orthonormal to tolerance")
        object.__setattr__(self, "basis", _freeze(b))

    @staticmethod
    def from_vectors(vectors: Iterable[StateVector]) -> "Subspace":
        vecs = [v.amplitudes for v in vectors]
        if not vecs:
            raise ValueError("from_vectors needs at least one vector")
        return Subspace(len(vecs[0]), np.column_stack(vecs))

    @staticmethod
    def empty(space_dim: int) -> "Subspace":
        return Subspace(space_dim, np.zeros((space_dim, 0), dtype=complex))

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> Operator:
        return Operator(self.basis @ self.basis.conj().T, hermitian=True)

    def complement(self) -> "Subspace":
        p = self.basis @ self.basis.conj().T
        w, v = np.linalg.eigh(np.eye(self.space_dim) - p)
        keep = w > 0.5
        return Subspace(self.space_dim, v[:, keep])

    def restrict(self, op: Operator) -> np.ndarray:
        """Matrix of `op` compressed to this subspace's basis."""
        return self.basis.conj().T @ op.matrix @ self.basis


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and an orthonormal eigenvector matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unitary

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float).reshape(-1)
        v = np.array(self.eigenvectors, dtype=complex)
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be ascending")
        if v.shape != (w.shape[0], w.shape[0]):
            raise DimensionMismatch("eigenvector matrix shape mismatch")
        object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "eigenvectors", _freeze(v))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def vector(self, k: int) -> StateVector:
        return StateVector(self.eigenvectors[:, k])

    def window(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvectors with eigenvalue strictly inside (lo, hi), as
        columns, and the mask that selects them."""
        mask = (self.eigenvalues > lo) & (self.eigenvalues < hi)
        return self.eigenvectors[:, mask], mask


def _two_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _check_hermitian(m: np.ndarray, what: str) -> None:
    """The scaled Hermiticity test: max |m - m^+| <= atol * (1 + |m|_2)."""
    scale = 1.0 + _two_norm(m)
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > config.HERMITICITY_ATOL * scale:
        raise NonHermitianInput(
            f"{what} max deviation {dev:.3e} exceeds "
            f"{config.HERMITICITY_ATOL:.1e} * (1 + norm)"
        )


def require_hermitian(*ops: Operator) -> None:
    """Raise NonHermitianInput unless every operator is Hermitian.  A
    flagged operator passed the test when it was built and is trusted; an
    unflagged one is accepted if it passes the same test."""
    for op in ops:
        if not op.hermitian:
            _check_hermitian(op.matrix, "operator not flagged Hermitian has")


def operator_norm(op, hermitian: bool = False) -> float:
    """Operator 2-norm: max |eigenvalue| for Hermitian input (a flagged
    Operator, an array the caller declares `hermitian`, or a
    `SpectralDecomposition`, read without another LAPACK call), else the
    largest singular value."""
    if isinstance(op, SpectralDecomposition):
        return float(np.max(np.abs(op.eigenvalues)))
    if isinstance(op, Operator):
        op, hermitian = op.matrix, op.hermitian
    if hermitian:
        return float(np.max(np.abs(np.linalg.eigvalsh(op))))
    return _two_norm(np.asarray(op, dtype=complex))


def hermitian_eig(op: Operator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator (an unflagged one
    must pass `require_hermitian`).

    Eigenvectors within a degenerate cluster come back as an arbitrary
    orthonormal basis; downstream code must use projectors rather than
    individual degenerate vectors.
    """
    require_hermitian(op)
    w, v = np.linalg.eigh(op.matrix)
    return SpectralDecomposition(w, v)


def evolve(h: Operator | SpectralDecomposition, t: float) -> Operator:
    """Exact unitary exp(-i t h) of a Hermitian h, from its eigendecomposition
    (computed here unless h is one already)."""
    sd = h if isinstance(h, SpectralDecomposition) else hermitian_eig(h)
    v = sd.eigenvectors
    phases = np.exp(-1j * t * sd.eigenvalues)
    return Operator(v @ (phases[:, None] * v.conj().T))


def hybridized_pair(h: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Splitting of the two eigenstates of the Hermitian matrix h that carry
    the most weight on the states a and b (the pair a resonant coupling of
    a and b hybridizes), and the eigendecomposition of h.

    Returns (splitting, SpectralDecomposition).
    """
    w, vecs = np.linalg.eigh(h)
    bras = vecs.conj().T
    weight = np.abs(bras @ a) ** 2 + np.abs(bras @ b) ** 2
    top = np.argsort(-weight)[:2]
    return float(abs(w[top[0]] - w[top[1]])), SpectralDecomposition(w, vecs)


def tensor(a, b):
    """Kronecker product of two Operators or two StateVectors."""
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(np.kron(a.matrix, b.matrix), hermitian=a.hermitian and b.hermitian)
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    raise TypeError("tensor expects two Operators or two StateVectors")


def partial_trace(rho: DensityMatrix, dims: Sequence[int], keep: Sequence[int]) -> DensityMatrix:
    """Trace out all subsystems except those in `keep` (indices into dims).

    The kept subsystems remain in their original relative order.
    """
    dims = list(dims)
    total = int(np.prod(dims))
    if total != rho.dim:
        raise DimensionMismatch(f"prod(dims)={total} but rho.dim={rho.dim}")
    keep = sorted(set(keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatch("keep indices out of range")
    n = len(dims)
    tensor_form = rho.entries.reshape(dims + dims)
    traced = tensor_form
    # contract traced-out subsystems from the highest axis down so earlier
    # axis indices stay valid
    for ax in reversed(range(n)):
        if ax in keep:
            continue
        traced = np.trace(traced, axis1=ax, axis2=ax + n)
        n -= 1
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return DensityMatrix(traced.reshape(kept_dim, kept_dim))


# Small fixed qubit matrices used across the model builders.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
PROJ0 = np.diag([1, 0]).astype(complex)
PROJ1 = np.diag([0, 1]).astype(complex)
