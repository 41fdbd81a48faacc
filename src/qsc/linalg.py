"""Dense complex linear algebra on tensor-product Hilbert spaces.

Value types (operators, states, density matrices) are immutable after
construction and validate their own invariants, so downstream protocol
code can assume well-formed inputs.  `Operator` is the one checked
Hermitian type: its Hermiticity is tested once, when it is built, and
everything that needs it trusts it afterwards.  Eigendecompositions
(`np.linalg.eigh` pairs), unitaries and subspace bases are plain arrays.
Unitary evolution is computed by exact Hermitian eigendecomposition;
there is no Trotterization anywhere in the package.
"""

from __future__ import annotations

from typing import Sequence

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


# Sets a field of a value type: the one way past `_Frozen`'s guard, which
# only constructors take.
_setattr = object.__setattr__


class _Frozen:
    """The guard that makes the package's value types immutable.

    A value type lists its fields as `__slots__` (a name with a leading
    underscore is a cache, not a field) and sets each once in `__init__`
    through `_setattr`; assigning or deleting an attribute afterwards
    raises AttributeError.  Defining such a class generates no code, where
    a frozen dataclass compiles its methods at import.  Values compare and
    hash by identity.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Fill a copied or unpickled value past the guard; `state` is the
        (__dict__ or None, slot values) pair `copy` and `pickle` take."""
        attrs, slots = state
        for name, value in slots.items():
            _setattr(self, name, value)
        if attrs:
            self.__dict__.update(attrs)

    def _replace(self, **changes):
        """A copy with `changes` in place of those fields, built (and so
        validated) by the constructor."""
        fields = {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}
        return type(self)(**{**fields, **changes})


class Operator(_Frozen):
    """A dense complex Hermitian matrix.

    Construction checks Hermiticity once, with a test scaled by the norm:
    max |m - m^+| <= atol * (1 + |m|_2), atol = config.HERMITICITY_ATOL;
    the operations that need it trust it afterwards.  Sums and products
    are taken on the plain `matrix`; only the matrix a computation hands
    on is wrapped again.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        _setattr(self, "matrix", matrix)
        self.__post_init__()

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        _setattr(self, "matrix", _freeze(m))
        atol = config.HERMITICITY_ATOL
        scale = 1.0 + (float(np.linalg.norm(m, 2)) if m.size else 0.0)
        dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if dev > atol * scale:
            raise NonHermitianInput(
                f"operator max deviation {dev:.3e} from Hermitian exceeds "
                f"{atol:.1e} * (1 + norm)"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class StateVector(_Frozen):
    """A unit-normalized complex vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        a = np.array(amplitudes, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(a)
        if abs(nrm - 1.0) > config.NORM_ATOL:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond tolerance")
        _setattr(self, "amplitudes", _freeze(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @staticmethod
    def basis(dim: int, index: int) -> "StateVector":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return StateVector(v)


class DensityMatrix(_Frozen):
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Positivity is enforced down to the configured eigenvalue floor so that
    exact arithmetic noise from long map compositions does not reject
    physically valid states.  The minimum eigenvalue that validation
    computes is kept for `min_eigenvalue`.
    """

    __slots__ = ("entries", "_min_eig")

    def __init__(self, entries: np.ndarray):
        _setattr(self, "entries", entries)
        _setattr(self, "_min_eig", None)
        self.__post_init__()

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        _setattr(self, "entries", _freeze(m))
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
            _setattr(self, "_min_eig", float(np.min(np.linalg.eigvalsh(h))))
        return self._min_eig


def operator_norm(op: Operator | np.ndarray) -> float:
    """Operator 2-norm of a Hermitian operator, or of an array the caller
    knows to be Hermitian: its largest |eigenvalue|."""
    m = op.matrix if isinstance(op, Operator) else op
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def connected_blocks(*matrices: np.ndarray) -> list[np.ndarray]:
    """The connected components of the joint nonzero pattern of square
    matrices of one size (i ~ j when some matrix has a nonzero (i, j) or
    (j, i) entry), as ascending index arrays in order of their least
    index.  Every matrix is block diagonal on them, so the norm of a
    Hermitian sum of the matrices is the largest norm of its principal
    submatrices on the blocks.

    A union-find over the nonzero entries (path halving, each root the
    least index of its tree) takes O(nonzeros) memory and forms no dense
    index matrix.
    """
    root = list(range(matrices[0].shape[0]))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for m in matrices:
        rows, cols = np.nonzero(m)
        for i, j in zip(rows.tolist(), cols.tolist()):
            a, b = find(i), find(j)
            if a != b:
                root[max(a, b)] = min(a, b)
    blocks: dict[int, list[int]] = {}
    for i in range(len(root)):
        blocks.setdefault(find(i), []).append(i)
    return [np.array(b) for b in blocks.values()]


def evolve(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Exact unitary exp(-i t h) of a Hermitian h, from its
    eigendecomposition (w, v) = np.linalg.eigh(h)."""
    phases = np.exp(-1j * t * w)
    return v @ (phases[:, None] * v.conj().T)


def hybridized_pair(h: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Splitting of the two eigenstates of the Hermitian matrix h that carry
    the most weight on the states a and b (the pair a resonant coupling of
    a and b hybridizes), and the eigendecomposition of h.

    Returns (splitting, w, v), with (w, v) = np.linalg.eigh(h).
    """
    w, v = np.linalg.eigh(h)
    bras = v.conj().T
    weight = np.abs(bras @ a) ** 2 + np.abs(bras @ b) ** 2
    top = np.argsort(-weight)[:2]
    return float(abs(w[top[0]] - w[top[1]])), w, v


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
