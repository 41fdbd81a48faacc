"""Dense complex linear algebra on tensor-product Hilbert spaces, whose
last factor is the one a partial trace removes (a run's bath).

Value types (operators, density matrices) are immutable after
construction and validate their own invariants.  `Operator` is the type of
a Hamiltonian where it enters a run from outside the code that built it
(an H_S, a replayed dump's matrix), tested once, when built; a coupling,
and a bound suite's generated input, are built exact.  No function takes
an `Operator`: its caller hands in the `matrix`.  A Hamiltonian derived
from them is a plain array and is not tested again:

  * kron products with real symmetric bath factors, real scalings and
    sums of exactly Hermitian operators are exactly Hermitian: an entry
    z c (c real) and its mirror conj(z) c round to conjugates, since
    complex times real rounds the real and imaginary parts apart and
    rounding commutes with negation; so do a + b and conj(a) + conj(b);
  * a product p (say u diag(w) u^+) is made exactly Hermitian as
    (p + p^+)/2 (`_hermitian_part`): its mirrored entries are the sums
    p_ij + conj(p_ji) and p_ji + conj(p_ij), whose real parts add the
    same two numbers and whose imaginary parts subtract them in the two
    orders, so they round to conjugates, and halving is exact;
  * a sum of validated operators deviates from Hermitian by at most the
    sum of their deviations, plus one rounding (eps/2 of the modulus) of
    each of the two mirrored entries.

A function that takes a matrix takes a stack of them, an array with
leading axes, where it says so; a single matrix is then a stack of none.

Eigendecompositions (`np.linalg.eigh` pairs), subspace bases and states
are plain arrays: every setup builds its fiducial as a complex unit
vector, and a density run, whose ladder keeps the trace, meets it again at
its final `DensityMatrix`, which refuses a wrong trace.  Evolution applies
exact eigendecompositions to the states it moves (`evolve`): no exp(-i t h)
is formed, and there is no Trotterization in the package.
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import DimensionMismatch, NonHermitianInput, UnresolvedSplitting


def _frozen_matrix(entries) -> np.ndarray:
    """`entries` as a read-only square complex128 matrix: the array itself,
    frozen in place, when it is a C-contiguous complex128 ndarray that owns
    its data (the caller hands it over), a frozen copy otherwise."""
    m = entries
    if not (type(m) is np.ndarray and m.dtype == complex and m.flags.c_contiguous
            and m.flags.owndata):
        m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


def _hermitian_deviation(m: np.ndarray) -> float:
    """max |m - m^+| over the entries of a square matrix (0 for an empty
    one, NaN if an entry is), computed over row panels."""
    rows = max(1, 2 ** 18 // max(1, len(m)))  # 4 MB panels of complex128
    return float(np.max([np.max(np.abs(m[i:i + rows] - m[:, i:i + rows].conj().T))
                         for i in range(0, len(m), rows)], initial=0.0))


# Sets a field of a value type: the one way past `_Frozen`'s guard, which
# only `_Frozen.__init__` and the `__post_init__` normalizations take.
_setattr = object.__setattr__


class _Frozen:
    """The one constructor of the package's value types, and the guard
    that makes them immutable.

    A value type is its `__slots__`, its `_DEFAULTS` and its
    `__post_init__`.  The public names of `__slots__` are its fields, in
    order: the constructor binds positional and keyword arguments to them
    as a signature would, fills an omitted field from the class's
    `_DEFAULTS` dict and refuses a missing, unknown, repeated or surplus
    one with TypeError.  A name with a leading underscore is a cache and
    starts as None (`__dict__`, the home of `functools.cached_property`,
    is left alone).  Then `__post_init__` checks the fields, and may
    normalize one through `_setattr`; it is a no-op unless the type
    overrides it.  Assigning or deleting an attribute afterwards raises
    AttributeError.  Defining such a class generates no code, where a
    frozen dataclass compiles its methods at import.  Values compare and
    hash by identity, and no run copies one: `copy` and `pickle` restore a
    value by assigning its slots, which the guard refuses.
    """

    __slots__ = ()
    _DEFAULTS: dict = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = [name for name in cls.__slots__ if name[0] != "_"]
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        values = {**cls._DEFAULTS, **values}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
        for name in cls.__slots__:
            if name != "__dict__":
                _setattr(self, name, values.get(name))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy with `changes` in place of those fields, built (and so
        validated) by the constructor."""
        fields = {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}
        return type(self)(**{**fields, **changes})


class Operator(_Frozen):
    """A dense complex Hermitian matrix, where it enters a run.

    It is tested once, when it is built, with a test scaled by the norm:
    max |m - m^+| <= atol * (1 + |m|_2), atol = config.HERMITICITY_ATOL.
    A non-finite entry (NaN or +-inf) is refused before the norm is taken.
    The deviation is taken over row panels, and the matrix handed in is
    kept without a copy when it can be (`_frozen_matrix`).  What sums and
    products of `matrix` derive stays a plain array (see the module
    docstring).
    """

    __slots__ = ("matrix",)

    def __post_init__(self):
        m = _frozen_matrix(self.matrix)
        _setattr(self, "matrix", m)
        if not np.isfinite(m).all():
            raise NonHermitianInput("operator has a non-finite entry")
        atol = config.HERMITICITY_ATOL
        scale = 1.0 + (float(np.linalg.norm(m, 2)) if m.size else 0.0)
        dev = _hermitian_deviation(m)
        if dev > atol * scale:
            raise NonHermitianInput(
                f"operator max deviation {dev:.3e} from Hermitian exceeds "
                f"{atol:.1e} * (1 + norm)"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class DensityMatrix(_Frozen):
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Positivity is enforced down to the configured eigenvalue floor so that
    the roundoff of a long ladder does not reject physically valid
    states.  The minimum eigenvalue that validation
    computes is kept for `min_eigenvalue`.  The entries are taken, and
    tested for Hermiticity, as `Operator` takes its matrix.
    """

    __slots__ = ("entries", "_min_eig")

    def __post_init__(self):
        m = _frozen_matrix(self.entries)
        _setattr(self, "entries", m)
        if _hermitian_deviation(m) > 10 * config.HERMITICITY_ATOL:
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

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian part, computed at most once."""
        if self._min_eig is None:
            h = (self.entries + self.entries.conj().T) / 2
            _setattr(self, "_min_eig", float(np.min(np.linalg.eigvalsh(h))))
        return self._min_eig


def _hermitian_part(p: np.ndarray) -> np.ndarray:
    """(p + p^+)/2 of a square matrix or of each of a stack: exactly
    Hermitian (see the module docstring)."""
    return (p + p.conj().mT) / 2


def operator_norm(m: np.ndarray) -> float | np.ndarray:
    """Operator 2-norm of a matrix the caller knows to be Hermitian: its
    largest |eigenvalue|.  Of a stack, the array of the norms of its
    matrices, from one batched eigvalsh."""
    norms = np.max(np.abs(np.linalg.eigvalsh(m)), axis=-1)
    return norms if m.ndim > 2 else float(norms)


def _check_resolved(gap: float, w: np.ndarray, what: str, name: str, advice: str) -> None:
    """Refuse a gap read off the ascending eigenvalues w of the Hermitian
    `name` if it is at most `config.SPLITTING_FLOOR_EPS` * eps * ||name||
    (the norm read off w's ends): it is the roundoff of that eigh, an
    UnresolvedSplitting that names `what` it is and gives the `advice`."""
    roundoff = np.finfo(float).eps * max(-w[0], w[-1])
    if not gap > config.SPLITTING_FLOOR_EPS * roundoff:
        raise UnresolvedSplitting(f"{what} {gap:.3e} <= {config.SPLITTING_FLOOR_EPS} * "
                                  f"eps*||{name}||, with eps*||{name}|| = {roundoff:.3e}: {advice}")


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


def evolve(w: np.ndarray, v: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i t h) psi on the columns of psi, from the eigendecomposition
    (w, v) = np.linalg.eigh(h) of a Hermitian h, or from a stack of them
    slice by slice: v (e^{-i t w} o (v^+ psi)), with v^+ psi taken as
    (psi^+ v)^+, so no array of h's size (the unitary, v^+) is formed."""
    amps = (psi.conj().swapaxes(-1, -2) @ v).conj().swapaxes(-1, -2)
    return v @ (np.exp(-1j * t * w)[..., None] * amps)


def partial_trace(rho: DensityMatrix, traced_dim: int) -> DensityMatrix:
    """Trace out the last tensor factor, of dimension `traced_dim` (every
    run's bath, or a readout's clock register, is the last factor)."""
    kept_dim, rest = divmod(rho.dim, traced_dim)
    if rest:
        raise DimensionMismatch(f"traced_dim={traced_dim} does not divide rho.dim={rho.dim}")
    tensor_form = rho.entries.reshape(kept_dim, traced_dim, kept_dim, traced_dim)
    return DensityMatrix(np.trace(tensor_form, axis1=1, axis2=3))


# Small fixed qubit matrices used across the model builders.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
PROJ1 = np.diag([0, 1]).astype(complex)
