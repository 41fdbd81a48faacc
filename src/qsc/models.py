"""Model builders: search-oracle and clock Hamiltonians, their band
structures, the qubit bath a ladder step couples to, and random states.

Qubit ordering convention: computational register qubits first (1..n),
clock qubits after (1..L), most-significant bit = qubit 1.  The unary
clock value l is encoded as |1^l 0^(L-l)> on the clock qubits.  The bath
subsystem, when present, is always the last tensor factor: a qubit bath
orders its basis (down, up); a qutrit bath (built by the probabilistic
scheme, `cooling`) orders its basis (C, R, L).

States (fiducials, random states, history vectors) are plain complex
vectors, each built normalized.  A model refuses its size before it is
built when its path's largest array would pass the cap (`_check_entries`).

The dense clock Hamiltonian is written into one array by arithmetic on the
basis index, register * 2^L + clock, with no Kronecker products; the
kron-chain construction it equals bit for bit is a test oracle.
"""

from __future__ import annotations

import ast
import cmath
import math
import operator
from pathlib import Path
from typing import Sequence

import numpy as np

from . import config
from .errors import ConfigError, DimensionMismatch, DimensionTooLarge, ParseError, SelfCheckFailed
from .linalg import PROJ1, SIGMA_X, Operator, _Frozen, _check_resolved, _setattr

# Qutrit bath basis states (order C, R, L), and the bright state B.
KET_C = np.array([1, 0, 0], dtype=complex)
KET_R = np.array([0, 1, 0], dtype=complex)
KET_L = np.array([0, 0, 1], dtype=complex)
KET_B = (KET_L + KET_R) / math.sqrt(2)

# Qubit bath basis (down, up).
KET_DOWN = np.array([1, 0], dtype=complex)
KET_UP = np.array([0, 1], dtype=complex)


def _check_entries(entries: int, what: str = "the largest array"):
    """Refuse a largest array of more than cap^2 entries (cap =
    `config.max_dimension()`): the clock's dense H_S, 4^(n+L) entries, or
    the search path's vectors of 2^n; the message names `what` holds them."""
    cap = config.max_dimension()
    if entries > cap ** 2:
        raise DimensionTooLarge(f"{what} would hold {entries} entries, "
                                f"over the cap {cap}^2 = {cap ** 2}")


# ---------------------------------------------------------------------------
# Search-oracle (two-band) model
# ---------------------------------------------------------------------------

class GroverModel(_Frozen):
    """Two-band oracle Hamiltonian on n qubits: marked strings have energy
    zero, all the rest sit at omega1.  Its path allocates vectors of 2^n
    entries, never a 2^n x 2^n matrix, so that is what the cap covers."""

    __slots__ = ("n", "marked", "omega1")
    _DEFAULTS = {"omega1": 1.0}

    def __post_init__(self):
        marked = frozenset(int(m) for m in self.marked)
        _setattr(self, "marked", marked)
        size = 2 ** self.n
        if not (1 <= len(marked) < size):
            raise ConfigError(f"need 1 <= |marked| < 2**n = {size}, got {len(marked)} marked")
        if any(m < 0 or m >= size for m in marked):
            raise ConfigError(f"marked string out of range 0..{size - 1}, got {sorted(marked)}")
        if not self.omega1 > 0:
            raise ConfigError(f"omega1 must be positive, got {self.omega1}")
        _check_entries(size)

    @property
    def dim(self) -> int:
        return 2 ** self.n


def build_grover(model: GroverModel):
    """The oracle Hamiltonian's two eigenspaces as computational-basis
    index arrays: (marked strings at energy 0, the rest at omega1).

    The Hamiltonian is diagonal, so these index sets are all of it; no
    2^n x 2^n matrix is formed.
    """
    is_marked = np.zeros(model.dim, dtype=bool)
    is_marked[list(model.marked)] = True
    return np.flatnonzero(is_marked), np.flatnonzero(~is_marked)


def grover_fiducial(model: GroverModel, kind: str = "uniform", seed: int | None = None) -> np.ndarray:
    """Fiducial state for the search model, a complex unit vector.

    "uniform" gives the equal superposition (overlap with the marked
    manifold exactly sqrt(N0/N)); "haar" draws a random state.
    """
    if kind == "uniform":
        return np.full(model.dim, 1.0 / math.sqrt(model.dim), dtype=complex)
    if kind == "haar":
        return random_state(model.n, seed if seed is not None else 0)
    raise ValueError(f"unknown fiducial kind {kind!r}")


def grover_band_structure(fiducial: np.ndarray, eigenspaces) -> np.ndarray:
    """Overlaps xs = (|P0 F|, |P1 F|) of the fiducial with the two
    eigenspaces, the (marked, unmarked) index arrays of `build_grover`; of
    a stack of fiducials (..., 2^n) row by row, as (..., 2).

    These are the band overlaps of the search model in the gauge where
    each band vector P_k F / |P_k F| has a real non-negative overlap.  A
    zero one is kept: a band block refuses it (`cooling._band_block`).
    """
    # `take` keeps each row contiguous, so a row sums as a lone fiducial does
    return np.stack([np.linalg.norm(np.take(fiducial, idx, axis=-1), axis=-1)
                     for idx in eigenspaces], axis=-1)


# ---------------------------------------------------------------------------
# Circuits and the gates-file format
# ---------------------------------------------------------------------------

_NAMED_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": SIGMA_X,
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


class Gate(_Frozen):
    """A 1- or 2-qubit unitary on the 1-based register qubits `targets`."""

    __slots__ = ("matrix", "targets")

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        _setattr(self, "matrix", m)
        k = len(self.targets)
        if m.shape != (2 ** k, 2 ** k) or k not in (1, 2):
            raise DimensionMismatch("gates act on 1 or 2 qubits")
        # written so that a NaN deviation fails too
        if not np.max(np.abs(m.conj().T @ m - np.eye(2 ** k))) <= config.HERMITICITY_ATOL * 10:
            raise ValueError("gate matrix is not unitary to tolerance")
        if k == 2 and self.targets[0] == self.targets[1]:
            raise ValueError("two-qubit gate targets must differ")


class CircuitSpec(_Frozen):
    """An ordered list of 1- and 2-qubit unitaries on an n-qubit register."""

    __slots__ = ("n", "gates")

    def __post_init__(self):
        for g in self.gates:
            if any(t < 1 or t > self.n for t in g.targets):
                raise ValueError(f"gate target out of range 1..{self.n}")

    @property
    def length(self) -> int:
        return len(self.gates)

    def unitaries(self) -> list[np.ndarray]:
        """Full 2^n x 2^n matrices, one per gate, in application order."""
        return [embed_gate(g.matrix, g.targets, self.n) for g in self.gates]


def embed_gate(u: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Embed a 1- or 2-qubit unitary into the n-qubit register.

    Qubit 1 is the most significant bit of the basis index.  u is added
    into a zero (2^k, 2^(n-k), 2^k, 2^(n-k)) array on the identity pattern
    of the other qubits, so every entry is 0 + u_ab or 0 exactly; the
    (2,)*2n axes are then moved so the targets land in qubit order.
    """
    k = len(targets)
    rest = 2 ** (n - k)
    full = np.zeros((2 ** k, rest, 2 ** k, rest), dtype=complex)
    diagonal = np.arange(rest)
    full[:, diagonal, :, diagonal] += u
    qubits = list(targets) + [q for q in range(1, n + 1) if q not in targets]
    axes = [qubits.index(q) for q in range(1, n + 1)]
    full = full.reshape((2,) * (2 * n)).transpose(axes + [n + a for a in axes])
    return full.reshape(2 ** n, 2 ** n)


def _matrix_literal(spec: str, lineno: int) -> np.ndarray:
    """A bracketed matrix literal of finite numbers."""
    try:
        entries = np.array(ast.literal_eval(spec), dtype=object)
        finite = all(type(x) in (int, float, complex) and cmath.isfinite(x)
                     for x in entries.flat)
    except (ValueError, TypeError, SyntaxError, OverflowError, RuntimeError) as exc:
        # TypeError: an unhashable set or dict key; RuntimeError: nesting
        # deeper than the parser's recursion or numpy's 32 dimensions
        raise ParseError(f"line {lineno}: bad matrix literal") from exc
    if not finite:
        raise ParseError(f"line {lineno}: matrix literal entries must be finite numbers")
    return entries.astype(complex)


def parse_circuit(text: str, n: int) -> CircuitSpec:
    """Parse the line-oriented gates format.

    Grammar (one gate per line, '#' starts a comment, blank lines skipped):

        G <name|matrix> q1 [q2]

    <name> is one of I X Y Z H S T CX CZ SWAP.  <matrix> is a bracketed
    2x2 or 4x4 complex matrix literal with no internal whitespace, e.g.
    [[0,1],[1,0]] or [[1,0],[0,1j]].  Qubit indices are 1-based.
    """
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "G" or len(parts) < 3:
            raise ParseError(f"line {lineno}: expected 'G <gate> q1 [q2]'")
        spec, qubits = parts[1], parts[2:]
        try:
            targets = tuple(int(q) for q in qubits)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad qubit index") from exc
        if any(t < 1 or t > n for t in targets):
            raise ParseError(f"line {lineno}: gate target out of range 1..{n}")
        if spec.startswith("["):
            matrix = _matrix_literal(spec, lineno)
        elif spec.upper() in _NAMED_GATES:
            matrix = _NAMED_GATES[spec.upper()]
        else:
            raise ParseError(f"line {lineno}: unknown gate {spec!r}")
        expected = {2: 1, 4: 2}.get(matrix.shape[0] if matrix.ndim == 2 else 0)
        if expected is None or len(targets) != expected:
            raise ParseError(
                f"line {lineno}: gate arity does not match target count"
            )
        try:
            gates.append(Gate(matrix, targets))
        except (ValueError, DimensionMismatch) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return CircuitSpec(n, tuple(gates))


def load_circuit(path: str | Path, n: int) -> CircuitSpec:
    return parse_circuit(Path(path).read_text(), n)


def pad_with_identities(circuit: CircuitSpec, count: int) -> CircuitSpec:
    """Append `count` identity gates, lengthening the computation history."""
    if count < 0:
        raise ValueError("count must be >= 0")
    pad = tuple(Gate(np.eye(2, dtype=complex), (1,)) for _ in range(count))
    return CircuitSpec(circuit.n, circuit.gates + pad)


# ---------------------------------------------------------------------------
# Clock model
# ---------------------------------------------------------------------------

class ClockModel(_Frozen):
    """History-tracking Hamiltonian for a circuit, with an input penalty
    that resolves the low-energy band and a penalty that projects out
    non-unary clock configurations."""

    __slots__ = ("circuit", "omega", "h")
    _DEFAULTS = {"omega": 1.0, "h": config.DEFAULT_PENALTY_FACTOR}

    def __post_init__(self):
        if not (0 < self.h <= 1):
            raise ConfigError(f"penalty factor must satisfy 0 < h <= 1, got h = {self.h}")
        if not self.omega > 0:
            raise ConfigError(f"omega must be positive, got {self.omega}")
        if self.circuit.length < 1:
            raise ConfigError("clock model needs at least one gate, got an empty circuit")
        _check_entries(4 ** (self.n + self.length))  # the dense H_S
        # the input penalty must stay below the hopping level spacing for
        # first-order perturbation theory to resolve the bands
        spacing = self.omega * float(np.min(np.diff(band_energies(self.length, 1.0))))
        if self.delta1 >= spacing:
            raise ConfigError(f"input penalty {self.delta1:.3e} >= minimum hopping level "
                              f"spacing {spacing:.3e}; lower h = {self.h}")

    @property
    def n(self) -> int:
        return self.circuit.n

    @property
    def length(self) -> int:
        return self.circuit.length

    @property
    def delta1(self) -> float:
        n, length = self.n, self.length
        return self.h * self.omega * math.pi ** 2 / (2 * n * (length + 1) ** 2)

    @property
    def clock_penalty(self) -> float:
        return 2 * self.omega


def band_energies(length: int, omega: float = 1.0) -> np.ndarray:
    """Low-band energies omega * (1 - cos(j*pi/(L+1))), j = 0..L."""
    j = np.arange(length + 1)
    return omega * (1.0 - np.cos(j * math.pi / (length + 1)))


def overlap_coefficients(length: int) -> np.ndarray:
    """Overlaps of the all-zeros product state with the low band:
    x_0 = 1/sqrt(L+1), x_k = sqrt(2/(L+1)) cos(k*pi/(2(L+1)))."""
    lp1 = length + 1
    xs = np.empty(lp1)
    xs[0] = 1.0 / math.sqrt(lp1)
    for k in range(1, lp1):
        xs[k] = math.sqrt(2.0 / lp1) * math.cos(k * math.pi / (2 * lp1))
    return xs


def band_profile(length: int) -> np.ndarray:
    """The cosine profiles of the clock's low band: c[k, l] =
    sqrt((2 - delta_k0)/(L+1)) cos((l + 1/2) k pi/(L+1)), the amplitude of
    band vector k on history site l."""
    lp1 = length + 1
    return np.array([[math.sqrt((2.0 - (k == 0)) / lp1)
                      * math.cos((l + 0.5) * k * math.pi / lp1) for l in range(lp1)]
                     for k in range(lp1)])


def shift_factors(length: int) -> np.ndarray:
    """First-order input-penalty shift per unit Hamming weight:
    h_k = (2 - delta_k0)/(L+1) * cos^2(k*pi/(2(L+1)))."""
    lp1 = length + 1
    hs = np.empty(lp1)
    for k in range(lp1):
        hs[k] = (2.0 - (k == 0)) / lp1 * math.cos(k * math.pi / (2 * lp1)) ** 2
    return hs


def clock_site_index(length: int, l: int) -> int:
    """Basis index of the unary clock value |1^l 0^(L-l)> on L clock qubits."""
    return (2 ** l - 1) << (length - l)


def clock_value_vector(length: int, l: int, register: np.ndarray) -> np.ndarray:
    """|register> tensor |1^l 0^(L-l)> as a raw vector."""
    return np.kron(register, _unit_vector(2 ** length, clock_site_index(length, l)))


def _unit_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def register_history(circuit: CircuitSpec) -> list[np.ndarray]:
    """The register states of the computation history: |0...0> and then
    U_l ... U_1 |0...0> for l = 1..L."""
    states = [_unit_vector(2 ** circuit.n, 0)]
    for u in circuit.unitaries():
        states.append(u @ states[-1])
    return states


def _history_vectors(model: ClockModel) -> list[np.ndarray]:
    """The history on the unary clock, |psi_l> (x) |1^l 0^(L-l)> for l = 0..L."""
    return [clock_value_vector(model.length, l, state)
            for l, state in enumerate(register_history(model.circuit))]


def build_clock(model: ClockModel) -> Operator:
    """The clock Hamiltonian on n + L qubits, omega * hopping + delta1 *
    input penalty + 2 omega * clock penalty, written entry by entry into
    one zeroed array.

    The basis index is register * 2^L + clock, and clock qubit l is bit
    L - l of the clock value.  Step l's controls hold where clock qubit
    l - 1 reads 1 and qubit l + 1 reads 0 (each where it exists); there it
    adds omega/2 to the diagonal and, from each column whose qubit l reads
    0, moves |r, c> to U_l|r>, c | bit l with amplitude -omega/2 (and the
    conjugate back).  The input penalty counts the register's ones while
    clock qubit 1 reads 0; the clock penalty counts adjacent "01" clock
    pairs.  The diagonal is summed in the order of omega * h_prop + delta1
    * h_input + 2 omega * h_clock, and `+ 0.0` turns each moved -0 into
    the +0 that sum leaves, so H_S equals it bit for bit (the kron
    reference is `tests/oracles.py:build_clock_parts`).
    """
    n, length = model.n, model.length
    clock = np.arange(2 ** length)
    reads = {l: (clock >> (length - l)) & 1 for l in range(1, length + 1)}  # qubit l
    h_s = np.zeros((2 ** (n + length),) * 2, dtype=complex)
    blocks = h_s.reshape(2 ** n, 2 ** length, 2 ** n, 2 ** length)
    steps = np.zeros(2 ** length)  # the number of steps whose controls hold
    for l, u in enumerate(model.circuit.unitaries(), start=1):
        holds = np.ones(2 ** length, dtype=bool)
        if l > 1:
            holds &= reads[l - 1] == 1
        if l < length:
            holds &= reads[l + 1] == 0
        steps += holds
        c = clock[holds & (reads[l] == 0)]
        moved = -0.5 * model.omega * u
        blocks[:, c | (1 << (length - l)), :, c] = moved + 0.0
        blocks[:, c, :, c | (1 << (length - l))] = moved.conj().T + 0.0
    ones = np.array([bin(r).count("1") for r in range(2 ** n)])
    pairs = sum((reads[l] == 0) & (reads[l + 1] == 1) for l in range(1, length))
    np.fill_diagonal(h_s, (model.omega * (0.5 * steps)
                           + model.delta1 * np.outer(ones, reads[1] == 0)
                           + model.clock_penalty * pairs).reshape(-1))
    _verify_legal_sector(h_s, model)
    return Operator(h_s)


def _verify_legal_sector(h_s: np.ndarray, model: ClockModel) -> None:
    """Construction contract: on the history states (the unary-clock
    sector with the all-zeros input) both penalties vanish, and H_S must be
    omega times the exact tridiagonal free-particle matrix there."""
    length = model.length
    basis = np.column_stack(_history_vectors(model))
    block = basis.conj().T @ h_s @ basis
    lp1 = length + 1
    target = np.zeros((lp1, lp1), dtype=complex)
    for l in range(lp1):
        target[l, l] = 1.0 if l in (0, length) else 2.0
        if l < length:
            target[l, l + 1] = target[l + 1, l] = -1.0
    target *= 0.5 * model.omega
    residual = float(np.max(np.abs(block - target)))
    if residual > config.RESIDUAL_RTOL * (1 + length) * model.omega:
        raise SelfCheckFailed(
            f"legal-sector hopping block deviates from the tridiagonal target "
            f"by {residual:.3e}"
        )


class BandStructure(_Frozen):
    """The resolved low band: energies, eigenvectors (columns), and the
    spectral distance delta separating each band energy from the rest of
    the spectrum; `spectrum` holds the full ascending spectrum of the H_S
    delta was measured on, when that H_S was diagonalized (a dense clock
    setup's; a band block reaches it through its `dense` setup)."""

    __slots__ = ("omegas", "vectors", "delta", "spectrum")
    _DEFAULTS = {"spectrum": None}

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("band structure requires a positive gap")

    @property
    def size(self) -> int:
        return len(self.omegas)

    def vector(self, j: int) -> np.ndarray:
        return self.vectors[:, j]


def clock_band_structure(model: ClockModel, h_s: Operator) -> BandStructure:
    """Low-band eigenvectors from the closed-form construction, plus the
    brute-force spectral gap of the model's assembled Hamiltonian `h_s`
    (`build_clock(model)`).

    The band vectors are built analytically (history-propagated cosine
    profiles); the gap comes from the full spectrum with the band's own
    eigenvalues excluded by eigenvector overlap.  A gap within roundoff of
    H_S (`linalg._check_resolved`) is not the input penalty's:
    UnresolvedSplitting, naming h.
    """
    n, length = model.n, model.length
    history = _history_vectors(model)
    lp1 = length + 1
    profile = band_profile(length)
    vectors = np.zeros((2 ** (n + length), lp1), dtype=complex)
    for k in range(lp1):
        for l in range(lp1):
            vectors[:, k] += profile[k, l] * history[l]
    omegas = band_energies(length, model.omega)
    evals, evecs = np.linalg.eigh(h_s.matrix)

    # residual check: these must be exact eigenvectors of the assembled H_S
    # (scaled by its norm, read off the spectrum just computed)
    residual = float(np.max(np.abs(h_s.matrix @ vectors - vectors * omegas[None, :])))
    if residual > config.RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(evals)))):
        raise SelfCheckFailed(
            f"closed-form band vectors fail the eigen residual check by {residual:.3e}"
        )

    overlaps = np.abs(vectors.conj().T @ evecs) ** 2  # (L+1) x dim
    in_band = overlaps.sum(axis=0) > 0.5
    others = evals[~in_band]
    # spectral resolution of the band: every eigenvalue but omega_j itself
    # competes, including the other band energies
    candidates = []
    for j, oj in enumerate(omegas):
        candidates.append(np.min(np.abs(others - oj)))
        candidates.extend(abs(ok - oj) for k, ok in enumerate(omegas) if k != j)
    delta = float(min(candidates))
    _check_resolved(delta, evals, "band gap", "H_S", f"it is not resolved; raise h = {model.h}")
    return BandStructure(omegas=omegas, vectors=vectors, delta=delta, spectrum=evals)


def clock_coupling_direction(model: ClockModel) -> np.ndarray:
    """Unit-norm coupling direction, a plain array (exactly Hermitian): the
    |0><0| projector on the first clock qubit, the 0/1 diagonal mask of the
    basis states whose clock qubit 1 reads 0.  Within the low band it acts
    as the rank-one projector onto the all-zeros product state."""
    clock = np.arange(2 ** (model.n + model.length)) % 2 ** model.length
    return np.diag((clock >> (model.length - 1) == 0).astype(complex))


# ---------------------------------------------------------------------------
# Baths and couplings
# ---------------------------------------------------------------------------

def build_bath_and_couplings(h_s: np.ndarray, t: np.ndarray, omega_b: float):
    """Join a system to its simulated qubit bath:

        H = H_S (x) 1 + omega_b * 1 (x) |up><up|,   V = T (x) sigma_x,

    with T the coupling already scaled by Omega_0.  H_S and T are plain
    arrays cut from a setup's validated H_S and exact coupling (or their
    principal submatrices); H and V are built with real symmetric bath
    factors and returned as plain arrays, so they and what a caller sums
    from them (typically H + V) are not tested again (see `linalg`).
    """
    eye = np.eye(len(h_s), dtype=complex)
    return np.kron(h_s, np.eye(2)) + omega_b * np.kron(eye, PROJ1), np.kron(t, SIGMA_X)


# ---------------------------------------------------------------------------
# Random states
# ---------------------------------------------------------------------------

# SplitMix64's counter increment (the golden ratio times 2^64) and the
# multipliers of its output mix (Steele-Lea-Flood 2014), as uint64 scalars
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


class Stream(_Frozen):
    """A counter-based random stream (Salmon et al. 2011): word k of the
    stream of seed s (k = 0, 1, ...) is the SplitMix64 output mix of
    s + (k + 1) * 0x9E3779B97F4A7C15 mod 2^64, which is the k-th output of
    Steele-Lea-Flood's SplitMix64 seeded with s.  A word is a pure
    function of (s, k), so draws do not depend on how they are grouped,
    and each call hashes all its counters at once.

    A uniform is a word's top 53 bits times 2^-53, in [0, 1); a complex
    normal (real and imaginary parts iid N(0, 1)) is the Box-Muller
    transform of two consecutive uniforms, sqrt(-2 ln(1 - u0)) *
    exp(2 pi i u1).  The seed is fixed; `_drawn`, the count of words
    given so far, is the one slot a draw advances.  A seed outside
    [0, 2^64) is a ValueError.

    The seed may also be a 1-D uint64 array: a stack of streams drawn in
    step, whose draws have one row per seed, row i bit for bit the draw of
    `Stream(seed[i])`, all hashed in one pass.
    """

    __slots__ = ("seed", "_drawn")

    def __post_init__(self):
        if isinstance(self.seed, np.ndarray):
            if self.seed.dtype != np.uint64 or self.seed.ndim != 1:
                raise ValueError(f"a stack of stream seeds must be a 1-D uint64 array, got "
                                 f"{self.seed.dtype} of shape {self.seed.shape}")
            seeds = self.seed.copy()
            seeds.setflags(write=False)
            _setattr(self, "seed", seeds)
        else:
            _setattr(self, "seed", operator.index(self.seed))
            if not 0 <= self.seed < 2 ** 64:
                raise ValueError(f"a stream seed must lie in [0, 2^64), got {self.seed}")
        _setattr(self, "_drawn", 0)

    def words(self, count: int) -> np.ndarray:
        """The next `count` words, as uint64 (one row of them per seed of a
        stack)."""
        z = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        _setattr(self, "_drawn", self._drawn + count)
        z *= _GOLDEN_GAMMA
        z = z + np.asarray(self.seed, dtype=np.uint64)[..., None]
        z ^= z >> 30
        z *= _MIX_A
        z ^= z >> 27
        z *= _MIX_B
        z ^= z >> 31
        return z

    def uniform(self, count: int) -> np.ndarray:
        """The next `count` uniforms in [0, 1)."""
        return (self.words(count) >> 11) * 2.0 ** -53

    def normal(self, count: int) -> np.ndarray:
        """The next `count` standard complex normals, two uniforms each."""
        u = self.uniform(2 * count)
        return np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2])) * np.exp(2j * math.pi * u[..., 1::2])


def random_states(n: int, seed, count: int):
    """`count` Haar-random states on n qubits, complex unit vectors, one
    after another: 2^n complex normals each of the stream `seed` (a
    `Stream`, or the seed of a new one), each state divided by its norm
    sqrt(re.re + im.im), the two dot products `np.linalg.norm` takes of a
    complex vector, here one `np.vecdot` per batch, so each state is bit
    for bit the one a per-row norm gives.  The states are
    yielded in batches, (k, 2^n) arrays of about 2^16 normals (at least one
    state); stream words are consecutive, so batching moves no state.  A
    normalized vector of iid complex Gaussians is exactly Haar
    distributed."""
    stream = seed if isinstance(seed, Stream) else Stream(seed)
    batch = max(1, 2 ** 16 >> n)
    for start in range(0, count, batch):
        z = stream.normal(min(batch, count - start) << n).reshape(-1, 2 ** n)
        yield z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]


def random_state(n: int, seed) -> np.ndarray:
    """The first row of the first batch of `random_states(n, seed, 1)`."""
    return next(random_states(n, seed, 1))[0]
