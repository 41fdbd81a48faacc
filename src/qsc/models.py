"""Model builders: search-oracle and clock Hamiltonians, baths, couplings,
and fiducial-state decompositions.

Qubit ordering convention: computational register qubits first (1..n),
clock qubits after (1..L), most-significant bit = qubit 1.  The unary
clock value l is encoded as |1^l 0^(L-l)> on the clock qubits.  The bath
subsystem, when present, is always the last tensor factor: a qubit bath
orders its basis (down, up); a qutrit bath orders its basis (C, R, L).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from . import config
from .errors import DimensionMismatch, DimensionTooLarge, ParseError, SelfCheckFailed
from .linalg import (
    PROJ0,
    PROJ1,
    SIGMA_X,
    Operator,
    SpectralDecomposition,
    StateVector,
)

__all__ = [
    "GroverModel",
    "CircuitSpec",
    "ClockModel",
    "ClockSpectrum",
    "BathSpec",
    "FiducialDecomposition",
    "BandStructure",
    "build_grover",
    "build_clock",
    "build_clock_parts",
    "clock_band_structure",
    "clock_spectrum",
    "band_energies",
    "overlap_coefficients",
    "shift_factors",
    "history_state",
    "build_bath_and_couplings",
    "build_verification_coupling",
    "decompose_fiducial",
    "random_state",
    "pad_with_identities",
    "parse_circuit",
    "load_circuit",
    "grover_fiducial",
    "grover_band_structure",
    "clock_coupling_direction",
]

# Qutrit bath basis states (order C, R, L).
KET_C = np.array([1, 0, 0], dtype=complex)
KET_R = np.array([0, 1, 0], dtype=complex)
KET_L = np.array([0, 0, 1], dtype=complex)
KET_B = (KET_L + KET_R) / math.sqrt(2)
KET_D = (KET_L - KET_R) / math.sqrt(2)

# Qubit bath basis (down, up).
KET_DOWN = np.array([1, 0], dtype=complex)
KET_UP = np.array([0, 1], dtype=complex)


def _check_dim(dim: int):
    cap = config.max_dimension()
    if dim > cap:
        raise DimensionTooLarge(f"dimension {dim} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# Search-oracle (two-band) model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroverModel:
    """Two-band oracle Hamiltonian on n qubits: marked strings have energy
    zero, all the rest sit at omega1."""

    n: int
    marked: frozenset[int]
    omega1: float = 1.0
    omega0_coupling: float = 0.05  # coupling energy scale Omega_0

    def __post_init__(self):
        object.__setattr__(self, "marked", frozenset(int(m) for m in self.marked))
        size = 2 ** self.n
        if not (1 <= len(self.marked) < size):
            raise ValueError("need 1 <= |marked| < 2**n")
        if any(m < 0 or m >= size for m in self.marked):
            raise ValueError("marked string out of range")
        if self.omega1 <= 0 or self.omega0_coupling <= 0:
            raise ValueError("omega1 and Omega_0 must be positive")
        _check_dim(size)

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


def grover_fiducial(model: GroverModel, kind: str = "uniform", seed: int | None = None) -> StateVector:
    """Fiducial state for the search model.

    "uniform" gives the equal superposition (overlap with the marked
    manifold exactly sqrt(N0/N)); "haar" draws a random state.
    """
    if kind == "uniform":
        return StateVector(np.full(model.dim, 1.0 / math.sqrt(model.dim), dtype=complex))
    if kind == "haar":
        return random_state(model.n, seed if seed is not None else 0)
    raise ValueError(f"unknown fiducial kind {kind!r}")


def grover_band_structure(fiducial: StateVector, eigenspaces) -> np.ndarray:
    """Overlaps xs = (|P0 F|, |P1 F|) of the fiducial with the two
    eigenspaces, the (marked, unmarked) index arrays of `build_grover`.

    These are the band overlaps of the search model in the gauge where
    each band vector P_k F / |P_k F| has a real non-negative overlap.
    """
    f = fiducial.amplitudes
    xs = np.array([np.linalg.norm(f[idx]) for idx in eigenspaces])
    if xs[0] == 0.0 or xs[1] == 0.0:
        raise ValueError("fiducial must overlap both bands")
    return xs


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


@dataclass(frozen=True)
class Gate:
    matrix: np.ndarray
    targets: tuple[int, ...]  # 1-based register qubit indices

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        k = len(self.targets)
        if m.shape != (2 ** k, 2 ** k) or k not in (1, 2):
            raise DimensionMismatch("gates act on 1 or 2 qubits")
        if np.max(np.abs(m.conj().T @ m - np.eye(2 ** k))) > config.HERMITICITY_ATOL * 10:
            raise ValueError("gate matrix is not unitary to tolerance")
        if k == 2 and self.targets[0] == self.targets[1]:
            raise ValueError("two-qubit gate targets must differ")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CircuitSpec:
    """An ordered list of 1- and 2-qubit unitaries on an n-qubit register."""

    n: int
    gates: tuple[Gate, ...]

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

    Qubit 1 is the most significant bit of the basis index.
    """
    dim = 2 ** n
    k = len(targets)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub = 0
        for t in targets:
            sub = (sub << 1) | bits[t - 1]
        for subout in range(2 ** k):
            amp = u[subout, sub]
            if amp == 0:
                continue
            nb = list(bits)
            for i, t in enumerate(targets):
                nb[t - 1] = (subout >> (k - 1 - i)) & 1
            row = 0
            for b in nb:
                row = (row << 1) | b
            full[row, col] += amp
    return full


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
        if spec.startswith("["):
            try:
                matrix = np.array(ast.literal_eval(spec), dtype=complex)
            except (ValueError, SyntaxError) as exc:
                raise ParseError(f"line {lineno}: bad matrix literal") from exc
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

@dataclass(frozen=True)
class ClockModel:
    """History-tracking Hamiltonian for a circuit, with an input penalty
    that resolves the low-energy band and a penalty that projects out
    non-unary clock configurations."""

    circuit: CircuitSpec
    omega: float = 1.0
    h: float = config.DEFAULT_PENALTY_FACTOR

    def __post_init__(self):
        if not (0 < self.h <= 1):
            raise ValueError("penalty factor must satisfy 0 < h <= 1")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.circuit.length < 1:
            raise ValueError("clock model needs at least one gate")
        _check_dim(2 ** (self.n + self.length))
        # the input penalty must stay below the hopping level spacing for
        # first-order perturbation theory to resolve the bands
        spacing = self.omega * float(np.min(np.diff(band_energies(self.length, 1.0))))
        if self.delta1 >= spacing:
            raise ValueError(
                f"input penalty {self.delta1:.3e} >= minimum hopping level "
                f"spacing {spacing:.3e}; lower h"
            )

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


def _site_projector(total: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    mats = [ops.get(q, np.eye(2, dtype=complex)) for q in range(1, total + 1)]
    return reduce(np.kron, mats)


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


def clock_value_vector(n: int, length: int, l: int, register: np.ndarray | None = None) -> np.ndarray:
    """|register> tensor |1^l 0^(L-l)> as a raw vector (register defaults
    to the all-zeros product state)."""
    reg = register if register is not None else _unit_vector(2 ** n, 0)
    clock = _unit_vector(2 ** length, clock_site_index(length, l))
    return np.kron(reg, clock)


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
    n, length = model.n, model.length
    return [clock_value_vector(n, length, l, state)
            for l, state in enumerate(register_history(model.circuit))]


def build_clock(model: ClockModel) -> Operator:
    """Assemble the full clock Hamiltonian on n + L qubits:
    omega * hopping + delta1 * input penalty + 2 omega * clock penalty."""
    h_prop, h_input, h_clock = build_clock_parts(model)
    h_s = model.omega * h_prop + model.delta1 * h_input + model.clock_penalty * h_clock
    return Operator(h_s, hermitian=True)


def build_clock_parts(model: ClockModel):
    """The three unscaled pieces (hopping, input penalty, clock penalty) as
    plain arrays; `build_clock` validates their sum, the matrix it hands on.

    Construction contract: restricted to the unary clock configurations the
    hopping part must equal the tridiagonal free-particle matrix exactly;
    this is verified here (boundary terms are implemented with the missing
    boundary control dropped, and only this equality makes them right).
    """
    n, length = model.n, model.length
    total = n + length
    dim = 2 ** total
    _check_dim(dim)
    unitaries = model.circuit.unitaries()

    h_input = np.zeros((dim, dim), dtype=complex)
    first_clock = n + 1
    for i in range(1, n + 1):
        h_input += _site_projector(total, {i: PROJ1, first_clock: PROJ0})

    h_clock = np.zeros((dim, dim), dtype=complex)
    for l in range(1, length):
        h_clock += _site_projector(total, {n + l: PROJ0, n + l + 1: PROJ1})

    hop10 = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0| on one clock qubit
    h_prop = np.zeros((dim, dim), dtype=complex)
    for l in range(1, length + 1):
        # step l flips clock qubit l, controlled on its left neighbour
        # reading 1 and its right neighbour reading 0 where they exist
        ctrl = {}
        if l > 1:
            ctrl[n + l - 1] = PROJ1
        if l < length:
            ctrl[n + l + 1] = PROJ0
        diag = _site_projector(total, ctrl)
        hop = _site_projector(total, {**ctrl, n + l: hop10})
        u_l = np.kron(unitaries[l - 1], np.eye(2 ** length, dtype=complex))
        moved = u_l @ hop
        h_prop += 0.5 * (diag - moved - moved.conj().T)

    _verify_legal_sector(h_prop, model)
    return h_prop, h_input, h_clock


def _verify_legal_sector(h_prop: np.ndarray, model: ClockModel) -> None:
    """Check the hopping term against the exact tridiagonal target on the
    unary-clock sector with the all-zeros register state."""
    length = model.length
    basis = np.column_stack(_history_vectors(model))
    block = basis.conj().T @ h_prop @ basis
    lp1 = length + 1
    target = np.zeros((lp1, lp1), dtype=complex)
    for l in range(lp1):
        target[l, l] = 1.0 if l in (0, length) else 2.0
        if l < length:
            target[l, l + 1] = target[l + 1, l] = -1.0
    target *= 0.5
    residual = float(np.max(np.abs(block - target)))
    if residual > config.RESIDUAL_RTOL * (1 + length):
        raise SelfCheckFailed(
            f"legal-sector hopping block deviates from the tridiagonal target "
            f"by {residual:.3e}"
        )


def history_state(model: ClockModel) -> StateVector:
    """Uniform superposition over the circuit history (the ground state of
    the clock Hamiltonian)."""
    return StateVector(sum(_history_vectors(model)) / math.sqrt(model.length + 1))


@dataclass(frozen=True)
class BandStructure:
    """The resolved low band: energies, eigenvectors (columns), and the
    spectral distance delta separating each band energy from the rest of
    the spectrum; `spectrum` holds the full ascending spectrum of H_S when
    delta was measured on it."""

    omegas: np.ndarray
    vectors: np.ndarray
    delta: float
    spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("band structure requires a positive gap")

    @property
    def size(self) -> int:
        return len(self.omegas)

    def vector(self, j: int) -> np.ndarray:
        return self.vectors[:, j]


def clock_band_structure(model: ClockModel, h_s: Operator | None = None) -> BandStructure:
    """Low-band eigenvectors from the closed-form construction, plus the
    brute-force spectral gap of the assembled Hamiltonian.

    The band vectors are built analytically (history-propagated cosine
    profiles); the gap comes from the full spectrum with the band's own
    eigenvalues excluded by eigenvector overlap.
    """
    if h_s is None:
        h_s = build_clock(model)
    n, length = model.n, model.length
    history = _history_vectors(model)
    lp1 = length + 1
    vectors = np.zeros((2 ** (n + length), lp1), dtype=complex)
    for k in range(lp1):
        norm = math.sqrt((2.0 - (k == 0)) / lp1)
        for l in range(lp1):
            c = norm * math.cos((l + 0.5) * k * math.pi / lp1)
            vectors[:, k] += c * history[l]
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
    return BandStructure(omegas=omegas, vectors=vectors, delta=delta, spectrum=evals)


@dataclass(frozen=True)
class ClockSpectrum:
    """Closed-form band data for a clock model: energies, fiducial
    overlaps, first-order penalty shift factors, and the measured gap."""

    omegas: np.ndarray
    xs: np.ndarray
    hs: np.ndarray
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("gap must be positive")
        if abs(float(np.sum(self.xs ** 2)) - 1.0) > config.NORM_ATOL:
            raise ValueError("overlap coefficients must be normalized")


def clock_spectrum(model: ClockModel, h_s: Operator | None = None) -> ClockSpectrum:
    band = clock_band_structure(model, h_s)
    length = model.length
    return ClockSpectrum(
        omegas=band.omegas,
        xs=overlap_coefficients(length),
        hs=shift_factors(length),
        delta=band.delta,
    )


def clock_coupling_direction(model: ClockModel) -> Operator:
    """Unit-norm coupling operator: the |0><0| projector on the first
    clock qubit.  Within the low band it acts as the rank-one projector
    onto the all-zeros product state."""
    n, length = model.n, model.length
    total = n + length
    return Operator(_site_projector(total, {n + 1: PROJ0}), hermitian=True)


# ---------------------------------------------------------------------------
# Baths and couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BathSpec:
    """One auxiliary system: a qubit with splitting omega_b, or a qutrit
    whose two displaced levels are pinned at omega_b."""

    kind: str
    omega_b: float

    def __post_init__(self):
        if self.kind not in ("qubit", "qutrit"):
            raise ValueError("bath kind must be 'qubit' or 'qutrit'")


def build_bath_and_couplings(h_s: Operator, bath: BathSpec, t_s: Operator,
                             omega0: float = 1.0):
    """Join the system to its simulated bath.

    Qubit bath:  H = H_S (x) 1 + omega_b * 1 (x) |up><up|,  V = T (x) sigma_x.
    Qutrit bath: H = H_S (x) (|C><C| + |R><R| - |L><L|)
                     + omega_b * 1 (x) (|R><R| + |L><L|),
                 V = T (x) (|C><B| + |B><C|) with |B> = (|L>+|R>)/sqrt(2),

    with T = omega0 * T_S.  Returns (H, V) as plain arrays, built from the
    validated H_S and T_S; a caller wraps the matrix it diagonalizes or
    propagates (typically H + V) in one validated Operator.
    """
    if not t_s.hermitian:
        raise ValueError("coupling operator must be Hermitian")
    if t_s.dim != h_s.dim:
        raise DimensionMismatch("system and coupling dimensions differ")
    dim = h_s.dim
    eye = np.eye(dim, dtype=complex)
    t = omega0 * t_s.matrix
    if bath.kind == "qubit":
        h_full = np.kron(h_s.matrix, np.eye(2)) + bath.omega_b * np.kron(eye, PROJ1)
        return h_full, np.kron(t, SIGMA_X)
    proj_c = np.outer(KET_C, KET_C)
    proj_r = np.outer(KET_R, KET_R)
    proj_l = np.outer(KET_L, KET_L)
    h_full = np.kron(h_s.matrix, proj_c + proj_r - proj_l) + bath.omega_b * np.kron(
        eye, proj_r + proj_l
    )
    swap_cb = np.outer(KET_C, KET_B) + np.outer(KET_B, KET_C)
    return h_full, np.kron(t, swap_cb)


def build_verification_coupling(dim_s: int, omega0: float) -> np.ndarray:
    """The qutrit bath's verification coupling Y = Omega_0 * 1 (x) (|L><R| + |R><L|),
    as a plain array (Hermitian by construction)."""
    swap_lr = np.outer(KET_L, KET_R) + np.outer(KET_R, KET_L)
    return omega0 * np.kron(np.eye(dim_s, dtype=complex), swap_lr)


# ---------------------------------------------------------------------------
# Fiducial decompositions and random states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiducialDecomposition:
    """Overlaps of a fiducial state with an orthonormal band basis, in the
    phase gauge that makes every coefficient real and non-negative, plus
    the weight outside the modeled band."""

    xs: np.ndarray
    f_perp: float

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)
        if np.any(xs < -config.NORM_ATOL):
            raise ValueError("gauge-fixed coefficients must be non-negative")
        total = float(np.sum(xs ** 2) + self.f_perp ** 2)
        if abs(total - 1.0) > 100 * config.NORM_ATOL:
            raise ValueError(f"decomposition weights sum to {total}, not 1")
        object.__setattr__(self, "xs", xs)


def decompose_fiducial(f: StateVector, band_vectors) -> FiducialDecomposition:
    """Magnitudes of the band overlaps <j|F> and the out-of-band residual.

    Accepts a BandStructure, SpectralDecomposition, or a raw column matrix
    of orthonormal vectors.  The phase of each |j> is the gauge freedom
    that makes x_j real and non-negative, so only magnitudes are kept.
    """
    if isinstance(band_vectors, BandStructure):
        basis = band_vectors.vectors
    elif isinstance(band_vectors, SpectralDecomposition):
        basis = band_vectors.eigenvectors
    else:
        basis = np.asarray(band_vectors, dtype=complex)
    amps = basis.conj().T @ f.amplitudes
    xs = np.abs(amps)
    leftover = max(0.0, 1.0 - float(np.sum(xs ** 2)))
    return FiducialDecomposition(xs=xs, f_perp=math.sqrt(leftover))


def random_state(n: int, seed) -> StateVector:
    """Haar-random state on n qubits, reproducible from the seed.

    A normalized vector of iid complex Gaussians is exactly Haar
    distributed; this replaces approximate-design circuit sampling.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dim = 2 ** n
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(z / np.linalg.norm(z))
