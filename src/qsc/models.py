"""Model builders: search-oracle and clock Hamiltonians, their band
structures, baths, couplings, and random states.

Qubit ordering convention: computational register qubits first (1..n),
clock qubits after (1..L), most-significant bit = qubit 1.  The unary
clock value l is encoded as |1^l 0^(L-l)> on the clock qubits.  The bath
subsystem, when present, is always the last tensor factor: a qubit bath
orders its basis (down, up); a qutrit bath orders its basis (C, R, L).
"""

from __future__ import annotations

import ast
import cmath
import math
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from . import config
from .errors import DimensionMismatch, DimensionTooLarge, ParseError, SelfCheckFailed
from .linalg import PROJ0, PROJ1, SIGMA_X, Operator, StateVector, _Frozen, _setattr

__all__ = [
    "GroverModel",
    "CircuitSpec",
    "ClockModel",
    "BathSpec",
    "BandStructure",
    "build_grover",
    "build_clock",
    "build_clock_parts",
    "clock_band_structure",
    "band_energies",
    "overlap_coefficients",
    "band_profile",
    "shift_factors",
    "build_bath_and_couplings",
    "qubit_bath_terms",
    "build_verification_coupling",
    "random_state",
    "pad_with_identities",
    "parse_circuit",
    "load_circuit",
    "grover_fiducial",
    "grover_band_structure",
    "clock_coupling_direction",
]

# Qutrit bath basis states (order C, R, L), and the bright state B.
KET_C = np.array([1, 0, 0], dtype=complex)
KET_R = np.array([0, 1, 0], dtype=complex)
KET_L = np.array([0, 0, 1], dtype=complex)
KET_B = (KET_L + KET_R) / math.sqrt(2)

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

class GroverModel(_Frozen):
    """Two-band oracle Hamiltonian on n qubits: marked strings have energy
    zero, all the rest sit at omega1; `omega0_coupling` is the coupling
    energy scale Omega_0."""

    __slots__ = ("n", "marked", "omega1", "omega0_coupling")

    def __init__(self, n: int, marked: frozenset[int], omega1: float = 1.0,
                 omega0_coupling: float = 0.05):
        marked = frozenset(int(m) for m in marked)
        size = 2 ** n
        if not (1 <= len(marked) < size):
            raise ValueError("need 1 <= |marked| < 2**n")
        if any(m < 0 or m >= size for m in marked):
            raise ValueError("marked string out of range")
        if omega1 <= 0 or omega0_coupling <= 0:
            raise ValueError("omega1 and Omega_0 must be positive")
        _check_dim(size)
        _setattr(self, "n", n)
        _setattr(self, "marked", marked)
        _setattr(self, "omega1", omega1)
        _setattr(self, "omega0_coupling", omega0_coupling)

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


class Gate(_Frozen):
    """A 1- or 2-qubit unitary on the 1-based register qubits `targets`."""

    __slots__ = ("matrix", "targets")

    def __init__(self, matrix: np.ndarray, targets: tuple[int, ...]):
        m = np.array(matrix, dtype=complex)
        k = len(targets)
        if m.shape != (2 ** k, 2 ** k) or k not in (1, 2):
            raise DimensionMismatch("gates act on 1 or 2 qubits")
        # written so that a NaN deviation fails too
        if not np.max(np.abs(m.conj().T @ m - np.eye(2 ** k))) <= config.HERMITICITY_ATOL * 10:
            raise ValueError("gate matrix is not unitary to tolerance")
        if k == 2 and targets[0] == targets[1]:
            raise ValueError("two-qubit gate targets must differ")
        _setattr(self, "matrix", m)
        _setattr(self, "targets", targets)


class CircuitSpec(_Frozen):
    """An ordered list of 1- and 2-qubit unitaries on an n-qubit register."""

    __slots__ = ("n", "gates")

    def __init__(self, n: int, gates: tuple[Gate, ...]):
        for g in gates:
            if any(t < 1 or t > n for t in g.targets):
                raise ValueError(f"gate target out of range 1..{n}")
        _setattr(self, "n", n)
        _setattr(self, "gates", gates)

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
    except (ValueError, SyntaxError, OverflowError) as exc:
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

    def __init__(self, circuit: CircuitSpec, omega: float = 1.0,
                 h: float = config.DEFAULT_PENALTY_FACTOR):
        _setattr(self, "circuit", circuit)
        _setattr(self, "omega", omega)
        _setattr(self, "h", h)
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
    return Operator(h_s)


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
    register = np.eye(2 ** n, dtype=complex)
    h_prop = np.zeros((dim, dim), dtype=complex)
    for l in range(1, length + 1):
        # step l flips clock qubit l, controlled on its left neighbour
        # reading 1 and its right neighbour reading 0 where they exist.
        # Controls and flip act on the clock alone, so the moved term
        # (U_l (x) 1)(1 (x) hop) is U_l (x) hop: each entry one product
        ctrl = {}
        if l > 1:
            ctrl[l - 1] = PROJ1
        if l < length:
            ctrl[l + 1] = PROJ0
        diag = np.kron(register, _site_projector(length, ctrl))
        moved = np.kron(unitaries[l - 1], _site_projector(length, {**ctrl, l: hop10}))
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


class BandStructure(_Frozen):
    """The resolved low band: energies, eigenvectors (columns), and the
    spectral distance delta separating each band energy from the rest of
    the spectrum; `spectrum` holds the full ascending spectrum of H_S when
    delta was measured on it."""

    __slots__ = ("omegas", "vectors", "delta", "spectrum")

    def __init__(self, omegas: np.ndarray, vectors: np.ndarray, delta: float,
                 spectrum: np.ndarray | None = None):
        if delta <= 0:
            raise ValueError("band structure requires a positive gap")
        _setattr(self, "omegas", omegas)
        _setattr(self, "vectors", vectors)
        _setattr(self, "delta", delta)
        _setattr(self, "spectrum", spectrum)

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
    return BandStructure(omegas=omegas, vectors=vectors, delta=delta, spectrum=evals)


def clock_coupling_direction(model: ClockModel) -> Operator:
    """Unit-norm coupling operator: the |0><0| projector on the first
    clock qubit.  Within the low band it acts as the rank-one projector
    onto the all-zeros product state."""
    n, length = model.n, model.length
    total = n + length
    return Operator(_site_projector(total, {n + 1: PROJ0}))


# ---------------------------------------------------------------------------
# Baths and couplings
# ---------------------------------------------------------------------------

class BathSpec(_Frozen):
    """One auxiliary system: a qubit with splitting omega_b, or a qutrit
    whose two displaced levels are pinned at omega_b."""

    __slots__ = ("kind", "omega_b")

    def __init__(self, kind: str, omega_b: float):
        if kind not in ("qubit", "qutrit"):
            raise ValueError("bath kind must be 'qubit' or 'qutrit'")
        _setattr(self, "kind", kind)
        _setattr(self, "omega_b", omega_b)


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
    if t_s.dim != h_s.dim:
        raise DimensionMismatch("system and coupling dimensions differ")
    t = omega0 * t_s.matrix
    if bath.kind == "qubit":
        return qubit_bath_terms(h_s.matrix, t, bath.omega_b)
    eye = np.eye(h_s.dim, dtype=complex)
    proj_c = np.outer(KET_C, KET_C)
    proj_r = np.outer(KET_R, KET_R)
    proj_l = np.outer(KET_L, KET_L)
    h_full = np.kron(h_s.matrix, proj_c + proj_r - proj_l) + bath.omega_b * np.kron(
        eye, proj_r + proj_l
    )
    swap_cb = np.outer(KET_C, KET_B) + np.outer(KET_B, KET_C)
    return h_full, np.kron(t, swap_cb)


def qubit_bath_terms(h_s: np.ndarray, t: np.ndarray, omega_b: float):
    """The qubit bath's H = H_S (x) 1 + omega_b * 1 (x) |up><up| and V = T (x)
    sigma_x, as plain arrays from the plain arrays H_S and T; the checks on
    where H_S and T come from are the caller's (`build_bath_and_couplings`
    takes validated operators)."""
    eye = np.eye(len(h_s), dtype=complex)
    return np.kron(h_s, np.eye(2)) + omega_b * np.kron(eye, PROJ1), np.kron(t, SIGMA_X)


def build_verification_coupling(dim_s: int, omega0: float) -> np.ndarray:
    """The qutrit bath's verification coupling Y = Omega_0 * 1 (x) (|L><R| + |R><L|),
    as a plain array (Hermitian by construction)."""
    swap_lr = np.outer(KET_L, KET_R) + np.outer(KET_R, KET_L)
    return omega0 * np.kron(np.eye(dim_s, dtype=complex), swap_lr)


# ---------------------------------------------------------------------------
# Random states
# ---------------------------------------------------------------------------

def random_state(n: int, seed) -> StateVector:
    """Haar-random state on n qubits, reproducible from the seed.

    A normalized vector of iid complex Gaussians is exactly Haar
    distributed; this replaces approximate-design circuit sampling.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dim = 2 ** n
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(z / np.linalg.norm(z))
