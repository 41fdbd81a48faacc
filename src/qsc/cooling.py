"""Measurement-driven cooling pipelines.

Three protocols share the machinery here:

  * the deterministic ladder: address band j = L..1 with a corrected bath
    detuning, evolve for a half Rabi period, measure the bath, repeat;
  * the reduced ladder, which skips bands with negligible fiducial overlap;
  * the probabilistic qutrit scheme, which trades spectral knowledge for
    random evolution times plus a verification oscillation.

Density-matrix propagation of the exact conditional-evolution map is the
primary mode: its output is deterministic.  Trajectory mode samples the
measurement record instead and must agree within Monte-Carlo error.

One engine runs every setup, on the system space the setup declares.  The
ladders run on exact band blocks: the search model's setup is its
two-band block (`grover_setup`), so a search ladder propagates 4 x 4
composite matrices whatever n is, and the clock ladder runs on its
(L+1)-band block (`clock_block`), cut from the dense 2^(n+L) setup
(`clock_setup`) that keeps Delta, the band vectors and the step norm;
its largest matrix is H_S, and no clock run forms a matrix of the
composite size.  The dense setup stays a setup of its own: the
probabilistic scheme and the bounds lemmas run on it, and a ladder run on
it is the oracle of the block's.

A step Hamiltonian H_j + V is built as the one validated operator of the
step (its terms are plain arrays).  An exact-tau schedule reads the
pulse time off its eigen-splitting and keeps only that time; a run
builds and diagonalizes each step it propagates and takes the step's
evolution from that decomposition.  The ladder's step norm is priced
once, at its largest bath energy, on the connected blocks of H* + V
(`_step_norm`).  A run propagates the ladder once, and a density-mode
report carries the final state for readouts.  Trajectory shots take all
their uniforms (one per step, one for the final readout) up front, each
shot's from its own spawned stream, drawn for every shot at once
(`trial_uniforms`).  A shot's state is fixed by its measurement record,
so shots with the same record share one propagated state: a ladder of L'
steps propagates L' + 1 states (the record still measuring down, and one
up record per step, which measures up again with probability 1 up to
rounding) however many shots it samples.  The qubit bath is the last
tensor factor, so bath projections select the even (down) and odd (up)
composite indices.

The probabilistic scheme runs on the same setup as the ladder and
addresses its band 1 with a qutrit bath, also the last tensor factor:
its projections select the composite indices of levels C, R and L
(0, 1, 2 mod 3).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import config
from .errors import CouplingTooLarge, UnresolvedSplitting
from .levelshift import DetuningSolution, solve_detuning
from .linalg import (
    DensityMatrix,
    Operator,
    StateVector,
    _Frozen,
    _setattr,
    connected_blocks,
    evolve,
    hybridized_pair,
    operator_norm,
)
from .models import (
    KET_C,
    KET_DOWN,
    KET_UP,
    BandStructure,
    BathSpec,
    ClockModel,
    GroverModel,
    build_bath_and_couplings,
    build_clock,
    build_verification_coupling,
    build_grover,
    clock_band_structure,
    clock_coupling_direction,
    grover_band_structure,
    grover_fiducial,
    overlap_coefficients,
    qubit_bath_terms,
)

__all__ = [
    "CoolingSetup",
    "ScheduleStep",
    "CoolingSchedule",
    "RunReport",
    "ProbRunReport",
    "grover_setup",
    "clock_setup",
    "clock_block",
    "build_schedule",
    "cooling_step",
    "run_deterministic",
    "run_reduced",
    "run_probabilistic",
    "extension_gap",
    "extension_rabi",
    "trial_uniforms",
]


# ---------------------------------------------------------------------------
# Protocol setups
# ---------------------------------------------------------------------------

class CoolingSetup(_Frozen):
    """Everything the deterministic ladder needs about one system.

    `coupling` is the unit-norm coupling direction; the schedule scales it
    by Omega_0.  Within the band, coupling acts as |F><F| with overlaps xs.
    `ground_basis` holds orthonormal columns spanning the (possibly
    degenerate) ground space of H_S.  `dense` is the setup a band block was
    cut from (`clock_block`); a run prices its step norm there.
    """

    __slots__ = ("h_s", "coupling", "band", "xs", "fiducial", "ground_basis", "label", "dense")

    def __init__(self, h_s: Operator, coupling: Operator, band: BandStructure, xs: np.ndarray,
                 fiducial: StateVector, ground_basis: np.ndarray, label: str = "",
                 dense: CoolingSetup | None = None):
        _setattr(self, "h_s", h_s)
        _setattr(self, "coupling", coupling)
        _setattr(self, "band", band)
        _setattr(self, "xs", xs)
        _setattr(self, "fiducial", fiducial)
        _setattr(self, "ground_basis", ground_basis)
        _setattr(self, "label", label)
        _setattr(self, "dense", dense)

    @property
    def dim_s(self) -> int:
        return self.h_s.dim

    @property
    def n_bands(self) -> int:
        return self.band.size

    def transition(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The composite states |j, down> and |0, up> that step j swaps."""
        return (np.kron(self.band.vector(j), KET_DOWN),
                np.kron(self.band.vector(0), KET_UP))


def _band_block(omegas: np.ndarray, xs: np.ndarray, delta: float, label: str,
                dense: CoolingSetup | None = None) -> CoolingSetup:
    """The setup of an exact band block: H_S = diag(omegas), coupling
    x x^T, fiducial x, identity band vectors and ground space e0."""
    size = len(omegas)
    return CoolingSetup(
        h_s=Operator(np.diag(omegas).astype(complex)),
        coupling=Operator(np.outer(xs, xs).astype(complex)),
        band=BandStructure(omegas=omegas, vectors=np.eye(size, dtype=complex), delta=delta),
        xs=xs,
        fiducial=StateVector(xs.astype(complex)),
        ground_basis=np.eye(size, 1, dtype=complex),
        label=label,
        dense=dense,
    )


def grover_setup(model: GroverModel, fiducial: StateVector | None = None,
                 kind: str = "uniform", seed: int | None = None) -> CoolingSetup:
    """Search-oracle setup on its exact two-band block.

    The system space is span{P0 F, P1 F}, the normalized projections of
    the fiducial F onto the marked (energy 0) and unmarked (energy
    omega1) eigenspaces.  In that basis H_S = diag(0, omega1), the
    coupling |F><F| is x x^T with x = (x0, x1) = (|P0 F|, |P1 F|), the
    fiducial is x, the band vectors are the identity columns, the ground
    space is e0 and Delta = omega1.

    The reduction is exact.  H_S = omega1 P1 maps P0 F to 0 and P1 F to
    omega1 P1 F, and V = Omega_0 |F><F| (x) sigma_x is rank one along F,
    so span{P0 F, P1 F} (x) bath is invariant under every H_j + V; it
    holds the fiducial, and the ground weight the ladder reads lies in
    P0 F.  On the orthogonal complement, which H_S also keeps, V vanishes
    (the complement is orthogonal to F), so H_j + V there has only the
    uncoupled energies 0, omega_b, omega1 and omega1 + omega_b.  Each is
    a diagonal entry of the block, and a Hermitian matrix's norm bounds
    the modulus of each of its diagonal entries, so the step norm
    (`h_norm`) is the block's.  Only the 2^n fiducial is formed, to read
    x off.
    """
    if fiducial is None:
        fiducial = grover_fiducial(model, kind=kind, seed=seed)
    xs = grover_band_structure(fiducial, build_grover(model))
    return _band_block(np.array([0.0, model.omega1]), xs, model.omega1,
                       f"grover(n={model.n})")


def clock_setup(model: ClockModel) -> CoolingSetup:
    """Clock setup on the dense 2^(n+L) space: single-qubit coupling on the
    first clock qubit, fiducial all-zeros product state."""
    h_s = build_clock(model)
    band = clock_band_structure(model, h_s)
    xs = overlap_coefficients(model.length)
    return CoolingSetup(
        h_s=h_s,
        coupling=clock_coupling_direction(model),
        band=band,
        xs=xs,
        fiducial=StateVector.basis(h_s.dim, 0),
        ground_basis=band.vectors[:, :1],  # the history state
        label=f"clock(n={model.n},L={model.length})",
    )


def clock_block(model: ClockModel) -> CoolingSetup:
    """The clock ladder's exact (L+1)-band block, cut from the dense setup
    `clock_setup(model)`, which it keeps as `dense`.

    In the band basis b_0..b_L (the history cosine profiles) H_S =
    diag(omega_0..omega_L), the coupling is x x^T with x =
    `overlap_coefficients(L)`, the fiducial is x, the band vectors are the
    identity columns and the ground space is e0; Delta and the label are
    the dense setup's.

    The reduction is exact.  Each b_k is an eigenvector of H_S (checked by
    `clock_band_structure`).  The coupling C = |0><0| on the first clock
    qubit keeps, of the history states, only the clock value 0, which is
    the fiducial F = |0^n>|0^L>; so C b_k = <F|b_k> F = x_k F, and F =
    sum_k x_k b_k lies in the band.  span{b_k} (x) bath is therefore
    invariant under H_S (x) 1, omega_b 1 (x) |up><up| and V = Omega_0 C (x)
    sigma_x, hence under every H_j + V; it holds the initial state |F,
    down>, so the ladder never leaves it (Feynman 1985; Kitaev-Shen-Vyalyi
    2002).

    The step norm is not the block's: the dense H_j + V has eigenvalues
    outside the band (7.9 against the block's 3.8 on an L = 6 clock), so a
    run prices it on `dense`, exactly, on the connected blocks of the
    dense H* + V, none of them of the composite size (`_step_norm`).
    """
    dense = clock_setup(model)
    return _band_block(dense.band.omegas, dense.xs, dense.band.delta, dense.label, dense)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

class ScheduleStep(_Frozen):
    """One ladder step: band j, the bath energy omega_b, the pulse time tau
    and the rate `rabi` actually used to set it (tau = pi / (2 rabi)), with
    the detuning solution it came from."""

    __slots__ = ("j", "omega_b", "tau", "rabi", "solution")

    def __init__(self, j: int, omega_b: float, tau: float, rabi: float,
                 solution: DetuningSolution | None = None):
        _setattr(self, "j", j)
        _setattr(self, "omega_b", omega_b)
        _setattr(self, "tau", tau)
        _setattr(self, "rabi", rabi)
        _setattr(self, "solution", solution)


class CoolingSchedule(_Frozen):
    """Ordered cooling steps, j = L down to 1."""

    __slots__ = ("steps", "omega0", "r", "eps_target", "tau_mode")

    def __init__(self, steps: tuple[ScheduleStep, ...], omega0: float, r: float,
                 eps_target: float | None, tau_mode: str):
        _setattr(self, "steps", steps)
        _setattr(self, "omega0", omega0)
        _setattr(self, "r", r)
        _setattr(self, "eps_target", eps_target)
        _setattr(self, "tau_mode", tau_mode)

    @property
    def total_time(self) -> float:
        return float(sum(s.tau for s in self.steps))


def _exact_splitting(setup: CoolingSetup, omega0: float, sol: DetuningSolution):
    """True splitting of the two hybridized eigenstates of H_j + V nearest
    the addressed transition, and the eigendecomposition (w, v) of H_j + V:
    (splitting, w, v)."""
    h = _step_hamiltonian(setup, omega0, sol.omega_b)
    return hybridized_pair(h.matrix, *setup.transition(sol.j))


def _step_hamiltonian(setup: CoolingSetup, omega0: float, omega_b: float) -> Operator:
    """H_j + V: the system with the bath detuned to omega_b, plus the
    coupling V = Omega_0 * coupling (x) sigma_x.

    The terms come as plain arrays from the validated H_S and coupling;
    their sum, the matrix that is diagonalized and propagated, is the one
    validated operator of the step."""
    h, v = build_bath_and_couplings(setup.h_s, BathSpec("qubit", omega_b),
                                    setup.coupling, omega0)
    # summed in place and V dropped, so the check's SVD runs with two
    # composite-size arrays fewer alive
    h += v
    del v
    return Operator(h)


def build_schedule(
    setup: CoolingSetup,
    omega0: float | None = None,
    eps: float | None = None,
    tau_mode: str = "exact",
) -> CoolingSchedule:
    """Solve per-band detunings and pulse times.

    Exactly one of `omega0` / `eps` must be given, and it must be > 0;
    with `eps`, the coupling is set through r = c * eps * L^(-5/2), c =
    `config.DEFAULT_SCHEDULE_CONSTANT`.  tau_mode "exact" reads
    the pulse time off the true eigen-splitting of H_j + V; "analytic" uses
    tau_j = pi / (2 Omega_0 x_0 x_j), which is exactly proportional to
    1/Omega_0 (so halving the coupling exactly doubles the time).

    An exact splitting at or below `config.SPLITTING_FLOOR_EPS` * eps *
    ||H_j + V|| (eps the machine epsilon, the norm read off the step's
    eigenvalues) is roundoff, not a Rabi splitting: UnresolvedSplitting.
    """
    if (omega0 is None) == (eps is None):
        raise ValueError("give exactly one of omega0 or eps")
    name, value = ("eps", eps) if omega0 is None else ("omega0", omega0)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    n_steps = setup.n_bands - 1
    delta = setup.band.delta
    if omega0 is None:
        r = config.DEFAULT_SCHEDULE_CONSTANT * eps * n_steps ** (-2.5)
        omega0 = r * delta
    else:
        r = omega0 / delta
    if r >= config.MAX_COUPLING_RATIO:
        raise CouplingTooLarge(f"r = {r:.4f} >= 1/8; reduce the coupling or target")
    if tau_mode not in ("exact", "analytic"):
        raise ValueError("tau_mode must be 'exact' or 'analytic'")
    xs, omegas = setup.xs, setup.band.omegas
    steps = []
    for j in range(n_steps, 0, -1):
        sol = solve_detuning(xs, omegas, j, omega0, delta)
        if tau_mode == "exact":
            splitting, w, _ = _exact_splitting(setup, omega0, sol)
            # w ascending: the norm is the larger end
            roundoff = np.finfo(float).eps * max(-w[0], w[-1])
            if not splitting > config.SPLITTING_FLOOR_EPS * roundoff:
                raise UnresolvedSplitting(
                    f"step j={j}: exact splitting {splitting:.3e} <= "
                    f"{config.SPLITTING_FLOOR_EPS} * eps*||H_j + V||, with eps*||H_j + V|| = "
                    f"{roundoff:.3e}: no pulse time can be read off it; raise the coupling"
                )
            rabi = splitting / 2.0
        else:
            rabi = omega0 * xs[0] * xs[j]
        steps.append(
            ScheduleStep(j=j, omega_b=sol.omega_b, tau=math.pi / (2 * rabi),
                         rabi=rabi, solution=sol)
        )
    return CoolingSchedule(
        steps=tuple(steps), omega0=omega0, r=r, eps_target=eps, tau_mode=tau_mode
    )


# ---------------------------------------------------------------------------
# The conditional-evolution map and deterministic runs
# ---------------------------------------------------------------------------

def cooling_step(rho: DensityMatrix, step: ScheduleStep,
                 eig: tuple[np.ndarray, np.ndarray]) -> DensityMatrix:
    """One application of the measure-then-conditionally-evolve map:

        E_j(rho) = U_j D rho D U_j^+  +  P_up rho P_up

    with D = 1 (x) |down><down| and U_j the evolution under the step
    Hamiltonian H_j + V, given by its eigendecomposition `eig` =
    np.linalg.eigh(H_j + V), for the step's pulse time.  Trace-preserving
    and completely positive by construction.
    """
    u = evolve(*eig, step.tau)
    down, up = _bath_masks(rho.dim)
    m = rho.entries
    out = u @ (m * np.outer(down, down)) @ u.conj().T + m * np.outer(up, up)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def _bath_masks(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 masks of the composite indices with the qubit bath down (even)
    and up (odd); the bath is the last tensor factor."""
    up = np.arange(dim) % 2
    return 1 - up, up


def _step_spectra(setup: CoolingSetup, schedule: CoolingSchedule):
    """Each schedule step with the eigendecomposition (w, v) of its
    Hamiltonian H_j + V, built and diagonalized here."""
    for step in schedule.steps:
        yield step, np.linalg.eigh(
            _step_hamiltonian(setup, schedule.omega0, step.omega_b).matrix)


def _step_norm(setup: CoolingSetup, schedule: CoolingSchedule) -> float:
    """The largest step norm ||H_j + V|| of the schedule's steps, 0 for no
    step: the norm of H* + V, read off its connected blocks.

    With omega_b* the largest bath energy of the steps, H* = H_S (x) 1 +
    omega_b* 1 (x) |up><up|, and every step's norm is at most ||H* + V||,
    which step j* attains:

      * omega_b 1 (x) |up><up| grows in the Loewner order with omega_b,
        so by Weyl's inequality lambda_max(H_j + V) <= lambda_max(H* + V);
      * H_S >= 0, omega_b >= 0 and ||V|| = Omega_0 (the coupling has norm
        1), so lambda_min(H_j + V) >= -Omega_0;
      * <0,up| (H* + V) |0,up> = omega_b*, so lambda_max(H* + V) >=
        omega_b*, which is far above Omega_0: it lies near a band energy
        omega_j >= Delta, and the schedule keeps Omega_0 < Delta/8.

    The three facts hold on every setup a ladder runs on: the search and
    clock blocks, and the dense setups they are cut from.

    H* + V = H_S (x) 1 + omega_b* 1 (x) |up><up| + Omega_0 C (x) sigma_x
    couples system indices i and j only where H_S or the coupling C has a
    nonzero (i, j) entry.  So each connected component S of the joint
    nonzero pattern of H_S and C (`connected_blocks`, on the system space)
    gives an invariant subspace S (x) bath, and ||H* + V|| is the largest
    norm of its blocks: one eigvalsh per block, each block a plain-array
    sum built from the principal submatrices H_S[S, S] and C[S, S] of the
    validated H_S and C, and so Hermitian.  A search block is one
    component; the largest block of an n = 1, L = 6 clock has 36 rows
    against the composite 256.
    """
    if not schedule.steps:
        return 0.0
    omega_b = max(s.omega_b for s in schedule.steps)
    h_s, c = setup.h_s.matrix, setup.coupling.matrix
    norm = 0.0
    for block in connected_blocks(h_s, c):
        h, v = qubit_bath_terms(h_s[block][:, block], schedule.omega0 * c[block][:, block],
                                omega_b)
        h += v
        norm = max(norm, operator_norm(h))
    return norm


def _squared_norms(columns: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each column."""
    return np.sum(columns.real ** 2 + columns.imag ** 2, axis=0)


class RunReport(_Frozen):
    """Outcome of one cooling run.  `error_budget` is 1 - the product of the
    per-step band retentions, `predicted_skip_penalty` the O(L' * f_perp)
    infidelity a reduced run adds, and `final_state` density mode's final
    state, for readouts; it is not part of the summary."""

    __slots__ = ("ground_fidelity", "per_step_up_probability", "per_step_retention",
                 "trace_residual", "min_eigenvalue", "total_time", "h_norm", "cost",
                 "error_budget", "mode", "skipped_bands", "f_perp", "predicted_skip_penalty",
                 "shots", "label", "final_state")

    def __init__(self, ground_fidelity: float, per_step_up_probability: tuple[float, ...],
                 per_step_retention: tuple[float, ...], trace_residual: float,
                 min_eigenvalue: float, total_time: float, h_norm: float, cost: float,
                 error_budget: float, mode: str, skipped_bands: tuple[int, ...] = (),
                 f_perp: float = 0.0, predicted_skip_penalty: float = 0.0, shots: int = 0,
                 label: str = "", final_state: DensityMatrix | None = None):
        _setattr(self, "ground_fidelity", ground_fidelity)
        _setattr(self, "per_step_up_probability", per_step_up_probability)
        _setattr(self, "per_step_retention", per_step_retention)
        _setattr(self, "trace_residual", trace_residual)
        _setattr(self, "min_eigenvalue", min_eigenvalue)
        _setattr(self, "total_time", total_time)
        _setattr(self, "h_norm", h_norm)
        _setattr(self, "cost", cost)
        _setattr(self, "error_budget", error_budget)
        _setattr(self, "mode", mode)
        _setattr(self, "skipped_bands", skipped_bands)
        _setattr(self, "f_perp", f_perp)
        _setattr(self, "predicted_skip_penalty", predicted_skip_penalty)
        _setattr(self, "shots", shots)
        _setattr(self, "label", label)
        _setattr(self, "final_state", final_state)


# numpy's SeedSequence hash constants and PCG64's LCG multiplier, as
# (high, low) 64-bit words (numpy/random/bit_generator.pyx and pcg64.h)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


def _hash_consts(init: int, mult: int):
    """The running hash constant of SeedSequence: (the word XORed in, the
    word multiplied by), one pair per hashed word."""
    const = init
    while True:
        xor, const = const, (const * mult) & _MASK32
        yield xor, const


def _hashmix(value: np.ndarray, xor: int, mult: int) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words with one pair of hash
    constants."""
    value = (value ^ np.uint32(xor)) * np.uint32(mult)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _mul64_hi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b (a uint64 array, b a
    64-bit constant), from 32-bit halves."""
    low32 = np.uint64(_MASK32)
    b_lo, b_hi = np.uint64(b & _MASK32), np.uint64(b >> 32)
    a_lo, a_hi = a & low32, a >> np.uint64(32)
    cross_lo, cross_hi = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> np.uint64(32)) + (cross_lo & low32) + (cross_hi & low32)
    return (a_hi * b_hi + (cross_lo >> np.uint64(32)) + (cross_hi >> np.uint64(32))
            + (mid >> np.uint64(32)))


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One step of PCG64's 128-bit LCG, state * multiplier + inc mod 2^128,
    on (high, low) uint64 words."""
    m_hi, m_lo = _PCG_MULT
    prod_lo = lo * np.uint64(m_lo)
    prod_hi = _mul64_hi(lo, m_lo) + lo * np.uint64(m_hi) + hi * np.uint64(m_lo)
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo).astype(np.uint64), new_lo


def trial_uniforms(master_seed: int, trials: int, k: int) -> np.ndarray:
    """The first k uniforms of every trial's own generator: row t is bit for
    bit `default_rng(SeedSequence(master_seed, spawn_key=(t,))).random(k)`,
    stable under any execution order.

    All trials are drawn at once, as uint32/uint64 array arithmetic that
    follows numpy's SeedSequence and PCG64 (O'Neill's XSL-RR output):
      * the master seed's entropy words fill and mix the pool once; each
        trial's spawn word, the last entropy word, is then mixed in;
      * the pool gives four 64-bit words (`generate_state(4, uint64)`),
        the LCG's state and increment as (high, low) word pairs;
      * PCG64 seeds the LCG from them: inc = 2 * increment + 1, then
        state = (inc + state words) * multiplier + inc;
      * each uniform steps the LCG, rotates the XOR of the state's halves
        right by its top 6 bits, and keeps the top 53 bits times 2^-53.
    A negative seed, or a trial index beyond one 32-bit spawn word, is a
    ValueError.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"the master seed must be >= 0, got {master_seed}")
    if trials > 2 ** 32:
        raise ValueError(f"trial indices must be < 2^32, got {trials} trials")
    # the seed's little-endian 32-bit words; a spawned sequence pads them
    # to the pool size of four
    n_words = max(4, -(-master_seed.bit_length() // 32))
    words = np.array([(master_seed >> (32 * i)) & _MASK32 for i in range(n_words)],
                     dtype=np.uint32)[:, None]
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(w, *next(consts)) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    for word in [*words[4:], np.arange(trials, dtype=np.uint32)]:
        pool = [_mix(p, _hashmix(word, *next(consts))) for p in pool]
    consts = _hash_consts(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % 4], *next(consts)).astype(np.uint64) for i in range(8)]
    # little-endian pairs of 32-bit words: the state's high and low words,
    # then the increment's
    s_hi, s_lo, i_hi, i_lo = (state[2 * i] | (state[2 * i + 1] << np.uint64(32))
                              for i in range(4))
    inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
    # the first step from state 0 leaves inc; add the state words, step again
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((trials, k))
    for i in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> np.uint64(58)
        bits = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, i] = (bits >> np.uint64(11)) * 2.0 ** -53
    return out


def run_deterministic(
    setup: CoolingSetup,
    schedule: CoolingSchedule,
    mode: str = "density",
    shots: int = 2000,
    seed: int = 0,
) -> RunReport:
    """Run the cooling ladder end to end.

    Density mode composes the exact conditional-evolution maps (the output
    is a deterministic number) and returns the final state with the report.
    Trajectory mode samples the bath measurement record per shot, then
    samples a final ground-vs-not outcome per shot so the fidelity estimate
    carries plain binomial statistics.  Shot t's uniforms are the stream of
    its own generator, spawned as `SeedSequence(seed, spawn_key=(t,))`;
    `trial_uniforms` draws every shot's stream at once, bit for bit,
    without building a generator per shot.  Shots with the same
    measurement record share one propagated state, so the work per step
    grows with the number of distinct records (one per step, plus one),
    not with the shots.

    `h_norm` (and `cost` = h_norm * total_time) is the largest step norm
    ||H_j + V|| of the ladder (`_step_norm`, on the connected blocks of
    H* + V), priced on the setup's `dense` setup when it is a band block
    cut from one.
    """
    if mode not in ("density", "trajectory"):
        raise ValueError("mode must be 'density' or 'trajectory'")
    if mode == "trajectory" and shots < 1:
        raise ValueError(f"trajectory mode needs shots >= 1, got {shots}")
    # the composite ground space: the ground space of H_S with either bath state
    ground = np.kron(setup.ground_basis, np.eye(2, dtype=complex))
    h_norm = _step_norm(setup.dense or setup, schedule)
    total_time = schedule.total_time

    if mode == "density":
        psi0 = np.kron(setup.fiducial.amplitudes, KET_DOWN)
        rho = DensityMatrix(np.outer(psi0, psi0.conj()))
        # the band manifold of step j is span{|k,down>}_{k<=j} + |0,up>: the
        # first j+1 columns and the last; its weight in rho is the sum of
        # <b|rho|b> over those columns b
        manifold = np.column_stack(
            [np.kron(setup.band.vector(k), KET_DOWN) for k in range(setup.n_bands)]
            + [np.kron(setup.band.vector(0), KET_UP)]
        )

        def column_weights(state: DensityMatrix) -> np.ndarray:
            return np.sum(manifold.conj() * (state.entries @ manifold), axis=0).real

        up = _bath_masks(rho.dim)[1]
        up_probs, retentions = [], []
        trace_residual = abs(rho.trace() - 1.0)
        min_eig = rho.min_eigenvalue()
        weights = column_weights(rho)
        for step, eig in _step_spectra(setup, schedule):
            before = float(np.sum(weights[: step.j + 1]) + weights[-1])
            rho = cooling_step(rho, step, eig)
            weights = column_weights(rho)
            after = float(np.sum(weights[: step.j]) + weights[-1])
            retentions.append(min(1.0, after / before) if before > 0 else 1.0)
            up_probs.append(float(np.sum(np.diagonal(rho.entries) * up).real))
            trace_residual = max(trace_residual, abs(rho.trace() - 1.0))
            min_eig = min(min_eig, rho.min_eigenvalue())
        fidelity = float(np.sum(ground.conj() * (rho.entries @ ground)).real)
        retention_product = float(np.prod(retentions)) if retentions else 1.0
        return RunReport(
            ground_fidelity=fidelity,
            per_step_up_probability=tuple(up_probs),
            per_step_retention=tuple(retentions),
            trace_residual=trace_residual,
            min_eigenvalue=min_eig,
            total_time=total_time,
            h_norm=h_norm,
            cost=h_norm * total_time,
            error_budget=1.0 - retention_product,
            mode="density",
            label=setup.label,
            final_state=rho,
        )

    # trajectory mode: pure-state shots through the measurement record.  A
    # shot's uniforms are one per step and one for the final readout, from
    # its own stream.  A shot's state depends only on its record of
    # bath outcomes so far, so shots with the same record share one column
    # of psi (`record` maps shot to column).  Each step measures every
    # column once: a column splits into its up rows (odd indices) and U
    # times its down rows, for the outcomes some shot of it drew.
    unitaries = [evolve(*eig, step.tau) for step, eig in _step_spectra(setup, schedule)]
    n_steps = len(unitaries)
    draws = trial_uniforms(seed, shots, n_steps + 1)
    psi = np.kron(setup.fiducial.amplitudes, KET_DOWN)[:, None]
    record = np.zeros(shots, dtype=np.intp)
    up_weights = np.zeros(n_steps)
    for i, u in enumerate(unitaries):
        p_up = _squared_norms(psi[1::2])
        went_up = draws[:, i] < p_up[record]
        branches, record = np.unique(2 * record + went_up, return_inverse=True)
        parent, up = branches // 2, branches % 2 == 1
        psi, p_up = psi[:, parent], p_up[parent]
        psi[0::2, up] = 0.0
        psi[1::2, ~up] = 0.0
        psi /= np.sqrt(np.where(up, p_up, np.maximum(1e-300, 1.0 - p_up)))
        psi[:, ~up] = u @ psi[:, ~up]
        # post-step pumped weight, comparable to the density-mode trace
        up_weights[i] = np.bincount(record, minlength=len(branches)) @ _squared_norms(psi[1::2])
    p_ground = _squared_norms(ground.conj().T @ psi)
    successes = int(np.count_nonzero(draws[:, -1] < np.clip(p_ground, 0.0, 1.0)[record]))
    return RunReport(
        ground_fidelity=successes / shots,
        per_step_up_probability=tuple(up_weights / shots),
        per_step_retention=(),
        trace_residual=0.0,
        min_eigenvalue=0.0,
        total_time=total_time,
        h_norm=h_norm,
        cost=h_norm * total_time,
        error_budget=float("nan"),
        mode="trajectory",
        shots=shots,
        label=setup.label,
    )


def run_reduced(
    setup: CoolingSetup,
    schedule: CoolingSchedule,
    eta: float | None = None,
) -> RunReport:
    """Deterministic ladder over `schedule` that skips bands with overlap
    x_j <= eta.

    With the default eta = eps / L^(3/2), eps the schedule's target, the
    skipped weight keeps the final infidelity within O(eps) while
    shortening the total time.
    """
    if eta is None:
        eps = schedule.eps_target if schedule.eps_target is not None else 0.0
        eta = eps / (setup.n_bands - 1) ** 1.5
    kept = tuple(s for s in schedule.steps if setup.xs[s.j] > eta)
    skipped = tuple(s.j for s in schedule.steps if setup.xs[s.j] <= eta)
    report = run_deterministic(setup, schedule._replace(steps=kept))
    f_perp = math.sqrt(float(np.sum(setup.xs[list(skipped)] ** 2))) if skipped else 0.0
    return report._replace(
        mode="density-reduced",
        skipped_bands=skipped,
        f_perp=f_perp,
        predicted_skip_penalty=len(kept) * f_perp,
    )


# ---------------------------------------------------------------------------
# Probabilistic qutrit scheme
# ---------------------------------------------------------------------------

def extension_gap(setup: CoolingSetup) -> float:
    """Delta of the probabilistic scheme: min{omega1, E, |E - omega1|} over
    the spectrum of H_S outside the ground state and the addressed band 1
    (levels within 1e-9 max(1, omega1) of 0 or omega1)."""
    if setup.band.spectrum is None:
        raise ValueError(f"setup {setup.label!r} holds no spectrum of H_S")
    omega1 = float(setup.band.omegas[1])
    evals = setup.band.spectrum
    tol = 1e-9 * max(1.0, abs(omega1))
    rest = evals[(np.abs(evals) >= tol) & (np.abs(evals - omega1) >= tol)]
    return float(min(omega1, np.min(np.abs(rest), initial=omega1),
                     np.min(np.abs(rest - omega1), initial=omega1)))


def extension_rabi(setup: CoolingSetup, omega0: float) -> float:
    """Band coupling rate |<1| Omega_0 T |0>| of the drive evolution."""
    return float(np.abs(
        setup.band.vector(1).conj() @ (omega0 * setup.coupling.matrix) @ setup.band.vector(0)
    ))


class ProbRunReport(_Frozen):
    """Outcome of one run of the probabilistic scheme; `tau_doublings`
    lists (trial index, new tau floor) pairs."""

    __slots__ = ("trials", "accept_count", "acceptance_rate", "conditional_success",
                 "mean_time_per_success", "analytic_acceptance", "tau_doublings",
                 "round_limit_exceeded", "b_measure_count", "label")

    def __init__(self, trials: int, accept_count: int, acceptance_rate: float,
                 conditional_success: float, mean_time_per_success: float,
                 analytic_acceptance: float, tau_doublings: tuple[tuple[int, float], ...],
                 round_limit_exceeded: bool, b_measure_count: int, label: str = ""):
        _setattr(self, "trials", trials)
        _setattr(self, "accept_count", accept_count)
        _setattr(self, "acceptance_rate", acceptance_rate)
        _setattr(self, "conditional_success", conditional_success)
        _setattr(self, "mean_time_per_success", mean_time_per_success)
        _setattr(self, "analytic_acceptance", analytic_acceptance)
        _setattr(self, "tau_doublings", tau_doublings)
        _setattr(self, "round_limit_exceeded", round_limit_exceeded)
        _setattr(self, "b_measure_count", b_measure_count)
        _setattr(self, "label", label)


def analytic_acceptance(f1: float, rabi: float, omega_star: float) -> float:
    """f1^2 * E[sin^2(Omega tau)] for tau uniform on [pi/Omega*, 2 pi/Omega*]."""
    a, b = math.pi / omega_star, 2 * math.pi / omega_star
    mean_sin2 = 0.5 - (math.sin(2 * rabi * b) - math.sin(2 * rabi * a)) / (
        4 * rabi * (b - a)
    )
    return f1 ** 2 * mean_sin2


def run_probabilistic(
    setup: CoolingSetup,
    omega0: float,
    omega_star: float | None = None,
    f1_lower: float | None = None,
    trials: int = 2000,
    seed: int = 0,
    max_rounds: int = 10 ** 6,
) -> ProbRunReport:
    """Evolve-measure-verify trials with the qutrit bath on band 1 of the
    setup: ground |0> = band vector 0, addressed level |1> = band vector 1
    at omega1, f1 = x_1 and the gap `extension_gap`.

    Each trial: evolve |F,C> under H + X for tau drawn uniformly from
    [pi/Omega*, 2 pi/Omega*]; measure the bath in the {B, D, C} basis; on
    outcome B swap B->L, D->R and evolve under H + Y for pi/(2 Omega_0); a
    final bath measurement of R accepts the trial.  After roughly 4/f1^2
    consecutive failures the sampling window doubles (Omega* halves).
    `omega0`, `omega_star` and `f1_lower` must be > 0.

    Trial t's three uniforms are the stream of its own generator, spawned
    as `SeedSequence(seed, spawn_key=(t,))`; `trial_uniforms` draws every
    trial's stream at once, bit for bit, without building a generator per
    trial.  The first gives tau as `Generator.uniform` forms it,
    lo + (hi - lo) * u; the second decides outcome B and the third the
    verification, and the third keeps its place in the stream when B is
    not measured.

    The qutrit bath is the last tensor factor, ordered (C, R, L), so a
    composite state is a (dim_s, 3) array and each bath projection selects
    columns: the B amplitude is (psi_L + psi_R)/sqrt(2), moved to level L,
    and the verify evolution's L-to-R block gives the R column it is
    accepted on.  The report's label is the setup's, marked "-ext".
    """
    if trials < 1:
        raise ValueError(f"the probabilistic scheme needs trials >= 1, got {trials}")
    rabi = extension_rabi(setup, omega0)
    f1 = float(setup.xs[1])
    if omega_star is None:
        omega_star = 0.9 * rabi
    if f1_lower is None:
        f1_lower = f1
    for name, value in (("omega0", omega0), ("omega_star", omega_star),
                        ("f1_lower", f1_lower)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    r = omega0 / extension_gap(setup)
    if r >= config.MAX_COUPLING_RATIO:
        raise CouplingTooLarge(f"r = {r:.4f} >= 1/8")

    omega1 = float(setup.band.omegas[1])
    h_full, x_op = build_bath_and_couplings(setup.h_s, BathSpec("qutrit", omega1),
                                            setup.coupling, omega0)
    dim_s = setup.dim_s
    # the two evolution Hamiltonians are the matrices validated here
    h_drive = Operator(h_full + x_op)
    h_verify = Operator(h_full + build_verification_coupling(dim_s, omega0))
    wt, vt = np.linalg.eigh(h_drive.matrix)
    tau_v = math.pi / (2 * omega0)
    # the verify evolution from bath level L to level R
    u_rl = evolve(*np.linalg.eigh(h_verify.matrix), tau_v)[1::3, 2::3]
    ground = setup.band.vector(0)
    psi_init_t = vt.conj().T @ np.kron(setup.fiducial.amplitudes, KET_C)

    doubling_threshold = max(1, math.ceil(4.0 / f1_lower ** 2))
    current_star = omega_star
    consecutive_failures = 0
    doublings: list[tuple[int, float]] = []
    limit_hit = False
    accepts = 0
    b_count = 0
    fidelity_sum = 0.0
    total_sim_time = 0.0
    analytic = analytic_acceptance(f1, rabi, omega_star)

    draws = trial_uniforms(seed, trials, 3).tolist()
    for t, (u_tau, u_b, u_r) in enumerate(draws):
        tau_lo = math.pi / current_star
        tau = tau_lo + (2 * math.pi / current_star - tau_lo) * u_tau
        total_sim_time += tau
        psi = (vt @ (np.exp(-1j * tau * wt) * psi_init_t)).reshape(dim_s, 3)
        b = (psi[:, 2] + psi[:, 1]) / math.sqrt(2)
        p_b = float(np.vdot(b, b).real)
        accepted = False
        if u_b < p_b:
            b_count += 1
            total_sim_time += tau_v
            r_col = u_rl @ (b / math.sqrt(p_b))
            p_r = float(np.vdot(r_col, r_col).real)
            if u_r < p_r:
                accepted = True
                fidelity_sum += float(abs(np.vdot(ground, r_col)) ** 2) / p_r
        if accepted:
            accepts += 1
            consecutive_failures = 0
            current_star = omega_star
        else:
            consecutive_failures += 1
            if consecutive_failures > max_rounds:
                limit_hit = True  # reported, not fatal
                consecutive_failures = 0
                current_star = omega_star
            elif consecutive_failures % doubling_threshold == 0:
                current_star /= 2.0
                doublings.append((t, current_star))

    return ProbRunReport(
        trials=trials,
        accept_count=accepts,
        acceptance_rate=accepts / trials,
        conditional_success=fidelity_sum / accepts if accepts else 0.0,
        mean_time_per_success=total_sim_time / accepts if accepts else float("inf"),
        analytic_acceptance=analytic,
        tau_doublings=tuple(doublings),
        round_limit_exceeded=limit_hit,
        b_measure_count=b_count,
        label=setup.label.replace("(", "-ext(", 1),
    )
