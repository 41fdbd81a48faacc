"""Measurement-driven cooling pipelines.

Three protocols share the machinery here:

  * the deterministic ladder: address band j = L..1 with a corrected bath
    detuning, evolve for a half Rabi period, measure the bath, repeat;
  * the reduced ladder, which skips bands with negligible fiducial overlap;
  * the probabilistic qutrit scheme, which trades spectral knowledge for
    random evolution times plus a verification oscillation.

One record engine runs both modes of a ladder.  The ladder measures the
bath after every step and evolves conditionally on the outcome, so its
state is the probability-weighted mixture of the states its measurement
records leave.  Density mode, the primary mode, weighs those record
states exactly, so its output is deterministic; trajectory mode samples
them per shot and must agree within Monte-Carlo error.

One engine runs every setup, on the system space the setup declares.  The
ladders run on exact band blocks: the search model's setup is its
two-band block (`grover_setup`), so a search ladder propagates 4 x 4
composite matrices whatever n is, and the clock ladder runs on its
(L+1)-band block (`clock_block`), cut from the dense 2^(n+L) setup
(`clock_setup`) that keeps Delta, the band vectors and the step norm;
its largest matrix is H_S, and no clock run forms a matrix of the
composite size.  The dense setup stays a setup of its own: the bounds
lemmas run on it, and a ladder run on it is the oracle of the block's.

A schedule carries only what a run plays: per step the band j, the bath
energy omega_b (`solve_detuning`) and the pulse time tau, with Omega_0
and r; Omega_0 is the schedule's, set and checked by `build_schedule`.
The setup's H_S is the one validated operator of a step, and its coupling
is built exact: H_j + V is a plain array built from them by the one
qubit-bath helper, `models.build_bath_and_couplings` (`_step_hamiltonian`),
as Hermitian as they are (`linalg`'s docstring).  An exact-tau step reads the
pulse time off its eigen-splitting, refused when lost in roundoff
(`_exact_step`), and the schedule keeps only that time; a run builds and
diagonalizes each step it propagates again.  The ladder's step norm is
priced once, at its largest bath energy, on the connected blocks of H* + V
(`_step_norm`).  A run propagates the ladder once, one `cooling_step` per
step on a column per record: a ladder of L' steps has L' + 1 records (the
one still measuring down, and one up record per step, which measures up
again with probability 1 up to rounding), however many shots it samples.
A step evolves only its down columns (`linalg.evolve`) and forms no step
unitary; a roundoff-level down draw of an up record evolves like any other.
Density mode weights each record by its probability and forms one
`DensityMatrix`, the final state a report carries for readouts, at the
end.  Trajectory shots take all their uniforms (one per step, one for the
final readout) up front, each shot's from its own spawned stream, drawn
for every shot at once (`trial_uniforms`), and shots with the same record
share its column.  The qubit bath is the last tensor factor, so bath
projections select the even (down) and odd (up) composite indices.

The probabilistic scheme runs on the same setup as the ladder, the
clock's band block included (`extension_gap` reads the H_S spectrum of
its `dense` setup), and addresses its band 1 with a qutrit bath, built
only here (`_qutrit_hamiltonians`) and also the last tensor factor: its
projections select the composite indices of levels C, R and L (0, 1, 2
mod 3).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import config
from .errors import CouplingTooLarge
from .levelshift import solve_detuning
from .linalg import (
    DensityMatrix,
    Operator,
    _Frozen,
    _check_resolved,
    connected_blocks,
    evolve,
    operator_norm,
)
from .models import (
    KET_B,
    KET_C,
    KET_DOWN,
    KET_L,
    KET_R,
    KET_UP,
    BandStructure,
    ClockModel,
    GroverModel,
    _check_entries,
    _unit_vector,
    build_bath_and_couplings,
    build_clock,
    build_grover,
    clock_band_structure,
    clock_coupling_direction,
    grover_band_structure,
    grover_fiducial,
    overlap_coefficients,
)

# ---------------------------------------------------------------------------
# Protocol setups
# ---------------------------------------------------------------------------

class CoolingSetup(_Frozen):
    """Everything the deterministic ladder needs about one system.

    `coupling` is the unit-norm coupling direction, a plain array built
    exact; Omega_0 scales it.  In the band it acts as |F><F| with overlaps xs.
    `fiducial` is F, a complex unit vector on the system space.
    `ground_basis` holds orthonormal columns spanning the (possibly
    degenerate) ground space of H_S.  `dense` is the setup a band block was
    cut from (`clock_block`), and the block's one way to its dense data: a
    run prices its step norm there, and `extension_gap` reads the dense
    H_S spectrum there.
    """

    __slots__ = ("h_s", "coupling", "band", "xs", "fiducial", "ground_basis", "label", "dense")

    _DEFAULTS = {"label": "", "dense": None}

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
    """The setup of an exact band block: H_S = diag(omegas), coupling x x^T
    (exactly symmetric: x_i x_j and x_j x_i are one IEEE product), fiducial
    x, identity band vectors and ground space e0, with the `dense` setup it
    was cut from, if any.  Overlaps not all finite and > 0 are a ValueError."""
    if not (np.isfinite(xs) & (xs > 0)).all():
        raise ValueError(f"the fiducial must overlap every band finitely, got xs = {xs}")
    size = len(omegas)
    return CoolingSetup(
        h_s=Operator(np.diag(omegas).astype(complex)),
        coupling=np.outer(xs, xs).astype(complex),
        band=BandStructure(omegas=omegas, vectors=np.eye(size, dtype=complex), delta=delta),
        xs=xs,
        fiducial=xs.astype(complex),
        ground_basis=np.eye(size, 1, dtype=complex),
        label=label,
        dense=dense,
    )


def grover_setup(model: GroverModel, fiducial: np.ndarray | None = None,
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
    x off; a given `fiducial` is a complex unit vector that overlaps both bands.
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
        fiducial=_unit_vector(h_s.dim, 0),
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
    """One ladder step: band j, the bath energy omega_b and the pulse time
    tau."""

    __slots__ = ("j", "omega_b", "tau")


class CoolingSchedule(_Frozen):
    """Ordered cooling steps, j = L down to 1, at coupling Omega_0 = r
    Delta."""

    __slots__ = ("steps", "omega0", "r")

    @property
    def total_time(self) -> float:
        return float(sum(s.tau for s in self.steps))


def _rabi_rate(h: np.ndarray, a: np.ndarray, b: np.ndarray, where: str, name: str):
    """The Rabi rate of the states a and b that a resonant coupling
    hybridizes under the Hermitian array h (named `name`), half the
    splitting of the two eigenstates of h with the most weight on them, and
    (w, v) = np.linalg.eigh(h): (rate, w, v).  A splitting within roundoff
    of h (`linalg._check_resolved`) gives no pulse time: UnresolvedSplitting,
    naming `where`."""
    w, v = np.linalg.eigh(h)
    bras = v.conj().T
    top = np.argsort(-(np.abs(bras @ a) ** 2 + np.abs(bras @ b) ** 2))[:2]
    splitting = float(abs(w[top[0]] - w[top[1]]))
    _check_resolved(splitting, w, f"{where}: exact splitting", name,
                    "no pulse time can be read off it; raise the coupling ratio r "
                    "(below its 1/8 cap) or the gap Delta that Omega_0 = r Delta "
                    "scales (a clock's penalty h)")
    return splitting / 2.0, w, v


def _step_hamiltonian(setup: CoolingSetup, omega0: float, omega_b: float) -> np.ndarray:
    """H_j + V: the system with the bath detuned to omega_b, plus the
    coupling V = Omega_0 * coupling (x) sigma_x, as a plain array.  It is a
    sum of kron products of the validated H_S and exact coupling with real
    symmetric bath factors, so it is not tested again (see `linalg`)."""
    h, v = build_bath_and_couplings(setup.h_s.matrix, omega0 * setup.coupling, omega_b)
    h += v  # in place: one composite-size array fewer alive for the eigh
    return h


def _exact_step(setup: CoolingSetup, omega0: float, j: int, omega_b: float):
    """Step j with the bath at omega_b and its exact pulse time, the half
    Rabi period of the addressed transition under H_j + V (`_rabi_rate`),
    with the eigendecomposition (w, v) of H_j + V: (ScheduleStep, w, v)."""
    rabi, w, v = _rabi_rate(_step_hamiltonian(setup, omega0, omega_b), *setup.transition(j),
                            f"step j={j}", "H_j + V")
    return ScheduleStep(j=j, omega_b=omega_b, tau=math.pi / (2 * rabi)), w, v


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
    1/Omega_0 (so halving the coupling exactly doubles the time).  An
    exact splitting lost in roundoff is refused (`_rabi_rate`).
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
        omega_b = solve_detuning(xs, omegas, j, omega0, delta)
        steps.append(_exact_step(setup, omega0, j, omega_b)[0] if tau_mode == "exact"
                     else ScheduleStep(j, omega_b, math.pi / (2 * (omega0 * xs[0] * xs[j]))))
    return CoolingSchedule(steps=tuple(steps), omega0=omega0, r=r)


# ---------------------------------------------------------------------------
# The record engine and deterministic runs
# ---------------------------------------------------------------------------

def cooling_step(psi: np.ndarray, p_up: np.ndarray, branches: np.ndarray,
                 eig: tuple[np.ndarray, np.ndarray], tau: float) -> np.ndarray:
    """One ladder step on measurement-record states: measure the bath,
    then evolve conditionally on the outcome.

    Column r of `psi` is the state of record r and p_up[r] its up
    probability, the squared norm of its odd rows (the bath is the last
    tensor factor: down rows even, up rows odd).  Branch b continues
    record b // 2 with outcome b % 2 (1 = up): it keeps that outcome's
    rows, is divided by the square root of the outcome's probability (a
    down outcome's floored at 1e-300), and a down branch is evolved for
    the pulse time `tau` under the step Hamiltonian with eigendecomposition
    `eig` = (w, v) (`linalg.evolve`).  Returns one column per branch, in
    branch order.
    """
    parent, up = branches // 2, branches % 2 == 1
    psi, p_up = psi[:, parent], p_up[parent]
    psi[0::2, up] = 0.0
    psi[1::2, ~up] = 0.0
    psi /= np.sqrt(np.where(up, p_up, np.maximum(1e-300, 1.0 - p_up)))
    psi[:, ~up] = evolve(*eig, tau, psi[:, ~up])
    return psi


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
    validated H_S and exact C, and so Hermitian.  A search block is one
    component; the largest block of an n = 1, L = 6 clock has 36 rows
    against the composite 256.
    """
    if not schedule.steps:
        return 0.0
    omega_b = max(s.omega_b for s in schedule.steps)
    h_s, c = setup.h_s.matrix, setup.coupling
    norm = 0.0
    for block in connected_blocks(h_s, c):
        h, v = build_bath_and_couplings(h_s[block][:, block],
                                        schedule.omega0 * c[block][:, block], omega_b)
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

    _DEFAULTS = {"skipped_bands": (), "f_perp": 0.0, "predicted_skip_penalty": 0.0, "shots": 0,
                 "label": "", "final_state": None}


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
    ValueError; more than cap^2 uniforms in all is refused before any is
    drawn (`models._check_entries`).
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"the master seed must be >= 0, got {master_seed}")
    if trials > 2 ** 32:
        raise ValueError(f"trial indices must be < 2^32, got {trials} trials")
    _check_entries(trials * k)
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
    """Run the cooling ladder end to end on its measurement-record states,
    one `cooling_step` per step in either mode.

    The ladder's state is the mixture of its record states, each weighted
    by its record's probability (the quantum-jump unravelling;
    Dalibard-Castin-Molmer 1992, Plenio-Knight 1998).  Density mode weighs
    the records exactly: the all-down record branches both ways, every up
    record up only (its down rows are exact zeros), an outcome of
    probability 0 (step 1's up outcome) is dropped, and a weight is
    multiplied by its outcome's probability.  Its up probabilities, band
    retentions and trace residual |sum_r w_r |psi_r|^2 - 1| are sums over
    the records, and one `DensityMatrix` sum_r w_r |psi_r><psi_r| is formed
    at the end for the final state, its ground fidelity and its minimum
    eigenvalue.  Trajectory mode samples the records per shot, then a
    ground-vs-not outcome per shot, so the fidelity estimate carries plain
    binomial statistics; shot t's uniforms are the stream of its own
    generator, spawned as `SeedSequence(seed, spawn_key=(t,))`, all drawn
    at once (`trial_uniforms`).

    `h_norm` (and `cost` = h_norm * total_time) is the largest step norm
    ||H_j + V|| of the ladder (`_step_norm`, on the connected blocks of
    H* + V), priced on the setup's `dense` setup when it is a band block
    cut from one.
    """
    if mode not in ("density", "trajectory"):
        raise ValueError("mode must be 'density' or 'trajectory'")
    if mode == "trajectory" and shots < 1:
        raise ValueError(f"trajectory mode needs shots >= 1, got {shots}")
    density = mode == "density"
    # the composite ground space: the ground space of H_S with either bath state
    ground = np.kron(setup.ground_basis, np.eye(2, dtype=complex))
    h_norm = _step_norm(setup.dense or setup, schedule)
    n_steps = len(schedule.steps)
    psi = np.kron(setup.fiducial, KET_DOWN)[:, None]
    up_weights = np.zeros(n_steps)
    if density:
        # the band manifold of step j is span{|k,down>}_{k<=j} + |0,up>:
        # the first j+1 rows and the last
        manifold = np.column_stack(
            [np.kron(setup.band.vector(k), KET_DOWN) for k in range(setup.n_bands)]
            + [np.kron(setup.band.vector(0), KET_UP)]
        ).conj().T
        weights = np.ones(1)
        held = np.abs(manifold @ psi) ** 2 @ weights
        traces = [weights @ _squared_norms(psi)]
        retentions = []
    else:
        draws = trial_uniforms(seed, shots, n_steps + 1)
        record = np.zeros(shots, dtype=np.intp)
    for i, step in enumerate(schedule.steps):
        eig = np.linalg.eigh(_step_hamiltonian(setup, schedule.omega0, step.omega_b))
        p_up = _squared_norms(psi[1::2])
        if density:
            # 0, 1, 3, 5, ...: the all-down record (column 0) both ways,
            # each up record up only
            branches = np.arange(-1, 2 * psi.shape[1], 2)
            branches[0] = 0
            parent = branches // 2
            outcome = np.where(branches % 2 == 1, p_up[parent], 1.0 - p_up[parent])
            branches = branches[outcome > 0]
            weights = weights[branches // 2] * outcome[outcome > 0]
        else:
            went_up = draws[:, i] < p_up[record]
            branches, record = np.unique(2 * record + went_up, return_inverse=True)
        psi = cooling_step(psi, p_up, branches, eig, step.tau)
        # post-step pumped weight
        counts = weights if density else np.bincount(record, minlength=len(branches))
        up_weights[i] = counts @ _squared_norms(psi[1::2])
        if density:
            before = float(np.sum(held[: step.j + 1]) + held[-1])
            held = np.abs(manifold @ psi) ** 2 @ weights
            after = float(np.sum(held[: step.j]) + held[-1])
            retentions.append(min(1.0, after / before) if before > 0 else 1.0)
            traces.append(weights @ _squared_norms(psi))
    if density:
        final_state = DensityMatrix((psi * weights) @ psi.conj().T)
        # the sum of <g|rho|g> over the ground columns g, as a readout reads it
        fidelity = float(np.sum(ground.conj() * (final_state.entries @ ground)).real)
        stats = dict(per_step_retention=tuple(retentions),
                     trace_residual=float(np.max(np.abs(np.array(traces) - 1.0))),
                     min_eigenvalue=final_state.min_eigenvalue(),
                     error_budget=1.0 - float(np.prod(retentions)), final_state=final_state)
    else:
        p_ground = _squared_norms(ground.conj().T @ psi)
        successes = np.count_nonzero(draws[:, -1] < np.clip(p_ground, 0.0, 1.0)[record])
        fidelity = int(successes) / shots
        up_weights /= shots
        stats = dict(per_step_retention=(), trace_residual=0.0, min_eigenvalue=0.0,
                     error_budget=float("nan"), shots=shots)
    return RunReport(ground_fidelity=fidelity, per_step_up_probability=tuple(up_weights),
                     total_time=schedule.total_time, h_norm=h_norm,
                     cost=h_norm * schedule.total_time, mode=mode, label=setup.label, **stats)


def run_reduced(setup: CoolingSetup, schedule: CoolingSchedule, eta: float) -> RunReport:
    """Deterministic ladder over `schedule` that skips bands with overlap
    x_j <= eta.  The skipped weight f_perp adds O(L' * f_perp) infidelity
    while the total time shortens.
    """
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
    (levels within 1e-9 max(1, omega1) of 0 or omega1).  A band block's
    spectrum is its dense setup's."""
    evals = (setup.dense or setup).band.spectrum
    if evals is None:
        raise ValueError(f"setup {setup.label!r} holds no spectrum of H_S")
    omega1 = float(setup.band.omegas[1])
    tol = 1e-9 * max(1.0, abs(omega1))
    rest = evals[(np.abs(evals) >= tol) & (np.abs(evals - omega1) >= tol)]
    return float(min(omega1, np.min(np.abs(rest), initial=omega1),
                     np.min(np.abs(rest - omega1), initial=omega1)))


def extension_rabi(setup: CoolingSetup, omega0: float) -> float:
    """Band coupling rate |<1| Omega_0 T |0>| of the drive evolution."""
    return float(np.abs(
        setup.band.vector(1).conj() @ (omega0 * setup.coupling) @ setup.band.vector(0)
    ))


def _qutrit_hamiltonians(setup: CoolingSetup, omega0: float):
    """The qutrit scheme's drive H + X and verification H + Y, with

      H = H_S (x) (|C><C| + |R><R| - |L><L|) + omega1 * 1 (x) (|R><R| + |L><L|),
      X = Omega_0 C (x) (|C><B| + |B><C|),  |B> = (|L> + |R>)/sqrt(2),
      Y = Omega_0 * 1 (x) (|L><R| + |R><L|),

    the bath's displaced levels at band 1's omega1, C the setup's coupling:
    plain arrays built, like a step Hamiltonian, from the setup's validated
    H_S and exact coupling with real symmetric bath factors."""
    eye = np.eye(setup.dim_s, dtype=complex)
    proj_c, proj_r, proj_l = (np.outer(k, k) for k in (KET_C, KET_R, KET_L))
    h = (np.kron(setup.h_s.matrix, proj_c + proj_r - proj_l)
         + float(setup.band.omegas[1]) * np.kron(eye, proj_r + proj_l))
    x = np.kron(omega0 * setup.coupling, np.outer(KET_C, KET_B) + np.outer(KET_B, KET_C))
    y = omega0 * np.kron(eye, np.outer(KET_L, KET_R) + np.outer(KET_R, KET_L))
    return h + x, h + y


class ProbRunReport(_Frozen):
    """Outcome of one run of the probabilistic scheme; `tau_doublings`
    lists (trial index, new tau floor) pairs."""

    __slots__ = ("trials", "accept_count", "acceptance_rate", "conditional_success",
                 "mean_time_per_success", "analytic_acceptance", "tau_doublings",
                 "round_limit_exceeded", "b_measure_count", "label")

    _DEFAULTS = {"label": ""}


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
    omega_star: float,
    f1_lower: float,
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
    for name, value in (("omega0", omega0), ("omega_star", omega_star),
                        ("f1_lower", f1_lower)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    r = omega0 / extension_gap(setup)
    if r >= config.MAX_COUPLING_RATIO:
        raise CouplingTooLarge(f"r = {r:.4f} >= 1/8")

    dim_s = setup.dim_s
    h_drive, h_verify = _qutrit_hamiltonians(setup, omega0)
    drive = np.linalg.eigh(h_drive)
    tau_v = math.pi / (2 * omega0)
    # the verify evolution of the bath's L-level columns, on their R rows
    l_columns = np.kron(np.eye(dim_s), KET_L[:, None])
    u_rl = evolve(*np.linalg.eigh(h_verify), tau_v, l_columns)[1::3]
    ground = setup.band.vector(0)
    psi_init = np.kron(setup.fiducial, KET_C)[:, None]

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
        psi = evolve(*drive, tau, psi_init).reshape(dim_s, 3)
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
