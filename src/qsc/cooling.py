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
search model's setup is its exact two-band block (`grover_setup`), so a
search ladder propagates 4 x 4 composite matrices whatever n is; the
clock's setup is its dense 2^(n+L) space.

An exact-tau schedule builds each step Hamiltonian H_j + V once, as the
one validated operator of the step (its terms are plain arrays), and
keeps the eigendecomposition it read the pulse time off; a run takes both
the step's norm and its evolution from that decomposition, and builds and
diagonalizes a step only when the schedule holds none for it (analytic
tau, an injected error, a detuning replaced after scheduling).  A run
propagates the ladder once, and a density-mode report carries the final
state for readouts.  Trajectory shots draw all their uniforms (one per
step, one for the final readout) from their own generators up front.  A
shot's state is fixed by its measurement record, so shots with the same
record share one propagated state: a ladder of L' steps propagates
L' + 1 states (the record still measuring down, and one up record per
step, which measures up again with probability 1 up to rounding)
however many shots it samples.  The qubit bath is the last tensor
factor, so bath projections select the even (down) and odd (up)
composite indices.

The probabilistic scheme runs on the same setup as the ladder and
addresses its band 1 with a qutrit bath, also the last tensor factor:
its projections select the composite indices of levels C, R and L
(0, 1, 2 mod 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import config
from .errors import CouplingTooLarge, DimensionMismatch
from .levelshift import DetuningSolution, solve_detuning
from .linalg import (
    SIGMA_X,
    DensityMatrix,
    Operator,
    SpectralDecomposition,
    StateVector,
    evolve,
    hermitian_eig,
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
)

__all__ = [
    "CoolingSetup",
    "StepSpectrum",
    "ScheduleStep",
    "CoolingSchedule",
    "RunReport",
    "ProbRunReport",
    "ErrorInjection",
    "ErrorBudgetReport",
    "grover_setup",
    "clock_setup",
    "build_schedule",
    "cooling_step",
    "run_deterministic",
    "run_reduced",
    "run_probabilistic",
    "extension_gap",
    "extension_rabi",
    "inject_errors",
    "extension_error_budget",
    "trial_rng",
]


# ---------------------------------------------------------------------------
# Protocol setups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoolingSetup:
    """Everything the deterministic ladder needs about one system.

    `coupling` is the unit-norm coupling direction; the schedule scales it
    by Omega_0.  Within the band, coupling acts as |F><F| with overlaps xs.
    `ground_basis` holds orthonormal columns spanning the (possibly
    degenerate) ground space of H_S.
    """

    h_s: Operator
    coupling: Operator
    band: BandStructure
    xs: np.ndarray
    fiducial: StateVector
    ground_basis: np.ndarray
    label: str = ""

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
    omegas = np.array([0.0, model.omega1])
    return CoolingSetup(
        h_s=Operator(np.diag(omegas).astype(complex), hermitian=True),
        coupling=Operator(np.outer(xs, xs).astype(complex), hermitian=True),
        band=BandStructure(omegas=omegas, vectors=np.eye(2, dtype=complex),
                           delta=model.omega1),
        xs=xs,
        fiducial=StateVector(xs.astype(complex)),
        ground_basis=np.eye(2, 1, dtype=complex),
        label=f"grover(n={model.n})",
    )


def clock_setup(model: ClockModel) -> CoolingSetup:
    """Clock setup: single-qubit coupling on the first clock qubit, fiducial
    all-zeros product state."""
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


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSpectrum:
    """The eigendecomposition of a step Hamiltonian H_j + V and the setup
    and couplings (Omega_0, omega_b) it was built for."""

    omega0: float
    omega_b: float
    decomposition: SpectralDecomposition
    setup: CoolingSetup = field(repr=False, compare=False)


@dataclass(frozen=True)
class ScheduleStep:
    j: int
    omega_b: float
    tau: float
    rabi: float  # the rate actually used to set tau: tau = pi / (2 rabi)
    solution: DetuningSolution = field(repr=False, compare=False, default=None)
    # exact tau_mode's decomposition of H_j + V, which runs propagate with
    spectrum: StepSpectrum | None = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class CoolingSchedule:
    """Ordered cooling steps, j = L down to 1."""

    steps: tuple[ScheduleStep, ...]
    omega0: float
    r: float
    eps_target: float | None
    tau_mode: str

    @property
    def total_time(self) -> float:
        return float(sum(s.tau for s in self.steps))


def _exact_splitting(setup: CoolingSetup, omega0: float, sol: DetuningSolution):
    """True splitting of the two hybridized eigenstates of H_j + V nearest
    the addressed transition, and the eigendecomposition of H_j + V."""
    h = _step_hamiltonian(setup, omega0, sol.omega_b)
    return hybridized_pair(h.matrix, *setup.transition(sol.j))


def _step_hamiltonian(setup: CoolingSetup, omega0: float, omega_b: float,
                      error: Operator | None = None) -> Operator:
    """H_j + V (+ error): the system with the bath detuned to omega_b, plus
    the coupling V = Omega_0 * coupling (x) sigma_x and any injected error.

    The terms come as plain arrays from the validated H_S, coupling and
    error; their sum, the matrix that is diagonalized and propagated, is
    the one validated operator of the step."""
    h, v = build_bath_and_couplings(setup.h_s, BathSpec("qubit", omega_b),
                                    setup.coupling, omega0)
    # summed in place and V dropped, so the check's SVD runs with two
    # composite-size arrays fewer alive
    h += v
    del v
    return Operator(_plus_error(h, error), hermitian=True)


def _plus_error(h: np.ndarray, error: Operator | None) -> np.ndarray:
    """h plus a static error term on the same composite space, if any."""
    if error is None:
        return h
    if error.dim != h.shape[0]:
        raise DimensionMismatch(f"error term of dimension {error.dim} on {h.shape[0]}")
    return h + error.matrix


def build_schedule(
    setup: CoolingSetup,
    omega0: float | None = None,
    eps: float | None = None,
    tau_mode: str = "exact",
    scaling_c: float = config.DEFAULT_SCHEDULE_CONSTANT,
) -> CoolingSchedule:
    """Solve per-band detunings and pulse times.

    Exactly one of `omega0` / `eps` must be given; with `eps`, the coupling
    is set through r = scaling_c * eps * L^(-5/2).  tau_mode "exact" reads
    the pulse time off the true eigen-splitting of H_j + V; "analytic" uses
    tau_j = pi / (2 Omega_0 x_0 x_j), which is exactly proportional to
    1/Omega_0 (so halving the coupling exactly doubles the time).  An exact
    step keeps its eigendecomposition of H_j + V for the runs.
    """
    if (omega0 is None) == (eps is None):
        raise ValueError("give exactly one of omega0 or eps")
    n_steps = setup.n_bands - 1
    delta = setup.band.delta
    if omega0 is None:
        r = scaling_c * eps * n_steps ** (-2.5)
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
        spectrum = None
        if tau_mode == "exact":
            splitting, sd = _exact_splitting(setup, omega0, sol)
            rabi = splitting / 2.0
            spectrum = StepSpectrum(omega0, sol.omega_b, sd, setup)
        else:
            rabi = omega0 * xs[0] * xs[j]
        steps.append(
            ScheduleStep(j=j, omega_b=sol.omega_b, tau=math.pi / (2 * rabi),
                         rabi=rabi, solution=sol, spectrum=spectrum)
        )
    return CoolingSchedule(
        steps=tuple(steps), omega0=omega0, r=r, eps_target=eps, tau_mode=tau_mode
    )


# ---------------------------------------------------------------------------
# The conditional-evolution map and deterministic runs
# ---------------------------------------------------------------------------

def cooling_step(rho: DensityMatrix, step: ScheduleStep,
                 h: Operator | SpectralDecomposition) -> DensityMatrix:
    """One application of the measure-then-conditionally-evolve map:

        E_j(rho) = U_j D rho D U_j^+  +  P_up rho P_up

    with D = 1 (x) |down><down| and U_j the evolution under the step
    Hamiltonian h = H_j + V (+ any injected error), or its
    eigendecomposition, for the step's pulse time.  Trace-preserving and
    completely positive by construction.
    """
    u = evolve(h, step.tau).matrix
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


def _step_hamiltonians(setup: CoolingSetup, schedule: CoolingSchedule,
                       delta_ops: dict[int, Operator] | None):
    """Each schedule step with the eigendecomposition of its Hamiltonian
    H_j + V (+ the injected error for band j).

    The schedule's own decomposition is used when it was built for this
    setup object and the step's couplings and no error is injected; a step
    without one (analytic tau), with an error, run on another setup, or
    whose omega_b or Omega_0 changed after scheduling (`dataclasses.replace`
    copies the stored decomposition) is built and diagonalized here.
    """
    for step in schedule.steps:
        error = delta_ops.get(step.j) if delta_ops else None
        spectrum = step.spectrum
        if (error is None and spectrum is not None and spectrum.setup is setup
                and (spectrum.omega0, spectrum.omega_b) == (schedule.omega0, step.omega_b)):
            yield step, spectrum.decomposition
            continue
        yield step, hermitian_eig(_step_hamiltonian(setup, schedule.omega0, step.omega_b, error))


def _squared_norms(columns: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each column."""
    return np.sum(columns.real ** 2 + columns.imag ** 2, axis=0)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one cooling run."""

    ground_fidelity: float
    per_step_up_probability: tuple[float, ...]
    per_step_retention: tuple[float, ...]
    trace_residual: float
    min_eigenvalue: float
    total_time: float
    h_norm: float
    cost: float
    error_budget: float  # 1 - product of per-step band retentions
    mode: str
    skipped_bands: tuple[int, ...] = ()
    f_perp: float = 0.0
    predicted_skip_penalty: float = 0.0  # O(L' * f_perp) infidelity add-on
    shots: int = 0
    label: str = ""
    # density mode's final state, for readouts; not part of the summary
    final_state: DensityMatrix | None = field(default=None, repr=False, compare=False)


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial generator, stable under any execution order."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial_index,)))


def run_deterministic(
    setup: CoolingSetup,
    schedule: CoolingSchedule,
    rho0: DensityMatrix | None = None,
    mode: str = "density",
    shots: int = 2000,
    seed: int = 0,
    delta_ops: dict[int, Operator] | None = None,
) -> RunReport:
    """Run the cooling ladder end to end.

    Density mode composes the exact conditional-evolution maps (the output
    is a deterministic number) and returns the final state with the report.
    Trajectory mode samples the bath measurement record per shot, with
    per-shot generators derived from the master seed, then samples a final
    ground-vs-not outcome per shot so the fidelity estimate carries plain
    binomial statistics.  Shots with the same measurement record share one
    propagated state, so the work per step grows with the number of
    distinct records (one per step, plus one), not with the shots.
    """
    if mode not in ("density", "trajectory"):
        raise ValueError("mode must be 'density' or 'trajectory'")
    # the composite ground space: the ground space of H_S with either bath state
    ground = np.kron(setup.ground_basis, np.eye(2, dtype=complex))
    h_norm = 0.0
    total_time = schedule.total_time

    if mode == "density":
        if rho0 is None:
            psi0 = np.kron(setup.fiducial.amplitudes, KET_DOWN)
            rho = DensityMatrix(np.outer(psi0, psi0.conj()))
        else:
            rho = rho0
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
        for step, sd in _step_hamiltonians(setup, schedule, delta_ops):
            h_norm = max(h_norm, operator_norm(sd))
            before = float(np.sum(weights[: step.j + 1]) + weights[-1])
            rho = cooling_step(rho, step, sd)
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
    # shot's uniforms are one per step and one for the final readout, drawn
    # from its own generator.  A shot's state depends only on its record of
    # bath outcomes so far, so shots with the same record share one column
    # of psi (`record` maps shot to column).  Each step measures every
    # column once: a column splits into its up rows (odd indices) and U
    # times its down rows, for the outcomes some shot of it drew.
    unitaries = []
    for step, sd in _step_hamiltonians(setup, schedule, delta_ops):
        h_norm = max(h_norm, operator_norm(sd))
        unitaries.append(evolve(sd, step.tau).matrix)
    n_steps = len(unitaries)
    draws = np.array([trial_rng(seed, t).random(n_steps + 1) for t in range(shots)])
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
    report = run_deterministic(setup, replace(schedule, steps=kept))
    f_perp = math.sqrt(float(np.sum(setup.xs[list(skipped)] ** 2))) if skipped else 0.0
    return replace(
        report,
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


@dataclass(frozen=True)
class ProbRunReport:
    trials: int
    accept_count: int
    acceptance_rate: float
    conditional_success: float
    mean_time_per_success: float
    analytic_acceptance: float
    tau_doublings: tuple[tuple[int, float], ...]  # (trial index, new tau floor)
    round_limit_exceeded: bool
    b_measure_count: int
    label: str = ""


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
    delta_op: Operator | None = None,
) -> ProbRunReport:
    """Evolve-measure-verify trials with the qutrit bath on band 1 of the
    setup: ground |0> = band vector 0, addressed level |1> = band vector 1
    at omega1, f1 = x_1 and the gap `extension_gap`.

    Each trial: evolve |F,C> under H + X for tau drawn uniformly from
    [pi/Omega*, 2 pi/Omega*]; measure the bath in the {B, D, C} basis; on
    outcome B swap B->L, D->R and evolve under H + Y for pi/(2 Omega_0); a
    final bath measurement of R accepts the trial.  After roughly 4/f1^2
    consecutive failures the sampling window doubles (Omega* halves).
    A static Hermitian `delta_op` (on the composite space) is added to both
    simulated evolutions.

    The qutrit bath is the last tensor factor, ordered (C, R, L), so a
    composite state is a (dim_s, 3) array and each bath projection selects
    columns: the B amplitude is (psi_L + psi_R)/sqrt(2), moved to level L,
    and the verify evolution's L-to-R block gives the R column it is
    accepted on.  The report's label is the setup's, marked "-ext".
    """
    rabi = extension_rabi(setup, omega0)
    f1 = float(setup.xs[1])
    if omega_star is None:
        omega_star = 0.9 * rabi
    if f1_lower is None:
        f1_lower = f1
    r = omega0 / extension_gap(setup)
    if r >= config.MAX_COUPLING_RATIO:
        raise CouplingTooLarge(f"r = {r:.4f} >= 1/8")

    omega1 = float(setup.band.omegas[1])
    h_full, x_op = build_bath_and_couplings(setup.h_s, BathSpec("qutrit", omega1),
                                            setup.coupling, omega0)
    dim_s = setup.dim_s
    # the two evolution Hamiltonians are the matrices validated here
    h_drive = Operator(_plus_error(h_full + x_op, delta_op), hermitian=True)
    h_verify = Operator(
        _plus_error(h_full + build_verification_coupling(dim_s, omega0), delta_op),
        hermitian=True,
    )
    wt, vt = np.linalg.eigh(h_drive.matrix)
    tau_v = math.pi / (2 * omega0)
    # the verify evolution from bath level L to level R
    u_rl = evolve(h_verify, tau_v).matrix[1::3, 2::3]
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

    for t in range(trials):
        rng = trial_rng(seed, t)
        tau = rng.uniform(math.pi / current_star, 2 * math.pi / current_star)
        total_sim_time += tau
        psi = (vt @ (np.exp(-1j * tau * wt) * psi_init_t)).reshape(dim_s, 3)
        b = (psi[:, 2] + psi[:, 1]) / math.sqrt(2)
        p_b = float(np.vdot(b, b).real)
        accepted = False
        if rng.random() < p_b:
            b_count += 1
            total_sim_time += tau_v
            r_col = u_rl @ (b / math.sqrt(p_b))
            p_r = float(np.vdot(r_col, r_col).real)
            if rng.random() < p_r:
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
        acceptance_rate=accepts / trials if trials else 0.0,
        conditional_success=fidelity_sum / accepts if accepts else 0.0,
        mean_time_per_success=total_sim_time / accepts if accepts else float("inf"),
        analytic_acceptance=analytic,
        tau_doublings=tuple(doublings),
        round_limit_exceeded=limit_hit,
        b_measure_count=b_count,
        label=setup.label.replace("(", "-ext(", 1),
    )


# ---------------------------------------------------------------------------
# Error injection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorInjection:
    """Static Hermitian error terms, one per cooling step (keyed by band
    index j), to be added to the simulated step Hamiltonians."""

    deltas: dict[int, Operator]

    def __post_init__(self):
        for op in self.deltas.values():
            if not op.hermitian:
                raise ValueError("injected errors must be Hermitian")


@dataclass(frozen=True)
class ErrorBudgetReport:
    per_step: tuple[dict, ...]
    all_within_budget: bool


def _error_blocks(s1: np.ndarray, v: np.ndarray, d: np.ndarray, delta: float,
                  budget: float) -> dict:
    """The three error block norms across the split S1 / S2 = 1 - S1 for the
    coupling v and the error d, with their checks against the budget:

        R1 = |S1 d S1| / Delta          <  budget
        Rx = |S1 (v+d) S2|^2 / Delta^2  <  budget
        R2 = |S2 (v+d) S2| / Delta      <  1/2
    """
    s2 = np.eye(s1.shape[0], dtype=complex) - s1
    r1 = np.linalg.norm(s1 @ d @ s1, 2) / delta
    rx = (np.linalg.norm(s1 @ (v + d) @ s2, 2) / delta) ** 2
    r2 = np.linalg.norm(s2 @ (v + d) @ s2, 2) / delta
    return {
        "R1": float(r1),
        "Rx": float(rx),
        "R2": float(r2),
        "budget": float(budget),
        "R1_ok": bool(r1 < budget),
        "Rx_ok": bool(rx < budget),
        "R2_ok": bool(r2 < 0.5),
    }


def _within_budget(row: dict) -> bool:
    return row["R1_ok"] and row["Rx_ok"] and row["R2_ok"]


def inject_errors(
    setup: CoolingSetup, schedule: CoolingSchedule, injection: ErrorInjection
) -> ErrorBudgetReport:
    """Measure the three error block norms per step (`_error_blocks`, with
    v = T the coupling) against the budget r * Omega_0 |x0 xj| / Delta,
    where S1 is the band (x) bath subspace.  Runs then proceed with the
    errors added; this function only reports the budgets.
    """
    band_bath = np.column_stack(
        [np.kron(setup.band.vector(k), e) for k in range(setup.n_bands)
         for e in (KET_DOWN, KET_UP)]
    )
    s1 = band_bath @ band_bath.conj().T
    delta = setup.band.delta
    t_full = np.kron(schedule.omega0 * setup.coupling.matrix, SIGMA_X)
    rows = []
    ok = True
    for step in schedule.steps:
        d = injection.deltas.get(step.j)
        dmat = d.matrix if d is not None else np.zeros_like(s1)
        budget = schedule.r * schedule.omega0 * setup.xs[0] * setup.xs[step.j] / delta
        row = {"j": step.j, **_error_blocks(s1, t_full, dmat, delta, budget)}
        ok = ok and _within_budget(row)
        rows.append(row)
    return ErrorBudgetReport(per_step=tuple(rows), all_within_budget=ok)


def extension_error_budget(
    setup: CoolingSetup, omega0: float, delta_op: Operator | None = None
) -> ErrorBudgetReport:
    """Error budgets for the probabilistic scheme's two evolutions.

    The drive evolution budgets against the band coupling rate Omega and
    the verification evolution against Omega_0; otherwise the same three
    block norms as the deterministic ladder, with the system split at the
    addressed band (ground + band 1 vs everything else) extended trivially
    over the qutrit.
    """
    b = np.kron(setup.band.vectors[:, :2], np.eye(3, dtype=complex))
    s1 = b @ b.conj().T
    omega1 = float(setup.band.omegas[1])
    _, x_op = build_bath_and_couplings(setup.h_s, BathSpec("qutrit", omega1),
                                       setup.coupling, omega0)
    y_op = build_verification_coupling(setup.dim_s, omega0)
    dmat = delta_op.matrix if delta_op is not None else np.zeros_like(s1)
    delta = extension_gap(setup)
    r = omega0 / delta
    rabi = extension_rabi(setup, omega0)
    ground = setup.band.vector(0)
    ground_shift = float(np.abs(ground.conj() @ (omega0 * setup.coupling.matrix) @ ground)) ** 2
    rows = []
    ok = r < config.MAX_COUPLING_RATIO
    for name, v_mat, rate in (("drive", x_op, rabi), ("verification", y_op, omega0)):
        budget = r * rate / delta
        shift_ok = bool(ground_shift / omega1 < r * rate)
        row = {"evolution": name, **_error_blocks(s1, v_mat, dmat, delta, budget),
               "ground_shift_ok": shift_ok}
        ok = ok and _within_budget(row) and shift_ok
        rows.append(row)
    return ErrorBudgetReport(per_step=tuple(rows), all_within_budget=ok)
