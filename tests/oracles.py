"""Independent oracles for the test suite.

Each oracle computes a quantity by a route disjoint from the production
path it checks: eigenvalues by inertia bisection on the characteristic
polynomial's root counts, operator norms by power iteration, partial
traces by raw index summation, matrix exponentials via scipy's Pade
implementation, the cooling map and the qutrit scheme's trials through
dense bath projectors, the qutrit scheme's gap one eigenvalue at a time,
the bounds lab's closeness radius by one linear solve and one SVD norm
per grid point, the self-energy by its series in powers of V, gate
embedding one basis column at a time, the clock construction by its
original four-branch hopping loop and step-by-step register history, the
cooling ladder from step Hamiltonians built afresh, the step norm on the
whole composite space instead of its connected blocks, the clock readout
on the final state lifted to the dense space instead of on the band
state, trajectory sampling one shot at a time, each trial's uniforms
from its own numpy generator (`trial_rng`, the reference of the
vectorized `cooling.trial_uniforms`), and the search setup on its full
composite space instead of its two-band block.

The dense setups also carry what the lab never runs: static error terms
on the step Hamiltonians, with their block-norm budgets (a noisy ladder
or qutrit scheme runs through the oracles above), and the paper's
identities that the suite checks, such as the resolvent G_Q, the
detuning condition's rational sums, the qutrit truncation and the
history state.

`CountingLinalg` is the shared shim of the counted-work tests: they gate
on how many decompositions and builds a computation makes, not on time.
"""

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg

from qsc.errors import DimensionMismatch, QscError
from qsc.models import KET_L, KET_R


def eigenvalues_by_inertia(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix by bisection on inertia.

    The number of eigenvalues below x equals the number of negative pivots
    in the LDL^T factorization of (A - x I); bisecting on that count
    brackets every root of the characteristic polynomial without ever
    calling an eigensolver.
    """
    a = np.asarray(matrix, dtype=complex)
    dim = a.shape[0]
    radius = float(np.linalg.norm(a, np.inf)) + 1.0

    def count_below(x: float) -> int:
        _, d, _ = scipy.linalg.ldl(a - x * np.eye(dim))
        # 2x2 blocks from the Bunch-Kaufman pivoting carry one negative
        # and one positive eigenvalue each
        negatives = 0
        i = 0
        while i < dim:
            if i + 1 < dim and abs(d[i, i + 1]) > 1e-300:
                block = d[i : i + 2, i : i + 2]
                negatives += int(np.sum(np.linalg.eigvalsh(block) < 0))
                i += 2
            else:
                if d[i, i].real < 0:
                    negatives += 1
                i += 1
        return negatives

    eigs = []
    for k in range(1, dim + 1):
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_below(mid) >= k:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(eigs)


def norm_by_power_iteration(matrix: np.ndarray, iters: int = 2000,
                            seed: int = 0) -> float:
    """Largest singular value via power iteration on A^dagger A."""
    a = np.asarray(matrix, dtype=complex)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
    v /= np.linalg.norm(v)
    m = a.conj().T @ a
    lam = 0.0
    for _ in range(iters):
        w = m @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def partial_trace_by_index_sum(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit summation over multi-indices."""
    dims = list(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros((kept_dim, kept_dim), dtype=complex)

    def multi(index):
        rem, digits = index, []
        for d in reversed(dims):
            digits.append(rem % d)
            rem //= d
        return list(reversed(digits))

    def flat(digits):
        idx = 0
        for d, size in zip(digits, dims):
            idx = idx * size + d
        return idx

    total = int(np.prod(dims))
    for i in range(total):
        di = multi(i)
        for j in range(total):
            dj = multi(j)
            if any(di[t] != dj[t] for t in traced):
                continue
            ki = 0
            kj = 0
            for k in keep:
                ki = ki * dims[k] + di[k]
                kj = kj * dims[k] + dj[k]
            out[ki, kj] += rho[i, j]
    return out


def expm_oracle(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) via scipy's Pade-based expm (independent of eigh)."""
    return scipy.linalg.expm(-1j * t * np.asarray(h, dtype=complex))


def cooling_map_dense(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The conditional-evolution map U D rho D U^+ + P_up rho P_up with the
    bath projectors as dense products D = 1 (x) |down><down| and
    P_up = 1 (x) |up><up| (the bath is the last tensor factor)."""
    eye_s = np.eye(rho.shape[0] // 2, dtype=complex)
    down = np.kron(eye_s, np.diag([1.0, 0.0]))
    up = np.kron(eye_s, np.diag([0.0, 1.0]))
    out = u @ (down @ rho @ down) @ u.conj().T + up @ rho @ up
    return (out + out.conj().T) / 2


def _fresh_unitaries(setup, schedule, delta_ops=None) -> list:
    """Each step's evolution, from H_j + V (+ the error for band j) built
    and diagonalized here, never from a decomposition the schedule holds."""
    from qsc.cooling import _step_hamiltonian
    from qsc.linalg import Operator, evolve

    unitaries = []
    for step in schedule.steps:
        h = _step_hamiltonian(setup, schedule.omega0, step.omega_b)
        if delta_ops and step.j in delta_ops:
            h = Operator(h.matrix + delta_ops[step.j].matrix)
        unitaries.append(evolve(*np.linalg.eigh(h.matrix), step.tau))
    return unitaries


def _ground_projector(setup) -> np.ndarray:
    """The dense composite projector onto the ground space of H_S with
    either bath state."""
    p = setup.ground_basis @ setup.ground_basis.conj().T
    return np.kron(p, np.eye(2, dtype=complex))


def ladder_by_fresh_build(setup, schedule, delta_ops=None, rho0=None):
    """Density-mode ground fidelity, per-step up probabilities and final
    state, with every step built afresh (plus the static error
    `delta_ops[j]` for band j, if any) and the dense-projector map.  The
    ladder starts from the density matrix `rho0`, by default the fiducial
    with the bath down."""
    if rho0 is None:
        psi = np.kron(setup.fiducial.amplitudes, [1.0, 0.0])
        rho0 = np.outer(psi, psi.conj())
    rho = rho0
    up_probs = []
    for u in _fresh_unitaries(setup, schedule, delta_ops):
        rho = cooling_map_dense(rho, u)
        up_probs.append(float(np.sum(np.diagonal(rho)[1::2]).real))
    return float(np.trace(_ground_projector(setup) @ rho).real), up_probs, rho


def step_norm_on_composite(setup, schedule) -> float:
    """The largest step norm of a ladder as one eigvalsh of H* + V on the
    whole composite space of `setup` (its `dense` setup, when it is a band
    block cut from one), at the steps' largest bath energy omega_b*; the
    production `cooling._step_norm` reads the same norm off the connected
    blocks instead."""
    from qsc.linalg import operator_norm
    from qsc.models import BathSpec, build_bath_and_couplings

    if not schedule.steps:
        return 0.0
    setup = setup.dense or setup
    omega_b = max(s.omega_b for s in schedule.steps)
    h, v = build_bath_and_couplings(setup.h_s, BathSpec("qubit", omega_b),
                                    setup.coupling, schedule.omega0)
    return operator_norm(h + v)


def clock_readout_by_lift(model, dense, final_state) -> dict:
    """The clock readout of a band block's final state read on the dense
    space: the state lifted to (B (x) 1) rho (B (x) 1)^+, B the dense band
    vectors of `dense`, then the bath traced out, the ground fidelity
    <eta|rho_sys|eta> with eta the history state, and the final clock site
    projected out densely."""
    from qsc.linalg import DensityMatrix, StateVector, partial_trace
    from qsc.models import clock_site_index

    n, length = model.n, model.length
    lift = np.kron(dense.band.vectors, np.eye(2))
    rho = DensityMatrix(lift @ final_state.entries @ lift.conj().T)
    rho_sys = partial_trace(rho, [2 ** n, 2 ** length, 2], keep=[0, 1])
    eta = dense.band.vector(0)
    ground_fid = float(np.real(eta.conj() @ rho_sys.entries @ eta))
    site_l = StateVector.basis(2 ** length, clock_site_index(length, length)).amplitudes
    proj = np.kron(np.eye(2 ** n, dtype=complex), np.outer(site_l, site_l.conj()))
    p_site = float(np.trace(proj @ rho_sys.entries @ proj).real)
    return {
        "ground_fidelity": ground_fid,
        "final_site_probability": p_site,
        "expected_site_weight": 1.0 / (length + 1),
    }


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The trial's own generator, spawned from the master seed: the stream
    `cooling.trial_uniforms` reproduces."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial_index,)))


def trajectory_by_shot(setup, schedule, shots: int, seed: int):
    """Trajectory sampling one shot at a time, each drawing its uniforms
    one by one from its own generator: a bath measurement per step (up
    keeps the pumped rows, down evolves the rest), then a ground-vs-not
    readout.  Returns (successes, per-step mean up weight)."""
    unitaries = _fresh_unitaries(setup, schedule)
    m_ground = _ground_projector(setup)
    psi_init = np.kron(setup.fiducial.amplitudes, [1.0, 0.0])
    up = np.arange(psi_init.shape[0]) % 2
    down = 1 - up
    successes = 0
    up_weights = np.zeros(len(unitaries))
    for t in range(shots):
        rng = trial_rng(seed, t)
        psi = psi_init.copy()
        for i, u in enumerate(unitaries):
            p_up = float(np.linalg.norm(psi * up) ** 2)
            if rng.random() < p_up:
                psi = psi * up / math.sqrt(p_up)
            else:
                psi = psi * down / math.sqrt(max(1e-300, 1.0 - p_up))
                psi = u @ psi
            up_weights[i] += float(np.linalg.norm(psi * up) ** 2)
        p_ground = float(np.real(psi.conj() @ m_ground @ psi))
        if rng.random() < min(1.0, max(0.0, p_ground)):
            successes += 1
    return successes, up_weights / shots


def extension_gap_by_loop(evals, omega1: float) -> float:
    """min{omega1, E, |E - omega1|} over the eigenvalues E further than
    1e-9 max(1, omega1) from both 0 and omega1, one eigenvalue at a time."""
    cands = [omega1]
    for e in evals:
        if abs(e) < 1e-9 * max(1.0, abs(omega1)) or abs(e - omega1) < 1e-9 * max(1.0, abs(omega1)):
            continue
        cands.extend((abs(e), abs(e - omega1)))
    return float(min(cands))


def probabilistic_by_dense_projectors(setup, omega0, trials, seed, omega_star=None,
                                      max_rounds=10 ** 6, delta_op=None):
    """The qutrit scheme's trials with every bath operation a dense
    composite matrix: the B and R projectors, the B->L, D->R swap and the
    ground projector, each 1 (x) a qutrit operator.  Band 1 of the setup is
    the addressed level, as in `run_probabilistic`.  A static Hermitian
    `delta_op` on the composite space is added to both evolutions.
    Returns (accept count, B-outcome count, conditional success)."""
    from qsc.cooling import extension_rabi
    from qsc.linalg import evolve
    from qsc.models import (KET_B, KET_C, BathSpec, build_bath_and_couplings,
                            build_verification_coupling)

    omega1 = float(setup.band.omegas[1])
    h_full, x_op = build_bath_and_couplings(setup.h_s, BathSpec("qutrit", omega1),
                                            setup.coupling, omega0)
    if delta_op is not None:
        h_full = h_full + delta_op.matrix
    y_op = build_verification_coupling(setup.dim_s, omega0)
    wt, vt = np.linalg.eigh(h_full + x_op)
    tau_v = math.pi / (2 * omega0)
    u_verify = evolve(*np.linalg.eigh(h_full + y_op), tau_v)
    eye_s = np.eye(setup.dim_s, dtype=complex)
    proj_b = np.kron(eye_s, np.outer(KET_B, KET_B.conj()))
    proj_r = np.kron(eye_s, np.outer(KET_R, KET_R.conj()))
    swap_bl = np.kron(eye_s, np.outer(KET_L, KET_B.conj()) + np.outer(KET_R, KET_D.conj())
                      + np.outer(KET_C, KET_C.conj()))
    ground = setup.band.vector(0)
    ground_proj = np.kron(np.outer(ground, ground.conj()), np.eye(3))
    psi_init_t = vt.conj().T @ np.kron(setup.fiducial.amplitudes, KET_C)

    f1 = float(setup.xs[1])
    if omega_star is None:
        omega_star = 0.9 * extension_rabi(setup, omega0)
    threshold = max(1, math.ceil(4.0 / f1 ** 2))
    current_star, failures = omega_star, 0
    accepts = b_count = 0
    fidelity_sum = 0.0
    for t in range(trials):
        rng = trial_rng(seed, t)
        tau = rng.uniform(math.pi / current_star, 2 * math.pi / current_star)
        psi = vt @ (np.exp(-1j * tau * wt) * psi_init_t)
        p_b = float(np.linalg.norm(proj_b @ psi) ** 2)
        accepted = False
        if rng.random() < p_b:
            b_count += 1
            psi = u_verify @ (swap_bl @ (proj_b @ psi / math.sqrt(p_b)))
            p_r = float(np.linalg.norm(proj_r @ psi) ** 2)
            if rng.random() < p_r:
                accepted = True
                psi = proj_r @ psi / math.sqrt(p_r)
                fidelity_sum += float(np.real(psi.conj() @ ground_proj @ psi))
        if accepted:
            accepts += 1
            failures, current_star = 0, omega_star
        else:
            failures += 1
            if failures > max_rounds:
                failures, current_star = 0, omega_star
            elif failures % threshold == 0:
                current_star /= 2.0
    return accepts, b_count, fidelity_sum / accepts if accepts else 0.0


def dense_grover_setup(model, fiducial=None, kind="uniform", seed=None):
    """The search setup on the full 2^n system, the composite space the
    production block reduces: the dense diagonal H_S, the coupling |F><F|,
    the band vectors P0 F / |P0 F| and P1 F / |P1 F| as dense columns, and
    the ground space spanned by every marked string.  Runs on it exercise
    what the block cannot hold: arbitrary initial states and errors that
    leave the block."""
    from qsc.cooling import CoolingSetup
    from qsc.linalg import Operator
    from qsc.models import BandStructure, grover_fiducial

    if fiducial is None:
        fiducial = grover_fiducial(model, kind=kind, seed=seed)
    marked = np.zeros(model.dim, dtype=bool)
    marked[list(model.marked)] = True
    f = fiducial.amplitudes
    comp0, comp1 = np.where(marked, f, 0.0), np.where(marked, 0.0, f)
    x0, x1 = np.linalg.norm(comp0), np.linalg.norm(comp1)
    h_s = np.diag(np.where(marked, 0.0, model.omega1)).astype(complex)
    return CoolingSetup(
        h_s=Operator(h_s),
        coupling=Operator(np.outer(f, f.conj())),
        band=BandStructure(omegas=np.array([0.0, model.omega1]),
                           vectors=np.column_stack([comp0 / x0, comp1 / x1]),
                           delta=model.omega1),
        xs=np.array([x0, x1]),
        fiducial=fiducial,
        ground_basis=np.eye(model.dim, dtype=complex)[:, marked],
        label=f"grover(n={model.n})",
    )


def detuning_function_per_call(xs, omegas, j, omega0):
    """`levelshift._detuning_function` with the band-j-deleted overlaps and
    energies cut out afresh on every evaluation of g_j."""
    xs = np.asarray(xs, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    g0_const = -float(np.sum(xs[1:] ** 2 / omegas[1:]))

    def g_j(z):
        return float(np.sum(np.delete(xs, j) ** 2 / (z - np.delete(omegas, j))))

    def f(z):
        gj = g_j(z)
        return (1.0 - omega0 ** 2 * gj * g0_const) * (z - omegas[j]) + omega0 ** 2 * (
            xs[0] ** 2 * gj - xs[j] ** 2 * g0_const
        )

    return f, g_j, g0_const


def detuning_scan_oracle(omega1, omega0, x0, x1, points=4001, span=4.0):
    """Brute-force detuning scan on the invariant four-level block: returns
    (best detuning, grid spacing).  The pulse time tracks each candidate
    detuning's own exact splitting, mirroring how the scheme would run if
    that detuning were believed correct."""
    down = np.array([0.0, 0.0, 1.0, 0.0])
    up = np.array([0.0, 1.0, 0.0, 0.0])
    best = (-1.0, None)
    scan = span * omega0 * x0 * x1
    grid = np.linspace(omega1 - scan, omega1 + scan, points)
    for wb in grid:
        h = np.array(
            [
                [0, omega0 * x0 * x0, 0, omega0 * x0 * x1],
                [omega0 * x0 * x0, wb, omega0 * x0 * x1, 0],
                [0, omega0 * x0 * x1, omega1, omega0 * x1 * x1],
                [omega0 * x0 * x1, 0, omega0 * x1 * x1, omega1 + wb],
            ],
            dtype=complex,
        )
        w, v = np.linalg.eigh(h)
        weight = np.abs(v.conj().T @ down) ** 2 + np.abs(v.conj().T @ up) ** 2
        top = np.argsort(-weight)[:2]
        tau = np.pi / abs(w[top[0]] - w[top[1]])
        psi0 = np.array([x0, 0, x1, 0], dtype=complex)
        psi = v @ (np.exp(-1j * tau * w) * (v.conj().T @ psi0))
        fid = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
        if fid > best[0]:
            best = (fid, wb)
    return best[1], grid[1] - grid[0]


def self_energy_by_series(ctx, v, z: float, order: int) -> np.ndarray:
    """The self-energy of P at z as its expansion in powers of V through
    `order` factors of V (order >= 2), built on the unperturbed resolvent
    G_Q(z) of `green_function`, in the P basis and symmetrized.  It agrees
    with the closed resolvent form to O(r^(order+1)) * gap."""
    bp = ctx.p
    gq = green_function(ctx, z).matrix
    sigma_full = np.zeros_like(gq)
    term = gq @ v.matrix @ (bp @ bp.conj().T)  # G_Q V P
    for _ in range(2, order + 1):
        sigma_full += v.matrix @ term  # V (G_Q V)^k P pieces projected below
        term = gq @ (v.matrix @ term)
    sigma = bp.conj().T @ (sigma_full + ctx.h.matrix + v.matrix) @ bp
    return (sigma + sigma.conj().T) / 2


def closeness_radius_pointwise(inst, grid_points: int = 64) -> float:
    """The closeness radius gamma of a window instance, computed one z at a
    time: a closed-form `self_energy` (condition check and linear solve) and
    an SVD 2-norm per grid point, with the same self-consistent sweeps as
    the bounds lab."""
    from qsc.errors import HypothesisUnmet
    from qsc.levelshift import make_context, self_energy

    lam_lo, lam_hi = inst.window
    w, vecs = np.linalg.eigh(inst.h.matrix)
    mask = (w > lam_lo) & (w < lam_hi)
    ctx = make_context(inst.h, vecs[:, mask], vecs[:, ~mask], inst.gap)
    h_eff = self_energy(ctx, inst.v, float(np.mean(w[mask])))

    def grid_bound(lo, hi):
        worst = 0.0
        for z in np.linspace(lo, hi, grid_points):
            sig = self_energy(ctx, inst.v, float(z))
            worst = max(worst, float(np.linalg.norm(sig - h_eff, 2)))
        return worst

    spec = np.linalg.eigvalsh(h_eff)
    c, d = float(spec[0]), float(spec[-1])
    gamma = max(1e-15, grid_bound(c, d))
    for _ in range(8):
        if c - gamma <= lam_lo or d + gamma >= lam_hi:
            raise HypothesisUnmet("closeness interval escapes the window")
        new = grid_bound(c - gamma, d + gamma) * (1.0 + 1e-6)
        if new <= gamma * (1 + 1e-9):
            gamma = max(gamma, new)
            break
        gamma = new
    return float(gamma)


def embed_gate_by_bit_loop(u: np.ndarray, targets, n: int) -> np.ndarray:
    """A 1- or 2-qubit unitary on the n-qubit register (qubit 1 the most
    significant bit), one basis column at a time: read the target bits of
    the column index, and add each nonzero u[out, in] at the row index with
    the target bits rewritten."""
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


def clock_hopping_by_branches(model) -> np.ndarray:
    """The clock hopping term written out per boundary case: a single clock
    qubit, the first, the last, and an interior step, each with its own
    controls and the diagonal as the sum of both states of the stepped
    qubit, and each moved term the dense product (U_l (x) 1) hop."""
    n, length = model.n, model.length
    total = n + length
    dim = 2 ** total
    proj0 = np.outer([1, 0], [1, 0]).astype(complex)
    proj1 = np.outer([0, 1], [0, 1]).astype(complex)
    hop10 = np.array([[0, 0], [1, 0]], dtype=complex)

    def site(ops):
        return reduce(np.kron, [ops.get(q, np.eye(2, dtype=complex))
                                for q in range(1, total + 1)])

    unitaries = model.circuit.unitaries()
    h_prop = np.zeros((dim, dim), dtype=complex)
    for l in range(1, length + 1):
        u_l = np.kron(unitaries[l - 1], np.eye(2 ** length, dtype=complex))
        if length == 1:
            diag = site({n + 1: proj0}) + site({n + 1: proj1})
            hop = site({n + 1: hop10})
        elif l == 1:
            diag = site({n + 1: proj0, n + 2: proj0}) + site({n + 1: proj1, n + 2: proj0})
            hop = site({n + 1: hop10, n + 2: proj0})
        elif l == length:
            diag = (site({n + length - 1: proj1, n + length: proj0})
                    + site({n + length - 1: proj1, n + length: proj1}))
            hop = site({n + length - 1: proj1, n + length: hop10})
        else:
            diag = (site({n + l - 1: proj1, n + l: proj0, n + l + 1: proj0})
                    + site({n + l - 1: proj1, n + l: proj1, n + l + 1: proj0}))
            hop = site({n + l - 1: proj1, n + l: hop10, n + l + 1: proj0})
        moved = u_l @ hop
        h_prop += 0.5 * (diag - moved - moved.conj().T)
    return h_prop


def clock_gap_by_sectors(model) -> float:
    """The clock band gap Delta without the dense Hamiltonian.

    The hopping keeps each input string's unary-clock history invariant,
    and there it is the (L+1)-site tridiagonal matrix; the input penalty
    adds delta1 * w at site 0 for an input of Hamming weight w.  Weight 0
    is the band itself.  Non-unary clock states lie at or above 2 omega,
    which is omega_1 - omega_0 from the top band energy, so they never set
    Delta below the band spacing.  Delta is the least distance from a band
    energy to another band energy or to an eigenvalue of a weight-w sector,
    w = 1..n.
    """
    from qsc.models import band_energies

    length = model.length
    omegas = band_energies(length, model.omega)
    hopping = np.zeros((length + 1, length + 1))
    for l in range(length + 1):
        hopping[l, l] = 1.0 if l in (0, length) else 2.0
        if l < length:
            hopping[l, l + 1] = hopping[l + 1, l] = -1.0
    hopping *= 0.5 * model.omega
    candidates = [abs(a - b) for j, a in enumerate(omegas)
                  for k, b in enumerate(omegas) if j != k]
    for w in range(1, model.n + 1):
        sector = hopping.copy()
        sector[0, 0] += model.delta1 * w
        energies = np.linalg.eigvalsh(sector)
        candidates.append(np.min(np.abs(energies[:, None] - omegas[None, :])))
    return float(min(candidates))


def clock_history_by_loop(model):
    """The history state and the closed-form band vectors, with the register
    propagated gate by gate inside each loop.  Returns (history, vectors)."""
    n, length = model.n, model.length
    lp1 = length + 1

    def clock_value_vector(n, length, l, register):
        clock = np.zeros(2 ** length, dtype=complex)
        clock[int("1" * l + "0" * (length - l), 2)] = 1.0
        return np.kron(register, clock)

    unitaries = model.circuit.unitaries()
    states = []
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    for l in range(lp1):
        if l > 0:
            state = unitaries[l - 1] @ state
        states.append(state)
    acc = np.zeros(2 ** (n + length), dtype=complex)
    for l in range(lp1):
        acc += clock_value_vector(n, length, l, states[l])
    vectors = np.zeros((2 ** (n + length), lp1), dtype=complex)
    for k in range(lp1):
        norm = math.sqrt((2.0 - (k == 0)) / lp1)
        for l in range(lp1):
            c = norm * math.cos((l + 0.5) * k * math.pi / lp1)
            vectors[:, k] += c * clock_value_vector(n, length, l, states[l])
    return acc / math.sqrt(lp1), vectors


# ---------------------------------------------------------------------------
# Error injection: noisy runs go through `ladder_by_fresh_build` and
# `probabilistic_by_dense_projectors`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorInjection:
    """Static Hermitian error terms (operators, so checked Hermitian when
    built), one per cooling step (keyed by band index j), to be added to
    the simulated step Hamiltonians."""

    deltas: dict


@dataclass(frozen=True)
class ErrorBudgetReport:
    per_step: tuple
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


def inject_errors(setup, schedule, injection: ErrorInjection) -> ErrorBudgetReport:
    """Measure the three error block norms per step (`_error_blocks`, with
    v = T the coupling) against the budget r * Omega_0 |x0 xj| / Delta,
    where S1 is the band (x) bath subspace.  Noisy runs then add the
    errors; this function only reports the budgets.
    """
    from qsc.linalg import SIGMA_X
    from qsc.models import KET_DOWN, KET_UP

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


def extension_error_budget(setup, omega0: float, delta_op=None) -> ErrorBudgetReport:
    """Error budgets for the probabilistic scheme's two evolutions.

    The drive evolution budgets against the band coupling rate Omega and
    the verification evolution against Omega_0; otherwise the same three
    block norms as the deterministic ladder, with the system split at the
    addressed band (ground + band 1 vs everything else) extended trivially
    over the qutrit.
    """
    from qsc import config
    from qsc.cooling import extension_gap, extension_rabi
    from qsc.models import BathSpec, build_bath_and_couplings, build_verification_coupling

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


# ---------------------------------------------------------------------------
# Paper identities: the resolvent, the rational sums and the solved
# two-level block of the detuning condition, the qutrit truncation
# identity, the history state and fiducial overlaps.
# ---------------------------------------------------------------------------

# the dark bath state of the qutrit, orthogonal to the bright |B>
KET_D = (KET_L - KET_R) / math.sqrt(2)


class PoleTooClose(QscError):
    """A resolvent evaluation point is too close to the spectrum."""


def complement(p: np.ndarray) -> np.ndarray:
    """An orthonormal basis (columns) of the orthogonal complement of the
    span of the orthonormal columns of p: the eigenvectors of I - p p^+
    with eigenvalue 1."""
    w, v = np.linalg.eigh(np.eye(p.shape[0]) - p @ p.conj().T)
    return v[:, w > 0.5]


def green_function(ctx, z: float):
    """Resolvent of the unperturbed Hamiltonian restricted to Q:
    G_Q(z) = Q (z - QHQ)^{-1} Q, returned on the full space (vanishing on P)."""
    from qsc import config
    from qsc.linalg import Operator

    bq = ctx.q
    hq = bq.conj().T @ ctx.h.matrix @ bq
    w, v = np.linalg.eigh(hq)
    guard = ctx.gap * config.POLE_GUARD_FRACTION
    if w.size and np.min(np.abs(z - w)) < guard * (1 - config.RESIDUAL_RTOL):
        raise PoleTooClose(
            f"z={z} within {np.min(np.abs(z - w)):.3e} of Spec(H|Q); guard {guard:.3e}"
        )
    small = v @ np.diag(1.0 / (z - w)) @ v.conj().T
    return Operator(bq @ small @ bq.conj().T)


def g_sums(xs, omegas, omega_b: float, j: int, z: float, gap: float | None = None):
    """The two rational sums entering the detuning polynomial:

        g_j(z) = sum_{k != j} x_k^2 / (z - omega_k)
        g_0(z) = sum_{k != 0} x_k^2 / (z - (omega_k + omega_b))

    With `gap` given, evaluation closer than gap/4 to a pole raises.
    """
    from qsc import config

    xs = np.asarray(xs, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    if xs.shape != omegas.shape:
        raise DimensionMismatch("xs and omegas must have equal length")
    poles_j = np.delete(omegas, j)
    poles_0 = np.delete(omegas, 0) + omega_b
    if gap is not None:
        guard = gap * config.POLE_GUARD_FRACTION * (1 - config.RESIDUAL_RTOL)
        closest = min(
            np.min(np.abs(z - poles_j)) if poles_j.size else np.inf,
            np.min(np.abs(z - poles_0)) if poles_0.size else np.inf,
        )
        if closest < guard:
            raise PoleTooClose(f"z={z} within {closest:.3e} of a pole")
    g_j = float(np.sum(np.delete(xs, j) ** 2 / (z - poles_j)))
    g_0 = float(np.sum(np.delete(xs, 0) ** 2 / (z - poles_0)))
    return g_j, g_0


def effective_grover_hamiltonian(sol) -> np.ndarray:
    """The solved two-level block in the {|j,down>, |0,up>} basis: equal
    diagonals omega_B* and off-diagonal Rabi coupling."""
    return np.array(
        [[sol.omega_b_star, sol.rabi], [sol.rabi, sol.omega_b_star]], dtype=complex
    )


@dataclass(frozen=True)
class QutritTruncationReport:
    """Outcome of the second-order truncation identity for the qutrit bath."""

    b_green_norm: float      # norm of <B| G(omega_1) |B> as a system operator
    h_eff: np.ndarray        # the self-energy at omega_1 on the P basis
    rabi: float              # off-diagonal coupling <1C| H_eff |0B>
    ground_shift: float      # coefficient of |0B><0B| beyond omega_1
    passed: bool


def qutrit_truncation_check(h_s, ground, band_vectors: np.ndarray, omega1: float,
                            gap: float, t_s) -> QutritTruncationReport:
    """Verify that the qutrit-bath Green's function kills the bright bath
    state at z = omega_1, so the self-energy truncates at second order, and
    return the resulting effective Hamiltonian.

    `band_vectors` are the orthonormal states spanning the addressed band
    P_1; `ground` is the nondegenerate system ground state.
    """
    from qsc import config
    from qsc.levelshift import make_context, self_energy
    from qsc.linalg import Operator
    from qsc.models import KET_B, KET_C, BathSpec, build_bath_and_couplings

    h_full, v = build_bath_and_couplings(h_s, BathSpec("qutrit", omega1), t_s)
    # both terms enter the self-energy separately, so both are checked
    h_full, v = Operator(h_full), Operator(v)
    dim_s = h_s.dim
    band = np.asarray(band_vectors, dtype=complex)
    if band.ndim == 1:
        band = band[:, None]

    # P = |0><0| x (|L><L| + |R><R|) + P_1 x |C><C|
    cols = [np.kron(ground.amplitudes, KET_L), np.kron(ground.amplitudes, KET_R)]
    for k in range(band.shape[1]):
        cols.append(np.kron(band[:, k], KET_C))
    p = np.column_stack(cols)
    ctx = make_context(h_full, p, complement(p), gap)

    g = green_function(ctx, omega1).matrix
    # compress the bath to |B> on both sides, leaving a system operator
    eye_s = np.eye(dim_s, dtype=complex)
    bra = np.kron(eye_s, KET_B.conj().reshape(1, 3))
    ket = np.kron(eye_s, KET_B.reshape(3, 1))
    m_sys = (bra @ g @ ket).reshape(dim_s, dim_s)
    b_green_norm = float(np.linalg.norm(m_sys, 2))

    h_eff = self_energy(ctx, v, omega1)
    c0 = p.conj().T @ np.kron(ground.amplitudes, KET_B)
    c1 = p.conj().T @ np.kron(band[:, 0], KET_C)
    rabi = float(np.abs(c1.conj() @ h_eff @ c0))
    ground_shift = float((c0.conj() @ h_eff @ c0).real - omega1)
    return QutritTruncationReport(
        b_green_norm=b_green_norm,
        h_eff=h_eff,
        rabi=rabi,
        ground_shift=ground_shift,
        passed=b_green_norm <= config.RESIDUAL_RTOL,
    )


def history_state(model):
    """Uniform superposition over the circuit history (the ground state of
    the clock Hamiltonian)."""
    from qsc.linalg import StateVector
    from qsc.models import _history_vectors

    return StateVector(sum(_history_vectors(model)) / math.sqrt(model.length + 1))


@dataclass(frozen=True)
class FiducialDecomposition:
    """Overlaps of a fiducial state with an orthonormal band basis, in the
    phase gauge that makes every coefficient real and non-negative, plus
    the weight outside the modeled band."""

    xs: np.ndarray
    f_perp: float

    def __post_init__(self):
        from qsc import config

        xs = np.array(self.xs, dtype=float)
        if np.any(xs < -config.NORM_ATOL):
            raise ValueError("gauge-fixed coefficients must be non-negative")
        total = float(np.sum(xs ** 2) + self.f_perp ** 2)
        if abs(total - 1.0) > 100 * config.NORM_ATOL:
            raise ValueError(f"decomposition weights sum to {total}, not 1")
        object.__setattr__(self, "xs", xs)


def decompose_fiducial(f, band_vectors) -> FiducialDecomposition:
    """Magnitudes of the band overlaps <j|F> and the out-of-band residual,
    for a BandStructure or a raw column matrix of orthonormal vectors.  The
    phase of each |j> is the gauge freedom that makes x_j real and
    non-negative, so only magnitudes are kept."""
    from qsc.models import BandStructure

    if isinstance(band_vectors, BandStructure):
        band_vectors = band_vectors.vectors
    xs = np.abs(np.asarray(band_vectors, dtype=complex).conj().T @ f.amplitudes)
    leftover = max(0.0, 1.0 - float(np.sum(xs ** 2)))
    return FiducialDecomposition(xs=xs, f_perp=math.sqrt(leftover))


class CountingLinalg:
    """Counts the numpy.linalg calls made while installed, with the shapes
    of their first arguments; `track` counts the calls of a qsc function
    too, with their first arguments."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.calls: dict[str, list] = {}
        for name in ("solve", "cond", "svd", "eigh", "eigvalsh"):
            self._count(np.linalg, name, name, np.shape)
        norm = np.linalg.norm

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                self.calls.setdefault("norm2", []).append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)

    def track(self, owner, attr: str, key: str | None = None) -> None:
        """Count calls of `owner.attr` under `key` (default `attr`), in
        every qsc module that has bound the same function."""
        fn = getattr(owner, attr)
        counted = self._count(owner, attr, key or attr, lambda a: a)
        for name, module in list(sys.modules.items()):
            if (name == "qsc" or name.startswith("qsc.")) and module is not owner:
                if getattr(module, attr, None) is fn:
                    self._monkeypatch.setattr(module, attr, counted)

    def _count(self, owner, attr, key, record):
        fn = getattr(owner, attr)

        def counted(a, *args, **kwargs):
            self.calls.setdefault(key, []).append(record(a))
            return fn(a, *args, **kwargs)

        self._monkeypatch.setattr(owner, attr, counted)
        return counted

    def count(self, key) -> int:
        return len(self.calls.get(key, []))

    def sizes(self, key) -> Counter:
        return Counter(shape[-1] for shape in self.calls.get(key, []))
