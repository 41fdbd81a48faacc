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
cooling ladder from step Hamiltonians built afresh, trajectory sampling
one shot at a time, each trial's uniforms from its own numpy generator
(`trial_rng`, the reference of the vectorized `cooling.trial_uniforms`),
and the search setup on its full composite space instead of its
two-band block.

`CountingLinalg` is the shared shim of the counted-work tests: they gate
on how many decompositions and builds a computation makes, not on time.
"""

import math
import sys
from collections import Counter
from functools import reduce

import numpy as np
import scipy.linalg


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
            h = Operator(h.matrix + delta_ops[step.j].matrix, hermitian=True)
        unitaries.append(evolve(h, step.tau).matrix)
    return unitaries


def _ground_projector(setup) -> np.ndarray:
    """The dense composite projector onto the ground space of H_S with
    either bath state."""
    p = setup.ground_basis @ setup.ground_basis.conj().T
    return np.kron(p, np.eye(2, dtype=complex))


def ladder_by_fresh_build(setup, schedule, delta_ops=None):
    """Density-mode ground fidelity and per-step up probabilities, with
    every step built afresh and the dense-projector map."""
    psi = np.kron(setup.fiducial.amplitudes, [1.0, 0.0])
    rho = np.outer(psi, psi.conj())
    up_probs = []
    for u in _fresh_unitaries(setup, schedule, delta_ops):
        rho = cooling_map_dense(rho, u)
        up_probs.append(float(np.sum(np.diagonal(rho)[1::2]).real))
    return float(np.trace(_ground_projector(setup) @ rho).real), up_probs


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
                                      max_rounds=10 ** 6):
    """The qutrit scheme's trials with every bath operation a dense
    composite matrix: the B and R projectors, the B->L, D->R swap and the
    ground projector, each 1 (x) a qutrit operator.  Band 1 of the setup is
    the addressed level, as in `run_probabilistic`.  Returns (accept
    count, B-outcome count, conditional success)."""
    from qsc.cooling import extension_rabi
    from qsc.linalg import Operator, evolve
    from qsc.models import (KET_B, KET_C, KET_D, KET_L, KET_R, BathSpec,
                            build_bath_and_couplings, build_verification_coupling)

    omega1 = float(setup.band.omegas[1])
    h_full, x_op = build_bath_and_couplings(setup.h_s, BathSpec("qutrit", omega1),
                                            setup.coupling, omega0)
    y_op = build_verification_coupling(setup.dim_s, omega0)
    wt, vt = np.linalg.eigh(h_full + x_op)
    tau_v = math.pi / (2 * omega0)
    u_verify = evolve(Operator(h_full + y_op, hermitian=True), tau_v).matrix
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
        h_s=Operator(h_s, hermitian=True),
        coupling=Operator(np.outer(f, f.conj()), hermitian=True),
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
    from qsc.levelshift import green_function

    bp = ctx.p.basis
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
    from qsc.linalg import Subspace, operator_norm

    lam_lo, lam_hi = inst.window
    w, vecs = np.linalg.eigh(inst.h.matrix)
    mask = (w > lam_lo) & (w < lam_hi)
    ctx = make_context(inst.h, Subspace(inst.h.dim, vecs[:, mask]), inst.gap,
                       operator_norm(inst.v))
    h_eff = self_energy(ctx, inst.v, float(np.mean(w[mask])))

    def grid_bound(lo, hi):
        worst = 0.0
        for z in np.linspace(lo, hi, grid_points):
            sig = self_energy(ctx, inst.v, float(z))
            worst = max(worst, float(np.linalg.norm(sig.matrix - h_eff.matrix, 2)))
        return worst

    spec = np.linalg.eigvalsh(h_eff.matrix)
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
    qubit."""
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
