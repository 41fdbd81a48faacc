"""Executable, falsifiable forms of the perturbation bounds.

Every checker verifies its hypotheses numerically before asserting the
bound: instances failing the hypotheses raise HypothesisUnmet and are
recorded as vacuous by the suite runner, never as passes.  Randomized
instance generators draw Gaussian Hermitian matrices and then move
eigenvalue clusters to enforce the required windows and gaps, so the main
suites satisfy hypotheses by construction.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import config
from .errors import HypothesisUnmet
from .levelshift import make_context, self_energy, self_energy_grid
from .linalg import (
    Operator,
    SpectralDecomposition,
    Subspace,
    evolve,
    hermitian_eig,
    hybridized_pair,
    operator_norm,
    require_hermitian,
)
from .models import (
    KET_B,
    KET_C,
    KET_DOWN,
    KET_L,
    KET_R,
    BathSpec,
    ClockModel,
    GroverModel,
    build_bath_and_couplings,
    build_verification_coupling,
)
from .cooling import (
    CoolingSetup,
    clock_extension_setup,
    clock_setup,
    grover_setup,
    _exact_splitting,
)
from .levelshift import solve_detuning

__all__ = [
    "BoundInstance",
    "CheckResult",
    "SuiteReport",
    "check_weyl",
    "check_sylvester",
    "check_block_resolvent",
    "check_spectral_correspondence",
    "check_subspace_overlap",
    "check_corollaries",
    "check_protocol_lemmas",
    "run_suite",
    "SUITES",
    "gaussian_hermitian",
    "haar_unitary",
    "make_windowed_instance",
    "make_multiband_instance",
    "dump_violation",
    "replay_instance",
]

_SLACK = 1e-9  # numerical floor on bound margins


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margins: tuple[float, ...]
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundInstance:
    """A random instance for the window-based checks: a Hamiltonian, a
    perturbation, the spectral window, and the protecting gap.

    H + V (summed as arrays and validated once), |V| and the
    eigendecompositions of H and H + V are computed once per instance and
    shared by every checker that reads them.
    """

    h: Operator
    v: Operator
    window: tuple[float, float]
    gap: float
    seed: int

    @cached_property
    def h_tilde(self) -> Operator:
        return Operator(self.h.matrix + self.v.matrix, hermitian=True)

    @cached_property
    def v_norm(self) -> float:
        return operator_norm(self.v)

    @cached_property
    def h_eig(self) -> SpectralDecomposition:
        return hermitian_eig(self.h)

    @cached_property
    def h_tilde_eig(self) -> SpectralDecomposition:
        return hermitian_eig(self.h_tilde)


# ---------------------------------------------------------------------------
# Elementary checkers
# ---------------------------------------------------------------------------

def check_weyl(h: Operator, h_tilde: Operator) -> CheckResult:
    """Sorted eigenvalues of two Hermitian operators never differ by more
    than the norm of their difference."""
    require_hermitian(h, h_tilde)
    mu = np.linalg.eigvalsh(h.matrix)
    sigma = np.linalg.eigvalsh(h_tilde.matrix)
    bound = operator_norm(h.matrix - h_tilde.matrix, hermitian=True)
    margins = bound - np.abs(mu - sigma)
    return CheckResult(
        name="weyl",
        passed=bool(np.all(margins >= -1e-10 * (1 + bound))),
        margins=tuple(float(m) for m in margins),
        details={"norm_diff": float(bound)},
    )


def check_sylvester(a: Operator, b: Operator, x: np.ndarray) -> CheckResult:
    """|X| <= |AX - XB| / beta for Hermitian A, B whose spectra are
    separated: |A| <= alpha and |B^{-1}| <= 1/(alpha + beta), beta > 0."""
    require_hermitian(a, b)
    alpha = operator_norm(a)
    sv = np.linalg.svd(b.matrix, compute_uv=False)
    if sv[-1] <= 0:
        raise HypothesisUnmet("B is singular")
    beta = float(sv[-1]) - alpha
    if beta <= 0:
        raise HypothesisUnmet(
            f"spectral separation fails: min sv(B) = {sv[-1]:.3e} <= |A| = {alpha:.3e}"
        )
    x = np.asarray(x, dtype=complex)
    lhs = float(np.linalg.norm(x, 2)) if x.size else 0.0
    rhs = float(np.linalg.norm(a.matrix @ x - x @ b.matrix, 2)) / beta if x.size else 0.0
    margin = rhs - lhs
    scale = 1 + lhs
    return CheckResult(
        name="sylvester",
        passed=bool(margin >= -_SLACK * scale),
        margins=(float(margin),),
        details={"alpha": alpha, "beta": beta},
    )


def check_block_resolvent(a: Operator, b: Operator, split: int) -> CheckResult:
    """Invertibility of A - B and the three block-norm bounds on its
    inverse, for A block-diagonal across a split of the space."""
    require_hermitian(a, b)
    dim = a.dim
    if not (0 < split < dim):
        raise ValueError("split must cut the space into two nonempty blocks")
    s1 = slice(0, split)
    s2 = slice(split, dim)
    am = a.matrix
    if np.max(np.abs(am[s1, s2])) > config.HERMITICITY_ATOL * (1 + operator_norm(a)):
        raise HypothesisUnmet("A is not block-diagonal across the split")
    sv1 = np.linalg.svd(am[s1, s1], compute_uv=False)
    sv2 = np.linalg.svd(am[s2, s2], compute_uv=False)
    if sv1[-1] <= 0 or sv2[-1] <= 0:
        raise HypothesisUnmet("a diagonal block of A is singular")
    g1, g2 = float(sv1[-1]), float(sv2[-1])
    bm = b.matrix
    b11 = float(np.linalg.norm(bm[s1, s1], 2))
    b22 = float(np.linalg.norm(bm[s2, s2], 2))
    b12 = float(np.linalg.norm(bm[s1, s2], 2))
    if not (b11 < g1 / 2 and b22 < g2 / 2 and b12 < min(g1, g2) / 2):
        raise HypothesisUnmet(
            f"block norms exceed half-gaps: b11={b11:.3e}, b22={b22:.3e}, "
            f"b12={b12:.3e} vs G1={g1:.3e}, G2={g2:.3e}"
        )
    diff = am - bm
    sv = np.linalg.svd(diff, compute_uv=False)
    if sv[-1] <= 0:
        return CheckResult("block_resolvent", False, (-1.0,),
                           details={"reason": "A - B singular despite hypotheses"})
    inv = np.linalg.inv(diff)
    n12 = float(np.linalg.norm(inv[s1, s2], 2))
    n11 = float(np.linalg.norm(inv[s1, s1], 2))
    n22 = float(np.linalg.norm(inv[s2, s2], 2))
    bound12 = b12 / ((g1 - b11) * (g2 - b22) - b12 ** 2)
    bound11 = (1 + b12 * n12) / (g1 - b11)
    bound22 = (1 + b12 * n12) / (g2 - b22)
    margins = (bound12 - n12, bound11 - n11, bound22 - n22)
    scale = 1 + max(n11, n22, n12)
    return CheckResult(
        name="block_resolvent",
        passed=bool(all(m >= -_SLACK * scale for m in margins)),
        margins=tuple(float(m) for m in margins),
        details={"G1": g1, "G2": g2, "b11": b11, "b22": b22, "b12": b12},
    )


# ---------------------------------------------------------------------------
# Window-based checkers
# ---------------------------------------------------------------------------

def _sigma_grid_bound(sigma_at, h_eff, lo: float, hi: float, points: int = 64) -> float:
    """max over an evenly spaced z grid on [lo, hi] of |Sigma_P(z) - H_eff|,
    each Hermitian 2-norm read off one batched eigvalsh."""
    diffs = sigma_at(np.linspace(lo, hi, points)) - h_eff.matrix
    return float(np.max(np.abs(np.linalg.eigvalsh(diffs))))


def _effective_hamiltonian_with_gamma(inst: BoundInstance, grid_points: int = 64):
    """Self-energy at the window center, with a self-consistent closeness
    radius gamma: gamma bounds |Sigma_P(z) - H_eff| over [c-gamma, d+gamma]."""
    lam_lo, lam_hi = inst.window
    inside, mask = inst.h_eig.window(lam_lo, lam_hi)
    if inside.shape[1] == 0:
        raise HypothesisUnmet("window contains no eigenvalues of H")
    p = Subspace(inst.h.dim, inside)
    q = Subspace(inst.h.dim, inst.h_eig.eigenvectors[:, ~mask])
    ctx = make_context(inst.h, p, inst.gap, inst.v_norm, q)
    z0 = float(np.mean(inst.h_eig.eigenvalues[mask]))
    h_eff = self_energy(ctx, inst.v, z0, mode="closed")
    sigma_at = self_energy_grid(ctx, inst.v)
    spec = np.linalg.eigvalsh(h_eff.matrix)
    c, d = float(spec[0]), float(spec[-1])
    gamma = max(1e-15, _sigma_grid_bound(sigma_at, h_eff, c, d, grid_points))
    for _ in range(8):
        if c - gamma <= lam_lo or d + gamma >= lam_hi:
            raise HypothesisUnmet("closeness interval escapes the window")
        new = _sigma_grid_bound(sigma_at, h_eff, c - gamma, d + gamma, grid_points)
        new *= 1.0 + 1e-6  # strict inequality headroom
        if new <= gamma * (1 + 1e-9):
            gamma = max(gamma, new)
            break
        gamma = new
    return ctx, h_eff, float(gamma), (c, d)


def _theorem1_hypotheses(inst: BoundInstance):
    lam_lo, lam_hi = inst.window
    gap = inst.gap
    evals = inst.h_eig.eigenvalues
    for edge in (lam_lo, lam_hi):
        if np.any((evals >= edge - gap / 2) & (evals <= edge + gap / 2)):
            raise HypothesisUnmet("H has eigenvalues inside a window collar")
    if inst.v_norm >= gap / 2:
        raise HypothesisUnmet("|V| >= gap/2")


def check_spectral_correspondence(inst: BoundInstance) -> CheckResult:
    """Pairwise eigenvalue correspondence: the self-energy's spectrum tracks
    the perturbed Hamiltonian's window spectrum to within the closeness
    radius gamma."""
    _theorem1_hypotheses(inst)
    ctx, h_eff, gamma, (c, d) = _effective_hamiltonian_with_gamma(inst)
    tilde_inside, _ = inst.h_tilde_eig.window(*inst.window)
    eff_vals = np.sort(np.linalg.eigvalsh(h_eff.matrix))
    tilde_vals = np.sort(
        np.linalg.eigvalsh(
            tilde_inside.conj().T @ inst.h_tilde.matrix @ tilde_inside
        )
    ) if tilde_inside.shape[1] else np.array([])
    if len(eff_vals) != len(tilde_vals):
        return CheckResult(
            "spectral_correspondence", False, (-1.0,),
            details={"reason": "window eigenvalue count mismatch",
                     "dim_eff": len(eff_vals), "dim_tilde": len(tilde_vals)},
        )
    margins = gamma - np.abs(eff_vals - tilde_vals)
    return CheckResult(
        name="spectral_correspondence",
        passed=bool(np.all(margins >= -_SLACK * (1 + gamma))),
        margins=tuple(float(m) for m in margins),
        details={"gamma": gamma, "spec_range": (c, d)},
    )


def _mutual_overlap_margins(a: np.ndarray, b: np.ndarray, bound: float) -> tuple:
    """<v|P_b|v> - bound for each column v of a, then <v|P_a|v> - bound for
    each column v of b, with P_a, P_b the projectors onto the columns'
    spans."""
    p_a = a @ a.conj().T
    p_b = b @ b.conj().T
    margins = [float(np.real(v.conj() @ p_b @ v)) - bound for v in a.T]
    margins += [float(np.real(v.conj() @ p_a @ v)) - bound for v in b.T]
    return tuple(margins)


def check_subspace_overlap(inst: BoundInstance) -> CheckResult:
    """Eigenvectors of the perturbed Hamiltonian stay in the unperturbed
    window subspace up to (2|H - H~|/Delta)^2, in both directions."""
    lam_lo, lam_hi = inst.window
    gap = inst.gap
    evals = inst.h_eig.eigenvalues
    in_win = (evals >= lam_lo + gap / 2) & (evals <= lam_hi - gap / 2)
    out_win = (evals <= lam_lo - gap / 2) | (evals >= lam_hi + gap / 2)
    if not np.any(in_win):
        raise HypothesisUnmet("no spectrum in the inner window")
    if not np.all(in_win | out_win):
        raise HypothesisUnmet("spectrum found inside a window collar")
    inside, _ = inst.h_eig.window(lam_lo, lam_hi)
    tilde_inside, _ = inst.h_tilde_eig.window(lam_lo, lam_hi)
    bound = 1.0 - (2 * inst.v_norm / gap) ** 2
    margins = _mutual_overlap_margins(tilde_inside, inside, bound)
    return CheckResult(
        name="subspace_overlap",
        passed=bool(all(m >= -_SLACK for m in margins)),
        margins=margins,
        details={"bound": float(bound)},
    )


def check_corollaries(inst: BoundInstance) -> CheckResult:
    """The two band-overlap consequences.

    First: a well-resolved eigenspace of the effective Hamiltonian captures
    the corresponding perturbed eigenvectors.  Second: for a multi-band
    resolved Hamiltonian the window subspaces capture each other's vectors
    with an extra factor of the band count.
    """
    res1 = _check_isolated_eigenspace_overlap(inst)
    res2 = _check_multiband_overlap(inst)
    return CheckResult(
        name="corollaries",
        passed=res1.passed and res2.passed,
        margins=res1.margins + res2.margins,
        details={"isolated": res1.details, "multiband": res2.details},
    )


def _check_isolated_eigenspace_overlap(inst: BoundInstance) -> CheckResult:
    _theorem1_hypotheses(inst)
    ctx, h_eff, gamma, _ = _effective_hamiltonian_with_gamma(inst)
    eff_vals, eff_vecs = np.linalg.eigh(h_eff.matrix)
    # isolate the top eigenvalue of H_eff (nu = 0 for a single vector)
    nu = 0.0
    eta = float(eff_vals[-1] - eff_vals[-2]) if len(eff_vals) > 1 else float("inf")
    if eta <= gamma:
        raise HypothesisUnmet(f"eigenspace resolution eta={eta:.3e} <= gamma={gamma:.3e}")
    p_prime_small = eff_vecs[:, -1:]
    p_prime = (ctx.p.basis @ p_prime_small) @ (ctx.p.basis @ p_prime_small).conj().T
    tilde_inside, _ = inst.h_tilde_eig.window(*inst.window)
    tvals, tvecs = np.linalg.eigh(
        tilde_inside.conj().T @ inst.h_tilde.matrix @ tilde_inside
    )
    # eigenvalue correspondence pairs the largest with the largest
    v_top = tilde_inside @ tvecs[:, -1]
    bound = (1 - (2 * inst.v_norm / inst.gap) ** 2) * (
        1 - ((2 * gamma + nu) / (eta - gamma)) ** 2
    )
    overlap = float(np.real(v_top.conj() @ p_prime @ v_top))
    margin = overlap - bound
    return CheckResult(
        name="isolated_eigenspace_overlap",
        passed=bool(margin >= -_SLACK),
        margins=(margin,),
        details={"gamma": gamma, "eta": eta, "bound": float(bound)},
    )


def _band_windows(evals: np.ndarray, gap: float):
    """Group sorted eigenvalues into bands separated by at least gap."""
    bands = [[evals[0]]]
    for e in evals[1:]:
        if e - bands[-1][-1] >= gap:
            bands.append([e])
        else:
            bands[-1].append(e)
    return bands


def _check_multiband_overlap(inst: BoundInstance) -> CheckResult:
    lam_lo, lam_hi = inst.window
    gap = inst.gap
    sd = inst.h_eig
    inside, mask = sd.window(lam_lo, lam_hi)
    if inside.shape[1] == 0:
        raise HypothesisUnmet("no spectrum in the window")
    in_vals = sd.eigenvalues[mask]
    out_vals = sd.eigenvalues[~mask]
    if out_vals.size and np.min(
        np.abs(in_vals[:, None] - out_vals[None, :])
    ) < gap * (1 - config.RESIDUAL_RTOL):
        raise HypothesisUnmet("window spectrum not gap-separated from the rest")
    bands = _band_windows(in_vals, gap)
    n_bands = len(bands)
    bound = 1.0 - n_bands * (2 * inst.v_norm / gap) ** 2
    # perturbed band subspaces from per-band windows
    tilde = np.column_stack([
        inst.h_tilde_eig.window(band[0] - gap / 2, band[-1] + gap / 2)[0] for band in bands
    ])
    margins = _mutual_overlap_margins(inside, tilde, bound)
    return CheckResult(
        name="multiband_overlap",
        passed=bool(all(m >= -_SLACK for m in margins)),
        margins=margins,
        details={"bands": n_bands, "bound": float(bound)},
    )


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def gaussian_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """A Gaussian Hermitian matrix, as a plain array."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (z + z.conj().T) / 2


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _scaled_to(norm: float, m: np.ndarray) -> Operator:
    """The Hermitian array m rescaled to the given 2-norm, validated."""
    return Operator((norm / operator_norm(m, hermitian=True)) * m, hermitian=True)


def _surgery_instance(rng, evals, v_norm: float, window, gap: float,
                      seed: int) -> BoundInstance:
    """H with the given spectrum in a Haar-random eigenbasis and a
    Gaussian V of norm v_norm."""
    u = haar_unitary(rng, len(evals))
    h = Operator(u @ np.diag(evals.astype(complex)) @ u.conj().T, hermitian=True)
    v = _scaled_to(v_norm, gaussian_hermitian(rng, len(evals)))
    return BoundInstance(h=h, v=v, window=window, gap=gap, seed=seed)


def make_windowed_instance(
    seed: int,
    dim: int = 12,
    p_rank: int = 3,
    gap: float = 1.0,
    v_scale: float = 0.2,
) -> BoundInstance:
    """Spectral surgery: p_rank eigenvalues in the inner window, the rest
    pushed beyond the collars, eigenvectors Haar random.  The perturbation
    norm is v_scale * gap/2 (hypothesis-satisfying for v_scale < 1)."""
    rng = np.random.default_rng(seed)
    lam_lo, lam_hi = -1.0, 1.0
    inner_lo, inner_hi = lam_lo + gap / 2, lam_hi - gap / 2
    inner = rng.uniform(inner_lo + 0.05 * gap, inner_hi - 0.05 * gap, size=p_rank)
    n_out = dim - p_rank
    lows = rng.uniform(lam_lo - gap / 2 - 2.0, lam_lo - gap / 2 - 0.05 * gap,
                       size=n_out // 2)
    highs = rng.uniform(lam_hi + gap / 2 + 0.05 * gap, lam_hi + gap / 2 + 2.0,
                        size=n_out - n_out // 2)
    evals = np.concatenate([inner, lows, highs])
    return _surgery_instance(rng, evals, v_scale * gap / 2, (lam_lo, lam_hi), gap, seed)


def make_multiband_instance(
    seed: int,
    dim: int = 14,
    n_bands: int = 3,
    band_rank: int = 2,
    gap: float = 0.6,
    v_scale: float = 0.15,
) -> BoundInstance:
    """Several tight bands inside the window, gap-separated from each other
    and from the outside spectrum."""
    rng = np.random.default_rng(seed)
    centers = np.linspace(-1.0, 1.0, n_bands)
    width = min(0.05, gap / 10)
    evals = []
    for c in centers:
        evals.extend(rng.uniform(c - width, c + width, size=band_rank))
    lam_lo = centers[0] - gap / 2 - width
    lam_hi = centers[-1] + gap / 2 + width
    n_out = dim - n_bands * band_rank
    lows = rng.uniform(lam_lo - gap - 2.0, lam_lo - gap, size=n_out // 2)
    highs = rng.uniform(lam_hi + gap, lam_hi + gap + 2.0, size=n_out - n_out // 2)
    evals = np.concatenate([np.array(evals), lows, highs])
    return _surgery_instance(rng, evals, v_scale * gap / 2, (lam_lo, lam_hi), gap, seed)


# ---------------------------------------------------------------------------
# Protocol-lemma residual scaling
# ---------------------------------------------------------------------------

def _loglog_exponent(r_values, residuals) -> float:
    x = np.log(np.asarray(r_values, dtype=float))
    y = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _pulse_residuals(setup: CoolingSetup, omega0: float, j: int,
                     time_points: int = 17) -> tuple[float, float]:
    """The transfer residual and the band leakage of step j, from one
    detuning solve and one eigendecomposition of H_j + V.

    Transfer residual: distance of the evolved addressed state from the
    up-pumped ground state, minimized over a global phase.

    Band leakage: envelope over the pulse of the out-of-manifold amplitude
    for lower-band basis states, normalized by sqrt(j).  The pointwise
    leakage oscillates under its envelope, so the maximum over a time grid
    is what exposes the scaling in the coupling ratio."""
    sol = solve_detuning(setup.xs, setup.band.omegas, j, omega0, setup.band.delta)
    splitting, sd = _exact_splitting(setup, omega0, sol)
    tau = math.pi / splitting
    down, up = setup.transition(j)
    out = evolve(sd, tau).matrix @ down
    transfer = math.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(up, out))))

    w, vecs = sd.eigenvalues, sd.eigenvectors
    cols = [np.kron(setup.band.vector(k), KET_DOWN) for k in range(j)]
    manifold = np.column_stack(cols)
    proj_out_eig = vecs.conj().T @ (
        np.eye(len(w)) - manifold @ manifold.conj().T
    ) @ vecs
    starts = [vecs.conj().T @ c for c in cols]
    # sqrt(max(0, .)) is monotone, so it can follow the maximum
    worst = _max_over_pulse(w, starts, proj_out_eig, tau, time_points)
    return transfer, math.sqrt(max(0.0, worst)) / math.sqrt(j)


def _max_over_pulse(w: np.ndarray, starts, proj: np.ndarray, tau: float,
                    time_points: int) -> float:
    """max of <out|proj|out> over the start states and over an even grid
    of evolution times up to tau, everything in the eigenbasis of the
    evolution Hamiltonian (eigenvalues w)."""
    worst = 0.0
    for frac in np.linspace(1.0 / time_points, 1.0, time_points):
        phases = np.exp(-1j * frac * tau * w)
        for amps in starts:
            out = phases * amps
            worst = max(worst, float(np.real(out.conj() @ proj @ out)))
    return worst


def _ladder_residuals(setup: CoolingSetup, r_grid) -> dict:
    """The last step's transfer residual and band leakage over the r grid,
    with their fitted exponents."""
    j = setup.n_bands - 1
    transfer, leak = zip(*(_pulse_residuals(setup, r * setup.band.delta, j)
                           for r in r_grid))
    return {
        "transfer_residual": list(transfer),
        "transfer_exponent": _loglog_exponent(r_grid, transfer),
        "band_leakage": list(leak),
        "leakage_exponent": _loglog_exponent(r_grid, leak),
    }


def _oscillation_residual(ext, omega0: float, time_points: int = 17) -> float:
    """Uniform-in-time deviation of the evolved |1,C> from the ideal
    two-level oscillation toward |0,B>, with the rate read off the measured
    splitting of the hybridized pair (the correction the claim allows) and
    the global phase optimized out."""
    h_full, x_op = build_bath_and_couplings(ext.h_s, BathSpec("qutrit", ext.omega1),
                                            ext.coupling, omega0)
    h = Operator(h_full + x_op, hermitian=True)
    start = np.kron(ext.band1[:, 0], KET_C)
    target = np.kron(ext.ground, KET_B)
    splitting, sd = hybridized_pair(h.matrix, start, target)
    w, vecs = sd.eigenvalues, sd.eigenvectors
    rabi = splitting / 2.0
    half_period = math.pi / (2 * rabi)
    start_eig = vecs.conj().T @ start
    worst = 0.0
    for frac in np.linspace(1.0 / time_points, 1.0, time_points):
        tau = frac * half_period
        phi = rabi * tau
        out = vecs @ (np.exp(-1j * tau * w) * start_eig)
        model = math.cos(phi) * start - 1j * math.sin(phi) * target
        overlap = abs(np.vdot(model, out))
        worst = max(worst, math.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
    return worst


def _verification_leakage(ext, omega0: float, time_points: int = 33) -> float:
    """Envelope of the spurious verification probability: max over excited
    system states and over a grid of evolution times up to the full
    verification pulse (the pointwise value oscillates under its envelope,
    so a single time would not expose the scaling)."""
    h_full, _ = build_bath_and_couplings(ext.h_s, BathSpec("qutrit", ext.omega1),
                                         ext.coupling, omega0)
    dim_s = ext.h_s.dim
    eye_s = np.eye(dim_s, dtype=complex)
    h = Operator(h_full + build_verification_coupling(dim_s, omega0), hermitian=True)
    w, vecs = np.linalg.eigh(h.matrix)
    tau_v = math.pi / (2 * omega0)
    proj_r = np.kron(eye_s, np.outer(KET_R, KET_R.conj()))
    ws, vs = np.linalg.eigh(ext.h_s.matrix)
    starts = []
    for i in range(dim_s):
        if abs(np.vdot(ext.ground, vs[:, i])) > 0.5:
            continue
        starts.append(vecs.conj().T @ np.kron(vs[:, i], KET_L))
    proj_r_eig = vecs.conj().T @ proj_r @ vecs
    return _max_over_pulse(w, starts, proj_r_eig, tau_v, time_points)


def check_protocol_lemmas(
    grover_model: GroverModel | None = None,
    clock_model: ClockModel | None = None,
    r_grid=(0.04, 0.02, 0.01),
) -> dict:
    """Measure the protocol residuals on an r grid and fit their scaling
    exponents by log-log regression.

    Reported residuals: the per-step transfer error and lower-band leakage
    (amplitudes, expected at least ~r), the qutrit oscillation error
    (amplitude, ~r) and the spurious verification probability (~r^2).
    """
    report: dict = {"r_grid": list(r_grid)}
    if grover_model is not None:
        report["grover"] = _ladder_residuals(grover_setup(grover_model), r_grid)
    if clock_model is not None:
        ladder = _ladder_residuals(clock_setup(clock_model), r_grid)
        ext = clock_extension_setup(clock_model)
        osc = [_oscillation_residual(ext, r * ext.delta) for r in r_grid]
        ver = [_verification_leakage(ext, r * ext.delta) for r in r_grid]
        report["clock"] = {
            **ladder,
            "oscillation_residual": osc,
            "oscillation_exponent": _loglog_exponent(r_grid, osc),
            "verification_leakage": ver,
            "verification_exponent": _loglog_exponent(r_grid, ver),
        }
    return report


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def dump_violation(path: Path, instance_payload: dict) -> Path:
    """Serialize a failing instance for replay: matrices as row-major
    [re, im] pairs plus seeds, hypothesis values, and margins."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(instance_payload, indent=2, sort_keys=True))
    return path


def _matrix_payload(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_payload(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _payload(args: dict) -> dict:
    """A checker's keyword arguments as dump entries: every matrix as
    [re, im] rows, a BoundInstance as its h, v, window and gap."""
    payload = {}
    for key, value in args.items():
        if isinstance(value, BoundInstance):
            payload.update(h=_matrix_payload(value.h.matrix), v=_matrix_payload(value.v.matrix),
                           window=list(value.window), gap=value.gap)
        elif isinstance(value, Operator):
            payload[key] = _matrix_payload(value.matrix)
        elif isinstance(value, np.ndarray):
            payload[key] = _matrix_payload(value)
        else:
            payload[key] = value
    return payload


def _arguments(check, payload: dict) -> dict:
    """The keyword arguments of `check` read back from a dump, the inverse
    of `_payload`.  Every matrix but Sylvester's X is outside input for a
    Hermitian operator and is validated as one here."""
    def hermitian(key):
        return Operator(_matrix_from_payload(payload[key]), hermitian=True)

    def read(name):
        if name == "inst":
            return BoundInstance(h=hermitian("h"), v=hermitian("v"),
                                 window=tuple(payload["window"]), gap=float(payload["gap"]),
                                 seed=int(payload.get("seed", 0)))
        if name == "x":
            return _matrix_from_payload(payload["x"])
        if name == "split":
            return int(payload["split"])
        return hermitian(name)

    return {name: read(name) for name in inspect.signature(check).parameters}


def replay_instance(payload: dict) -> CheckResult:
    """Re-run the named suite's checker on a serialized instance.

    Malformed payloads (missing keys, non-Hermitian matrices) surface as
    the exceptions the checkers raise; callers decide how to record them.
    """
    suite = payload["suite"]
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    _, check, _ = SUITES[suite]
    return check(**_arguments(check, payload))


@dataclass(frozen=True)
class SuiteReport:
    name: str
    instances: int
    passes: int
    vacuous: int
    violations: tuple[str, ...]  # dump paths

    @property
    def clean(self) -> bool:
        return not self.violations


def _weyl_arguments(seed: int, dim: int) -> dict:
    rng = np.random.default_rng(seed)
    h = gaussian_hermitian(rng, dim)
    h_tilde = h + gaussian_hermitian(rng, dim, scale=rng.uniform(0.01, 1.0))
    return {"h": Operator(h, hermitian=True), "h_tilde": Operator(h_tilde, hermitian=True)}


def _sylvester_arguments(seed: int, dim: int) -> dict:
    rng = np.random.default_rng(seed)
    m = max(2, dim // 2)
    a = Operator(gaussian_hermitian(rng, m), hermitian=True)
    alpha = operator_norm(a)
    beta = rng.uniform(0.1, 1.0)
    # B with singular values above alpha + beta by construction
    w, vb = np.linalg.eigh(gaussian_hermitian(rng, dim - m))
    shifted = np.sign(w + 1e-12) * (np.abs(w) + alpha + beta)
    b = Operator(vb @ np.diag(shifted.astype(complex)) @ vb.conj().T, hermitian=True)
    x = rng.normal(size=(m, dim - m)) + 1j * rng.normal(size=(m, dim - m))
    return {"a": a, "b": b, "x": x}


def _block_resolvent_arguments(seed: int, dim: int) -> dict:
    rng = np.random.default_rng(seed)
    split = max(2, dim // 2)
    a = np.zeros((dim, dim), dtype=complex)
    for block in (slice(0, split), slice(split, dim)):
        w, vb = np.linalg.eigh(gaussian_hermitian(rng, block.stop - block.start))
        lifted = np.sign(w + 1e-12) * (np.abs(w) + 1.0)  # G_i >= 1
        a[block, block] = vb @ np.diag(lifted.astype(complex)) @ vb.conj().T
    b = gaussian_hermitian(rng, dim)
    b = _scaled_to(rng.uniform(0.05, 0.4), b)  # under every half-gap
    return {"a": Operator(a, hermitian=True), "b": b, "split": split}


def _windowed_arguments(seed: int, dim: int) -> dict:
    return {"inst": make_windowed_instance(seed, dim=dim)}


def _multiband_arguments(seed: int, dim: int) -> dict:
    return {"inst": make_multiband_instance(seed, dim=dim)}


# name -> (make(seed, dim) -> the checker's keyword arguments, checker,
# default dim).  Runs and replays both call the checker through this table.
SUITES = {
    "weyl": (_weyl_arguments, check_weyl, 32),
    "sylvester": (_sylvester_arguments, check_sylvester, 16),
    "block_resolvent": (_block_resolvent_arguments, check_block_resolvent, 16),
    "spectral_correspondence": (_windowed_arguments, check_spectral_correspondence, 10),
    "subspace_overlap": (_windowed_arguments, check_subspace_overlap, 12),
    "corollaries": (_multiband_arguments, check_corollaries, 14),
}


def run_suite(
    name: str,
    instances: int,
    master_seed: int,
    out_dir: Path | None = None,
    dim: int | None = None,
) -> SuiteReport:
    """Run one randomized suite; violations are dumped for replay."""
    make, check, default_dim = SUITES[name]
    dim = dim or default_dim
    passes = vacuous = 0
    violations: list[str] = []
    for i in range(instances):
        seed = int(np.random.SeedSequence(master_seed, spawn_key=(i,)).generate_state(1)[0])
        try:
            args = make(seed, dim)
            result = check(**args)
        except HypothesisUnmet:
            vacuous += 1
            continue
        if result.passed:
            passes += 1
            continue
        if out_dir is None:
            violations.append(f"<{name} instance {i}>")
            continue
        payload = _payload(args) | {
            "suite": name, "seed": seed, "margins": list(result.margins),
            "details": {k: str(v) for k, v in result.details.items()},
        }
        dump = dump_violation(Path(out_dir) / f"violation_{name}_{i}.json", payload)
        violations.append(str(dump))
    return SuiteReport(
        name=name, instances=instances, passes=passes, vacuous=vacuous,
        violations=tuple(violations),
    )
