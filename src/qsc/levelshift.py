"""Resolvents, self-energy operators, effective Hamiltonians, and the
bath-detuning solve.

The central object is the self-energy of a near-resonant subspace P:

    Sigma_P(z) = P H P + P V P + P V Q (z - Q(H+V)Q)^{-1} Q V P

evaluated at real z away from the complement's spectrum.  `self_energy`
evaluates it at one z with a linear solve (the reference path);
`self_energy_grid` diagonalizes Q(H+V)Q once and returns an evaluator for a
whole array of z.  When P is the whole space there is no complement and
Sigma_P(z) = P(H+V)P.

For the cooling protocols, P is the two-dimensional span of the addressed
band state with the bath down and the ground state with the bath up;
equalizing the diagonal of Sigma_P at z = omega_B fixes the corrected bath
detuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import (
    DimensionMismatch,
    NoSignChange,
    PoleTooClose,
    SingularResolvent,
)
from .linalg import Operator, StateVector, Subspace, operator_norm
from .models import (
    KET_B,
    KET_C,
    KET_L,
    KET_R,
    BathSpec,
    build_bath_and_couplings,
)

__all__ = [
    "LevelShiftContext",
    "DetuningSolution",
    "EffectiveHamiltonian",
    "make_context",
    "green_function",
    "self_energy",
    "self_energy_grid",
    "g_sums",
    "solve_detuning",
    "effective_grover_hamiltonian",
    "qutrit_truncation_check",
    "QutritTruncationReport",
]


# Largest resolvent condition number a closed-form self-energy accepts.
MAX_RESOLVENT_COND = 1e14


@dataclass(frozen=True)
class LevelShiftContext:
    """A Hamiltonian resolved into a near-resonant subspace P and its
    complement Q, with the protecting gap and coupling scale attached."""

    h: Operator
    p: Subspace
    q: Subspace
    gap: float
    omega0: float

    @property
    def r(self) -> float:
        return self.omega0 / self.gap

    @property
    def dim(self) -> int:
        return self.h.dim


def make_context(h: Operator, p: Subspace, gap: float, omega0: float,
                 q: Subspace | None = None) -> LevelShiftContext:
    """Build and validate a context: P and Q orthogonal and complete, H
    block-diagonal across them, spectra separated by at least the gap.

    Q is the orthogonal complement of P, computed here unless the caller
    already holds a basis of it (say, the rest of an eigenbasis of H)."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    if q is None:
        q = p.complement()
    elif q.rank and p.rank and np.max(np.abs(p.basis.conj().T @ q.basis)) > config.GRAM_ATOL:
        raise ValueError("P and Q are not orthogonal")
    dim = h.dim
    if p.rank + q.rank != dim:
        raise DimensionMismatch("P and Q do not fill the space")
    cross = p.basis.conj().T @ h.matrix @ q.basis
    dev = np.max(np.abs(cross)) if cross.size else 0.0
    # 1 + |H| >= 1: the norm is needed only when the unscaled test fails
    if dev > config.PROJECTOR_ATOL and dev > config.PROJECTOR_ATOL * (1 + operator_norm(h)):
        raise ValueError("H is not block-diagonal across P and Q")
    spec_p = np.linalg.eigvalsh(p.restrict(h)) if p.rank else np.array([])
    spec_q = np.linalg.eigvalsh(q.restrict(h)) if q.rank else np.array([])
    if spec_p.size and spec_q.size:
        sep = np.min(np.abs(spec_p[:, None] - spec_q[None, :]))
        if sep < gap * (1 - config.RESIDUAL_RTOL):
            raise ValueError(f"P/Q spectra separated by {sep:.3e} < gap {gap:.3e}")
    return LevelShiftContext(h=h, p=p, q=q, gap=gap, omega0=omega0)


def green_function(ctx: LevelShiftContext, z: float) -> Operator:
    """Resolvent of the unperturbed Hamiltonian restricted to Q:
    G_Q(z) = Q (z - QHQ)^{-1} Q, returned on the full space (vanishing on P)."""
    bq = ctx.q.basis
    hq = bq.conj().T @ ctx.h.matrix @ bq
    w, v = np.linalg.eigh(hq)
    guard = ctx.gap * config.POLE_GUARD_FRACTION
    if w.size and np.min(np.abs(z - w)) < guard * (1 - config.RESIDUAL_RTOL):
        raise PoleTooClose(
            f"z={z} within {np.min(np.abs(z - w)):.3e} of Spec(H|Q); guard {guard:.3e}"
        )
    small = v @ np.diag(1.0 / (z - w)) @ v.conj().T
    return Operator(bq @ small @ bq.conj().T, hermitian=True)


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """A self-energy evaluation: a Hermitian matrix on the P basis."""

    matrix: np.ndarray
    basis: np.ndarray
    z_eval: float
    truncation_order: int | None  # None means the closed resolvent form

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        atol = 100 * config.HERMITICITY_ATOL
        # 1 + |m| >= 1: the norm is needed only when the unscaled test fails
        if dev > atol and dev > atol * (1 + np.linalg.norm(m, 2)):
            raise ValueError("effective Hamiltonian is not Hermitian at real z")
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def self_energy(
    ctx: LevelShiftContext,
    v: Operator,
    z: float,
    mode: str = "closed",
    order: int = 4,
) -> EffectiveHamiltonian:
    """Self-energy of P at z.

    mode "closed" uses the exact resolvent of Q(H+V)Q; mode "series" sums
    the expansion in powers of V through `order` factors of V (order >= 2),
    using the unperturbed G_Q.  The two agree to O(r^(order+1)) * gap.
    """
    bp, bq = ctx.p.basis, ctx.q.basis
    hp = bp.conj().T @ ctx.h.matrix @ bp
    vpp = bp.conj().T @ v.matrix @ bp
    if mode == "closed":
        sigma = hp + vpp
        if bq.shape[1]:  # an empty complement has no resolvent
            vpq = bp.conj().T @ v.matrix @ bq
            m = z * np.eye(bq.shape[1]) - bq.conj().T @ (ctx.h.matrix + v.matrix) @ bq
            try:
                cond = np.linalg.cond(m)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
                raise SingularResolvent(str(exc)) from exc
            if not np.isfinite(cond) or cond > MAX_RESOLVENT_COND:
                raise SingularResolvent(f"resolvent condition number {cond:.3e}")
            sigma = sigma + vpq @ np.linalg.solve(m, vpq.conj().T)
        sigma = (sigma + sigma.conj().T) / 2
        return EffectiveHamiltonian(sigma, bp, z, None)
    if mode != "series":
        raise ValueError("mode must be 'closed' or 'series'")
    if order < 2:
        raise ValueError("series mode needs order >= 2")
    gq = green_function(ctx, z).matrix
    vpfull = v.matrix @ (bp @ bp.conj().T)
    sigma_full = np.zeros_like(gq)
    term = gq @ vpfull  # G_Q V P
    for _ in range(2, order + 1):
        sigma_full += v.matrix @ term  # V (G_Q V)^k P pieces projected below
        term = gq @ (v.matrix @ term)
    sigma = bp.conj().T @ sigma_full @ bp + hp + vpp
    sigma = (sigma + sigma.conj().T) / 2
    return EffectiveHamiltonian(sigma, bp, z, order)


def self_energy_grid(ctx: LevelShiftContext, v: Operator):
    """Closed-form self-energy of P for a whole array of real z.

    Diagonalizes Q(H+V)Q = U diag(w) U^dagger once and returns `sigma_at`,
    which maps an array of z to the stack of P-basis matrices

        Sigma_P(z) = P(H+V)P + C diag(1/(z - w)) C^dagger,   C = PVQ U,

    symmetrized as in `self_energy`.  A z whose resolvent has condition
    number max|z - w| / min|z - w| above MAX_RESOLVENT_COND (or non-finite)
    raises SingularResolvent, the criterion `self_energy` applies with an SVD.
    """
    bp, bq = ctx.p.basis, ctx.q.basis
    base = bp.conj().T @ ctx.h.matrix @ bp + bp.conj().T @ v.matrix @ bp
    if bq.shape[1]:
        w, u = np.linalg.eigh(bq.conj().T @ (ctx.h.matrix + v.matrix) @ bq)
        c = (bp.conj().T @ v.matrix @ bq) @ u

    def sigma_at(zs) -> np.ndarray:
        zs = np.asarray(zs, dtype=float).reshape(-1)
        sigma = np.broadcast_to(base, (zs.size,) + base.shape)
        if bq.shape[1]:
            dist = np.abs(zs[:, None] - w)
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = dist.max(axis=1) / dist.min(axis=1)
            bad = ~(cond <= MAX_RESOLVENT_COND)  # also catches nan
            if np.any(bad):
                k = int(np.argmax(bad))
                raise SingularResolvent(
                    f"resolvent condition number {cond[k]:.3e} at z={zs[k]}"
                )
            sigma = sigma + np.einsum("ik,zk,jk->zij", c, 1.0 / (zs[:, None] - w), c.conj())
        return (sigma + sigma.conj().transpose(0, 2, 1)) / 2

    return sigma_at


def g_sums(xs, omegas, omega_b: float, j: int, z: float, gap: float | None = None):
    """The two rational sums entering the detuning polynomial:

        g_j(z) = sum_{k != j} x_k^2 / (z - omega_k)
        g_0(z) = sum_{k != 0} x_k^2 / (z - (omega_k + omega_b))

    With `gap` given, evaluation closer than gap/4 to a pole raises.
    """
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


@dataclass(frozen=True)
class DetuningSolution:
    """A solved bath detuning for one cooling step."""

    j: int
    omega_b: float
    rabi: float          # effective oscillation half-splitting Omega
    omega_b_star: float  # common diagonal of the effective two-level block
    bracket: tuple[float, float]
    residual: float
    x_ratio: float       # |x_0 / x_j|, reported because large values
                         # degrade the closed-form Rabi rate


def _detuning_function(xs, omegas, j, omega0):
    """The degree L+1 root function in z, with the second sum evaluated at
    the moving bath energy (omega_b = z), which collapses it to the
    constant -sum_{k!=0} x_k^2/omega_k."""
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


def solve_detuning(xs, omegas, j: int, omega0: float, gap: float,
                   tol_scale: float = 1.0) -> DetuningSolution:
    """Root of the level-shift cancellation condition for band j.

    Bisection on (omega_j - gap/4, omega_j + gap/4); the sign change on
    that bracket is guaranteed for r < 1/8.  If it is absent numerically, a
    dense scan of the bracket locates a sign-change subinterval closest to
    omega_j before giving up.  `tol_scale` rescales the solver tolerance
    (used by stability checks).
    """
    xs = np.asarray(xs, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    if j < 1 or j >= len(omegas):
        raise ValueError("band index out of range")
    if xs[0] <= 0 or xs[j] <= 0:
        raise ValueError("need nonzero overlaps x_0 and x_j")
    r = omega0 / gap
    f, g_j, g0_const = _detuning_function(xs, omegas, j, omega0)
    lo = omegas[j] - gap * config.POLE_GUARD_FRACTION
    hi = omegas[j] + gap * config.POLE_GUARD_FRACTION
    bracket = (lo, hi)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        root = lo
    elif fhi == 0.0:
        root = hi
    else:
        if (flo < 0) == (fhi < 0):
            lo, hi = _scan_for_sign_change(f, lo, hi, omegas[j])
            flo = f(lo)
        tol = min(r * omega0 * xs[0] * xs[j], 1e-12 * gap) * tol_scale
        tol = max(tol, 4 * np.finfo(float).eps * max(abs(lo), abs(hi)))
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        root = 0.5 * (lo + hi)
    gj_root = g_j(root)
    denom = 1.0 - omega0 ** 2 * gj_root * g0_const
    rabi = omega0 * xs[0] * xs[j] / denom
    omega_b_star = root + omega0 ** 2 * xs[0] ** 2 * gj_root / denom
    return DetuningSolution(
        j=j,
        omega_b=float(root),
        rabi=float(rabi),
        omega_b_star=float(omega_b_star),
        bracket=bracket,
        residual=float(f(root)),
        x_ratio=float(xs[0] / xs[j]),
    )


def _scan_for_sign_change(f, lo, hi, center, points: int = 2001):
    grid = np.linspace(lo, hi, points)
    values = np.array([f(z) for z in grid])
    signs = np.sign(values)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size == 0:
        raise NoSignChange("no sign change found on the detuning bracket")
    # multiple roots: keep the flip whose midpoint is closest to the band
    mids = 0.5 * (grid[flips] + grid[flips + 1])
    best = flips[np.argmin(np.abs(mids - center))]
    return grid[best], grid[best + 1]


def effective_grover_hamiltonian(xs, omegas, j: int, sol: DetuningSolution) -> EffectiveHamiltonian:
    """The solved two-level block in the {|j,down>, |0,up>} basis: equal
    diagonals omega_B* and off-diagonal Rabi coupling."""
    m = np.array(
        [[sol.omega_b_star, sol.rabi], [sol.rabi, sol.omega_b_star]], dtype=complex
    )
    return EffectiveHamiltonian(m, np.eye(2, dtype=complex), sol.omega_b, None)


@dataclass(frozen=True)
class QutritTruncationReport:
    """Outcome of the second-order truncation identity for the qutrit bath."""

    b_green_norm: float      # norm of <B| G(omega_1) |B> as a system operator
    h_eff: EffectiveHamiltonian
    rabi: float              # off-diagonal coupling <1C| H_eff |0B>
    ground_shift: float      # coefficient of |0B><0B| beyond omega_1
    passed: bool


def qutrit_truncation_check(
    h_s: Operator,
    ground: StateVector,
    band_vectors: np.ndarray,
    omega1: float,
    gap: float,
    t_s: Operator,
) -> QutritTruncationReport:
    """Verify that the qutrit-bath Green's function kills the bright bath
    state at z = omega_1, so the self-energy truncates at second order, and
    return the resulting effective Hamiltonian.

    `band_vectors` are the orthonormal states spanning the addressed band
    P_1; `ground` is the nondegenerate system ground state.
    """
    bath = BathSpec("qutrit", omega1)
    h_full, v = build_bath_and_couplings(h_s, bath, t_s)
    # both terms enter the self-energy separately, so both are checked
    h_full, v = Operator(h_full, hermitian=True), Operator(v, hermitian=True)
    dim_s = h_s.dim
    band = np.asarray(band_vectors, dtype=complex)
    if band.ndim == 1:
        band = band[:, None]

    # P = |0><0| x (|L><L| + |R><R|) + P_1 x |C><C|
    cols = [np.kron(ground.amplitudes, KET_L), np.kron(ground.amplitudes, KET_R)]
    for k in range(band.shape[1]):
        cols.append(np.kron(band[:, k], KET_C))
    p = Subspace(h_full.dim, np.column_stack(cols))
    ctx = make_context(h_full, p, gap, operator_norm(t_s))

    g = green_function(ctx, omega1).matrix
    # compress the bath to |B> on both sides, leaving a system operator
    eye_s = np.eye(dim_s, dtype=complex)
    bra = np.kron(eye_s, KET_B.conj().reshape(1, 3))
    ket = np.kron(eye_s, KET_B.reshape(3, 1))
    m_sys = (bra @ g @ ket).reshape(dim_s, dim_s)
    b_green_norm = float(np.linalg.norm(m_sys, 2))

    h_eff = self_energy(ctx, v, omega1, mode="closed")
    basis = h_eff.basis
    vec_0b = np.kron(ground.amplitudes, KET_B)
    vec_1c = np.kron(band[:, 0], KET_C)
    c0 = basis.conj().T @ vec_0b
    c1 = basis.conj().T @ vec_1c
    rabi = float(np.abs(c1.conj() @ h_eff.matrix @ c0))
    ground_shift = float((c0.conj() @ h_eff.matrix @ c0).real - omega1)
    passed = b_green_norm <= config.RESIDUAL_RTOL
    return QutritTruncationReport(
        b_green_norm=b_green_norm,
        h_eff=h_eff,
        rabi=rabi,
        ground_shift=ground_shift,
        passed=passed,
    )
