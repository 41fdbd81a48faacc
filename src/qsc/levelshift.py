"""Level-shift contexts, self-energy operators, and the bath-detuning
solve.

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

import numpy as np

from . import config
from .errors import DimensionMismatch, NoSignChange, SingularResolvent
from .linalg import Operator, _Frozen, _setattr, operator_norm

__all__ = [
    "LevelShiftContext",
    "DetuningSolution",
    "make_context",
    "self_energy",
    "self_energy_grid",
    "solve_detuning",
]


# Largest resolvent condition number a closed-form self-energy accepts.
MAX_RESOLVENT_COND = 1e14


class LevelShiftContext(_Frozen):
    """A Hamiltonian resolved into a near-resonant subspace P and its
    complement Q, each given by an orthonormal basis (the columns of `p`
    and `q`), with the protecting gap attached."""

    __slots__ = ("h", "p", "q", "gap")

    def __init__(self, h: Operator, p: np.ndarray, q: np.ndarray, gap: float):
        _setattr(self, "h", h)
        _setattr(self, "p", p)
        _setattr(self, "q", q)
        _setattr(self, "gap", gap)


def make_context(h: Operator, p: np.ndarray, q: np.ndarray, gap: float) -> LevelShiftContext:
    """Build and validate a context from orthonormal bases of P and Q (say,
    the eigenvectors of H inside and outside a window): both with one row
    per basis state of H, P and Q orthogonal and filling the space, H
    block-diagonal across them, spectra separated by at least the gap."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    dim = h.dim
    for name, basis in (("P", p), ("Q", q)):
        if basis.ndim != 2 or basis.shape[0] != dim:
            raise DimensionMismatch(f"{name} basis shape {basis.shape} vs dim {dim}")
    rank_p, rank_q = p.shape[1], q.shape[1]
    if rank_p and rank_q and np.max(np.abs(p.conj().T @ q)) > config.GRAM_ATOL:
        raise ValueError("P and Q are not orthogonal")
    if rank_p + rank_q != dim:
        raise DimensionMismatch("P and Q do not fill the space")
    cross = p.conj().T @ h.matrix @ q
    dev = np.max(np.abs(cross)) if cross.size else 0.0
    # 1 + |H| >= 1: the norm is needed only when the unscaled test fails
    if dev > config.PROJECTOR_ATOL and dev > config.PROJECTOR_ATOL * (1 + operator_norm(h)):
        raise ValueError("H is not block-diagonal across P and Q")
    spec_p = np.linalg.eigvalsh(p.conj().T @ h.matrix @ p) if rank_p else np.array([])
    spec_q = np.linalg.eigvalsh(q.conj().T @ h.matrix @ q) if rank_q else np.array([])
    if spec_p.size and spec_q.size:
        sep = np.min(np.abs(spec_p[:, None] - spec_q[None, :]))
        if sep < gap * (1 - config.RESIDUAL_RTOL):
            raise ValueError(f"P/Q spectra separated by {sep:.3e} < gap {gap:.3e}")
    return LevelShiftContext(h=h, p=p, q=q, gap=gap)


def self_energy(ctx: LevelShiftContext, v: Operator, z: float) -> np.ndarray:
    """Self-energy of P at z as a matrix on the P basis `ctx.p`,
    symmetrized to (sigma + sigma^+)/2, so exactly Hermitian.  It takes the
    exact resolvent of Q(H+V)Q: one linear solve, refused
    (SingularResolvent) when the resolvent's condition number is
    non-finite or above MAX_RESOLVENT_COND."""
    bp, bq = ctx.p, ctx.q
    sigma = bp.conj().T @ ctx.h.matrix @ bp + bp.conj().T @ v.matrix @ bp
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
    return (sigma + sigma.conj().T) / 2


def self_energy_grid(ctx: LevelShiftContext, v: Operator):
    """Closed-form self-energy of P for a whole array of real z.

    Diagonalizes Q(H+V)Q = U diag(w) U^dagger once and returns `sigma_at`,
    which maps an array of z to the stack of P-basis matrices

        Sigma_P(z) = P(H+V)P + C diag(1/(z - w)) C^dagger,   C = PVQ U,

    symmetrized as in `self_energy`.  A z whose resolvent has condition
    number max|z - w| / min|z - w| above MAX_RESOLVENT_COND (or non-finite)
    raises SingularResolvent, the criterion `self_energy` applies with an SVD.
    """
    bp, bq = ctx.p, ctx.q
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


class DetuningSolution(_Frozen):
    """A solved bath detuning for one cooling step: the bath energy
    `omega_b`, the effective oscillation half-splitting `rabi` (Omega), the
    common diagonal `omega_b_star` of the effective two-level block, the
    bisection `bracket` and the root function's `residual` there, and
    `x_ratio` = |x_0 / x_j|, reported because large values degrade the
    closed-form Rabi rate."""

    __slots__ = ("j", "omega_b", "rabi", "omega_b_star", "bracket", "residual", "x_ratio")

    def __init__(self, j: int, omega_b: float, rabi: float, omega_b_star: float,
                 bracket: tuple[float, float], residual: float, x_ratio: float):
        _setattr(self, "j", j)
        _setattr(self, "omega_b", omega_b)
        _setattr(self, "rabi", rabi)
        _setattr(self, "omega_b_star", omega_b_star)
        _setattr(self, "bracket", bracket)
        _setattr(self, "residual", residual)
        _setattr(self, "x_ratio", x_ratio)


def _detuning_function(xs, omegas, j, omega0):
    """The degree L+1 root function in z, with the second sum evaluated at
    the moving bath energy (omega_b = z), which collapses it to the
    constant -sum_{k!=0} x_k^2/omega_k."""
    xs = np.asarray(xs, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    g0_const = -float(np.sum(xs[1:] ** 2 / omegas[1:]))
    others_x2, others = np.delete(xs, j) ** 2, np.delete(omegas, j)

    def g_j(z):
        return float(np.sum(others_x2 / (z - others)))

    def f(z):
        gj = g_j(z)
        return (1.0 - omega0 ** 2 * gj * g0_const) * (z - omegas[j]) + omega0 ** 2 * (
            xs[0] ** 2 * gj - xs[j] ** 2 * g0_const
        )

    return f, g_j, g0_const


def solve_detuning(xs, omegas, j: int, omega0: float, gap: float) -> DetuningSolution:
    """Root of the level-shift cancellation condition for band j.

    Bisection on (omega_j - gap/4, omega_j + gap/4); the sign change on
    that bracket is guaranteed for r < 1/8.  If it is absent numerically, a
    dense scan of the bracket locates a sign-change subinterval closest to
    omega_j before giving up.
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
        tol = min(r * omega0 * xs[0] * xs[j], 1e-12 * gap)
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
