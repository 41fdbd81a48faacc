"""Level-shift contexts, self-energy operators, and the bath-detuning
solve.

The central object is the self-energy of a near-resonant subspace P:

    Sigma_P(z) = P H P + P V P + P V Q (z - Q(H+V)Q)^{-1} Q V P

evaluated at real z away from the complement's spectrum.  `self_energy`
returns its one evaluator: the same linear solve at one z or a whole array
of z, refused near a pole by one condition rule read off the spectrum of
Q(H+V)Q.  When P is the whole space there is no complement and
Sigma_P(z) = P(H+V)P.

For the cooling protocols, P is the two-dimensional span of the addressed
band state with the bath down and the ground state with the bath up;
equalizing the diagonal of Sigma_P at z = omega_B fixes the corrected bath
detuning.

H and V are plain arrays (stacks where it says so) that the caller knows
to be Hermitian; no function here takes an `Operator`.
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import DimensionMismatch, NoSignChange, SingularResolvent
from .linalg import _Frozen, _hermitian_part, operator_norm

# Largest resolvent condition number a closed-form self-energy accepts.
MAX_RESOLVENT_COND = 1e14


class LevelShiftContext(_Frozen):
    """A Hamiltonian resolved into a near-resonant subspace P and its
    complement Q, each given by an orthonormal basis (the columns of `p`
    and `q`), or a stack of them: then `h` is a stack of matrices (an
    array with a leading axis) and `p` and `q` are stacks of bases of one
    rank each.  `h` is a plain array."""

    __slots__ = ("h", "p", "q")


def make_context(h: np.ndarray, p: np.ndarray, q: np.ndarray,
                 gap: float) -> LevelShiftContext:
    """Build and validate a context from orthonormal bases of P and Q (say,
    the eigenvectors of H inside and outside a window): both with one row
    per basis state of H, P and Q orthogonal and filling the space, H
    block-diagonal across them, spectra separated by at least the gap.

    H is a Hermitian matrix, or a stack of them (a (k, n, n) array) with
    stacks of bases (k, n, rank); every test then holds for each matrix of
    the stack, from one batched product or eigvalsh each, and one that
    fails for any matrix fails the whole context."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    dim = h.shape[-1]
    for name, basis in (("P", p), ("Q", q)):
        if basis.shape[:-1] != h.shape[:-1]:
            raise DimensionMismatch(f"{name} basis shape {basis.shape} vs H {h.shape}")
    rank_p, rank_q = p.shape[-1], q.shape[-1]
    if rank_p and rank_q and np.max(np.abs(p.conj().mT @ q)) > config.GRAM_ATOL:
        raise ValueError("P and Q are not orthogonal")
    if rank_p + rank_q != dim:
        raise DimensionMismatch("P and Q do not fill the space")
    cross = p.conj().mT @ h @ q
    dev = np.max(np.abs(cross), axis=(-2, -1), initial=0.0)
    # 1 + |H| >= 1: the norm is needed only where the unscaled test fails
    over = dev > config.PROJECTOR_ATOL
    if np.any(over) and np.any(dev[over] > config.PROJECTOR_ATOL * (1 + operator_norm(h[over]))):
        raise ValueError("H is not block-diagonal across P and Q")
    if rank_p and rank_q:
        spec_p = np.linalg.eigvalsh(p.conj().mT @ h @ p)
        spec_q = np.linalg.eigvalsh(q.conj().mT @ h @ q)
        sep = np.min(np.abs(spec_p[..., :, None] - spec_q[..., None, :]))
        if sep < gap * (1 - config.RESIDUAL_RTOL):
            raise ValueError(f"P/Q spectra separated by {sep:.3e} < gap {gap:.3e}")
    return LevelShiftContext(h=h, p=p, q=q)


def self_energy(ctx: LevelShiftContext, v: np.ndarray):
    """The self-energy of P as `sigma_at`, which maps a real z to its
    matrix on the P basis `ctx.p`, or an array of z to the stack of them.

    PHP + PVP, M = Q(H+V)Q, M's spectrum w and PVQ are formed once; each call
    takes one batched linear solve of (z - M) X = QVP and symmetrizes the
    result to (sigma + sigma^+)/2, so exactly Hermitian.  A z whose
    resolvent has condition number max|z - w| / min|z - w| (the 2-norm
    condition number of the Hermitian z - M) above MAX_RESOLVENT_COND, or
    non-finite, raises SingularResolvent.

    On a stacked context, V is a stack of the same shape, and z holds one
    z per context (shape (k,)) or one row of them per context (shape
    (k, m)); `sigma_at(z, rows)` evaluates the contexts `rows` alone (an
    index array into the stack), with z shaped for them.
    """
    h, bp, bq = ctx.h, ctx.p, ctx.q
    base = bp.conj().mT @ h @ bp + bp.conj().mT @ v @ bp
    if bq.shape[-1]:  # an empty complement has no resolvent
        m = bq.conj().mT @ (h + v) @ bq
        w = np.linalg.eigvalsh(m)
        vpq = bp.conj().mT @ v @ bq

    def sigma_at(z, rows=...) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        b = base[rows]
        zs = z.reshape(b.shape[:-2] + (-1,))
        sigma = np.broadcast_to(b[..., None, :, :], zs.shape + b.shape[-2:])
        if bq.shape[-1]:
            dist = np.abs(zs[..., None] - w[rows][..., None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = dist.max(axis=-1) / dist.min(axis=-1)
            bad = ~(cond <= MAX_RESOLVENT_COND)  # also catches nan
            if np.any(bad):
                at = np.unravel_index(np.argmax(bad), bad.shape)
                raise SingularResolvent(
                    f"resolvent condition number {cond[at]:.3e} at z={zs[at]}"
                )
            coupling = vpq[rows][..., None, :, :]
            shifted = zs[..., None, None] * np.eye(bq.shape[-1]) - m[rows][..., None, :, :]
            sigma = sigma + coupling @ np.linalg.solve(shifted, coupling.conj().mT)
        return _hermitian_part(sigma).reshape(z.shape + b.shape[-2:])

    return sigma_at


def _detuning_function(xs, omegas, j, omega0):
    """The degree L+1 root function in z, with the second sum evaluated at
    the moving bath energy (omega_b = z), which collapses it to the
    constant -sum_{k!=0} x_k^2/omega_k."""
    xs = np.asarray(xs, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    g0_const = -float(np.sum(xs[1:] ** 2 / omegas[1:]))
    others_x2, others = np.delete(xs, j) ** 2, np.delete(omegas, j)

    def f(z):
        gj = float(np.sum(others_x2 / (z - others)))
        return (1.0 - omega0 ** 2 * gj * g0_const) * (z - omegas[j]) + omega0 ** 2 * (
            xs[0] ** 2 * gj - xs[j] ** 2 * g0_const
        )

    return f


def solve_detuning(xs, omegas, j: int, omega0: float, gap: float) -> float:
    """The bath energy omega_b of band j: the root of the level-shift
    cancellation condition.

    Bisection on (omega_j - gap/4, omega_j + gap/4).  For r = omega0/gap <
    1/8 that bracket holds a sign change: at its ends the first term of the
    root function has size >= 0.24 gap and the second at most 7 r^2 gap / 3
    < 0.04 gap.  Without one the solve raises NoSignChange.
    """
    xs = np.asarray(xs, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    if j < 1 or j >= len(omegas):
        raise ValueError("band index out of range")
    if xs[0] <= 0 or xs[j] <= 0:
        raise ValueError("need nonzero overlaps x_0 and x_j")
    r = omega0 / gap
    f = _detuning_function(xs, omegas, j, omega0)
    lo = omegas[j] - gap * config.POLE_GUARD_FRACTION
    hi = omegas[j] + gap * config.POLE_GUARD_FRACTION
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if (flo < 0) == (fhi < 0):
        raise NoSignChange("no sign change found on the detuning bracket")
    tol = min(r * omega0 * xs[0] * xs[j], 1e-12 * gap)
    tol = max(tol, 4 * np.finfo(float).eps * max(abs(lo), abs(hi)))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return float(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return float(0.5 * (lo + hi))
