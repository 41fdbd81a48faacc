"""Executable, falsifiable forms of the perturbation bounds.

Every checker verifies its hypotheses numerically before asserting the
bound: instances failing the hypotheses raise HypothesisUnmet and are
recorded as vacuous by the suite runner, never as passes.  Randomized
instance generators draw Gaussian Hermitian matrices and then move
eigenvalue clusters to enforce the required windows and gaps, so the main
suites satisfy hypotheses by construction.

A suite runs in blocks of instances, each one stack: its instances are
drawn, built and checked as (k, n, n) arrays, with one batched LAPACK call
per step for the whole block.  Instance i draws from its own
`models.Stream`, seeded by word i of the master seed's stream; a block
draws its own seed words, and its instances' streams as one stack.  In a
stack, an instance whose hypothesis fails is set aside with the
HypothesisUnmet that is its outcome, and takes no later step.  Each bound
has one checker: it takes stacks (one instance is a stack of one) of plain
arrays, built exactly Hermitian (`linalg`), and returns one outcome per
instance.  Only a replayed dump's matrices come from outside the code
that built them: `replay_instance` validates each as an `Operator`.
"""

from __future__ import annotations

import inspect
import json
import math
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import config
from .errors import HypothesisUnmet
from .levelshift import make_context, self_energy, solve_detuning
from .linalg import Operator, _Frozen, _hermitian_part, _setattr, evolve, operator_norm
from .models import KET_B, KET_C, KET_DOWN, KET_L, ClockModel, GroverModel, Stream
from .cooling import (
    CoolingSetup,
    clock_setup,
    extension_gap,
    grover_setup,
    _exact_step,
    _qutrit_hamiltonians,
    _rabi_rate,
)

_SLACK = 1e-9  # numerical floor on bound margins


class CheckResult(_Frozen):
    """A checker's verdict, its bound margins and the details of the
    instance (a new empty dict unless given)."""

    __slots__ = ("passed", "margins", "details")
    _DEFAULTS = {"details": None}

    def __post_init__(self):
        if self.details is None:
            _setattr(self, "details", {})


class BoundInstance(_Frozen):
    """A stack of instances for the window-based checks: Hamiltonians H
    and perturbations V, as (k, n, n) plain arrays of one shape, each
    matrix Hermitian, on one spectral window (lo, hi) and one protecting
    gap.  A stack of other shapes, a window that is not finite with lo <
    hi, or a gap that is not finite and > 0 is a ValueError.

    H + V (`h_tilde`, as Hermitian as H and V are, see `linalg`), |V| and
    the eigendecompositions of H and H + V (`np.linalg.eigh` pairs) are
    computed once per stack, each by one batched call, and shared by every
    checker that reads them (cached in the `__dict__`); indexing a stack
    (`inst[rows]`) hands what is computed on to the sub-stack.
    """

    __slots__ = ("h", "v", "window", "gap", "__dict__")

    def __post_init__(self):
        shape = np.shape(self.h)
        if not (len(shape) == 3 and shape[1] == shape[2] and np.shape(self.v) == shape):
            raise ValueError(f"h and v must be (k, n, n) stacks of one shape, got "
                             f"{shape} and {np.shape(self.v)}")
        lo, hi = self.window
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"the window must be finite with lo < hi, got {self.window}")
        if not 0 < self.gap < math.inf:
            raise ValueError(f"the gap must be finite and > 0, got {self.gap}")

    @cached_property
    def h_tilde(self) -> np.ndarray:
        return self.h + self.v

    @cached_property
    def v_norm(self):
        return operator_norm(self.v)

    @cached_property
    def h_eig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.h)

    @cached_property
    def h_tilde_eig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.h_tilde)

    def __getitem__(self, rows) -> BoundInstance:
        """The sub-stack of the instances of a stack that `rows` selects (an
        index array or a mask), with everything already computed for
        them."""
        sub = BoundInstance(h=self.h[rows], v=self.v[rows], window=self.window, gap=self.gap)
        for key, value in self.__dict__.items():
            sub.__dict__[key] = (tuple(a[rows] for a in value) if isinstance(value, tuple)
                                 else value[rows])
        return sub


def _set_aside(outcomes: list, rows: np.ndarray, unmet: np.ndarray, reason, *arrays) -> tuple:
    """Record HypothesisUnmet(reason) as the outcome of each instance
    rows[j] with unmet[j] (`reason` is the message, or a function of j that
    gives it).  Returns the rows that go on, then each of `arrays` (one
    entry per row, a stack among them) cut to them."""
    for j in np.flatnonzero(unmet):
        outcomes[rows[j]] = HypothesisUnmet(reason(j) if callable(reason) else reason)
    return tuple(a[~unmet] for a in (rows, *arrays))


def _record(outcomes: list, rows: np.ndarray, passed, margins, **details) -> None:
    """Record the CheckResult of each instance rows[j]: passed[j], the
    margins margins[j] (a number or a row) and the j-th entry of each
    detail."""
    for j, i in enumerate(rows):
        outcomes[i] = CheckResult(
            passed=bool(passed[j]), margins=tuple(np.ravel(margins[j]).tolist()),
            details={key: value[j].item() for key, value in details.items()},
        )


def _window(eig: tuple[np.ndarray, np.ndarray], lo: float, hi: float):
    """The eigenvectors of an eigendecomposition (w, v) with eigenvalue
    strictly inside (lo, hi), as columns, and the mask that selects them."""
    w, v = eig
    mask = (w > lo) & (w < hi)
    return v[:, mask], mask


def _by_pattern(masks: np.ndarray):
    """The rows of a stack of masks grouped by their mask, as (rows, mask)
    pairs: a group's bases gather the same columns, so they stack."""
    patterns, which = np.unique(masks, axis=0, return_inverse=True)
    return [(np.flatnonzero(which == g), pattern) for g, pattern in enumerate(patterns)]


def _norm2(m: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of a stack (0 for empty ones)."""
    return np.linalg.norm(m, 2, axis=(-2, -1)) if m.size else np.zeros(m.shape[:-2])


# ---------------------------------------------------------------------------
# Elementary checkers
# ---------------------------------------------------------------------------

def check_weyl(h: np.ndarray, h_tilde: np.ndarray) -> list:
    """Sorted eigenvalues of two Hermitian matrices never differ by more
    than the norm of their difference: of each pair of stacks of H and H~."""
    outcomes = [None] * len(h)
    shifts = np.abs(np.linalg.eigvalsh(h) - np.linalg.eigvalsh(h_tilde))
    bound = operator_norm(h - h_tilde)[:, None]
    margins = bound - shifts
    _record(outcomes, np.arange(len(h)), np.all(margins >= -1e-10 * (1 + bound), axis=-1),
            margins, norm_diff=bound[:, 0])
    return outcomes


def check_sylvester(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> list:
    """|X| <= |AX - XB| / beta for Hermitian A, B whose spectra are
    separated: |A| <= alpha and |B^{-1}| <= 1/(alpha + beta), beta > 0; of
    each instance of stacks of A, B and X."""
    outcomes = [None] * len(a)
    alpha = operator_norm(a)
    sv = np.linalg.svd(b, compute_uv=False)[:, -1]
    rows, a, b, x, alpha, sv = _set_aside(outcomes, np.arange(len(a)), sv <= 0, "B is singular",
                                          a, b, x, alpha, sv)
    beta = sv - alpha
    rows, a, b, x, alpha, beta = _set_aside(outcomes, rows, beta <= 0, lambda j: (
        f"spectral separation fails: min sv(B) = {sv[j]:.3e} <= |A| = {alpha[j]:.3e}"),
        a, b, x, alpha, beta)
    lhs = _norm2(x)
    margin = _norm2(a @ x - x @ b) / beta - lhs
    _record(outcomes, rows, margin >= -_SLACK * (1 + lhs), margin, alpha=alpha, beta=beta)
    return outcomes


def check_block_resolvent(a: np.ndarray, b: np.ndarray, split: int) -> list:
    """Invertibility of A - B and the three block-norm bounds on its
    inverse, for A block-diagonal across a split of the space: of each
    instance of stacks of A and B, on one split."""
    dim = a.shape[-1]
    if not (0 < split < dim):
        raise ValueError("split must cut the space into two nonempty blocks")
    s1 = slice(0, split)
    s2 = slice(split, dim)
    outcomes = [None] * len(a)
    off = np.max(np.abs(a[:, s1, s2]), axis=(-2, -1))
    rows, a, b = _set_aside(outcomes, np.arange(len(a)),
                            off > config.HERMITICITY_ATOL * (1 + operator_norm(a)),
                            "A is not block-diagonal across the split", a, b)
    g1, g2 = (np.linalg.svd(a[:, s, s], compute_uv=False)[:, -1] for s in (s1, s2))
    rows, a, b, g1, g2 = _set_aside(outcomes, rows, (g1 <= 0) | (g2 <= 0),
                                    "a diagonal block of A is singular", a, b, g1, g2)
    b11, b22, b12 = (_norm2(b[:, s, t]) for s, t in ((s1, s1), (s2, s2), (s1, s2)))
    fits = (b11 < g1 / 2) & (b22 < g2 / 2) & (b12 < np.minimum(g1, g2) / 2)
    rows, a, b, g1, g2, b11, b22, b12 = _set_aside(outcomes, rows, ~fits, lambda j: (
        f"block norms exceed half-gaps: b11={b11[j]:.3e}, b22={b22[j]:.3e}, "
        f"b12={b12[j]:.3e} vs G1={g1[j]:.3e}, G2={g2[j]:.3e}"), a, b, g1, g2, b11, b22, b12)
    diff = a - b
    singular = np.linalg.svd(diff, compute_uv=False)[:, -1] <= 0
    for i in rows[singular]:
        outcomes[i] = CheckResult(False, (-1.0,),
                                  details={"reason": "A - B singular despite hypotheses"})
    rows, diff, g1, g2, b11, b22, b12 = (v[~singular] for v in (rows, diff, g1, g2, b11, b22, b12))
    inv = np.linalg.inv(diff)
    n12, n11, n22 = (_norm2(inv[:, s, t]) for s, t in ((s1, s2), (s1, s1), (s2, s2)))
    margins = np.stack([b12 / ((g1 - b11) * (g2 - b22) - b12 ** 2) - n12,
                        (1 + b12 * n12) / (g1 - b11) - n11,
                        (1 + b12 * n12) / (g2 - b22) - n22], axis=-1)
    scale = 1 + np.maximum(np.maximum(n11, n22), n12)
    _record(outcomes, rows, np.all(margins >= -_SLACK * scale[:, None], axis=-1), margins,
            G1=g1, G2=g2, b11=b11, b22=b22, b12=b12)
    return outcomes


# ---------------------------------------------------------------------------
# Window-based checkers
# ---------------------------------------------------------------------------

def _sigma_grid_bound(sigma_at, h_eff, lo, hi):
    """sup over z in [lo, hi] of |Sigma_P(z) - H_eff|, for an interval that
    holds no pole w of Sigma_P (an eigenvalue of Q(H+V)Q); of a stack of
    contexts, with H_eff, lo and hi stacked alike, one sup per context.
    There D(z) = Sigma_P(z) - H_eff has derivative -C diag((z - w)^-2)
    C^dagger <= 0 (C = PVQ U, U the eigenvectors of Q(H+V)Q), so D
    decreases in the Loewner order: lambda_max(D) falls, -lambda_min(D)
    rises, and the supremum of |D| = max(lambda_max, -lambda_min) is
    max(|D(lo)|, |D(hi)|), one eigvalsh of the two ends of every context."""
    ends = sigma_at(np.stack([lo, hi], axis=-1)) - h_eff[..., None, :, :]
    return np.max(np.abs(np.linalg.eigvalsh(ends)), axis=(-2, -1))


def _closeness_radius(sigma_at, h_eff: np.ndarray, spec: np.ndarray, window):
    """Per context of a stack, a self-consistent closeness radius gamma:
    gamma bounds |Sigma_P(z) - H_eff| over [c-gamma, d+gamma], [c, d] the
    span of H_eff's spectrum `spec`.  Each sweep is one `_sigma_grid_bound`
    of the contexts still iterating, and a context stops where its own run
    would: when its radius settles, after 8 sweeps, or when its swept
    interval does not lie strictly inside the window.  Returns the radii
    and the mask of the contexts whose interval escaped."""
    lam_lo, lam_hi = window
    c, d = spec[:, 0], spec[:, -1]
    gamma = np.zeros(len(spec))
    escaped = np.zeros(len(spec), dtype=bool)

    def sweep(rows, lo, hi):
        out = (lo <= lam_lo) | (hi >= lam_hi)
        escaped[rows[out]] = True
        rows = rows[~out]
        if not rows.size:
            return rows, np.zeros(0)
        return rows, _sigma_grid_bound(partial(sigma_at, rows=rows), h_eff[rows],
                                       lo[~out], hi[~out])

    rows, bound = sweep(np.arange(len(spec)), c, d)
    gamma[rows] = np.maximum(1e-15, bound)
    for _ in range(8):
        rows, bound = sweep(rows, c[rows] - gamma[rows], d[rows] + gamma[rows])
        new = bound * (1.0 + 1e-6)  # strict inequality headroom
        settled = new <= gamma[rows] * (1 + 1e-9)
        gamma[rows] = np.where(settled, np.maximum(gamma[rows], new), new)
        rows = rows[~settled]
    return gamma, escaped


def _effective_hamiltonians(inst: BoundInstance, outcomes: list) -> list:
    """Self-energies at the window centers, their spectra (ascending), and
    the closeness radii gamma (`_closeness_radius`), for the instances of a
    stack that meet the hypotheses; the rest get their HypothesisUnmet in
    `outcomes`.

    The self-energy theorem's hypotheses come first: no eigenvalue of H in
    a window collar, then |V| < gap/2; and every swept interval must lie
    strictly inside the window.  Then no swept interval holds a pole: H's
    spectrum outside the window lies beyond the collars, more than gap/2
    away, and |QVQ| <= |V| < gap/2, so by Weyl's inequality no eigenvalue
    of Q(H+V)Q lies inside the window.

    Returns one tuple (rows, sub, p, h_eff, gamma, spec) per window pattern
    of H (`_by_pattern`): the instances' rows in the stack, their
    sub-stack, P bases, H_eff, radii and spectra."""
    lam_lo, lam_hi = inst.window
    gap = inst.gap
    evals = inst.h_eig[0]
    collar = np.zeros(len(evals), dtype=bool)
    for edge in (lam_lo, lam_hi):
        collar |= np.any((evals >= edge - gap / 2) & (evals <= edge + gap / 2), axis=-1)
    rows, inst = _set_aside(outcomes, np.arange(len(evals)), collar,
                            "H has eigenvalues inside a window collar", inst)
    rows, inst = _set_aside(outcomes, rows, inst.v_norm >= gap / 2, "|V| >= gap/2", inst)
    masks = (inst.h_eig[0] > lam_lo) & (inst.h_eig[0] < lam_hi)
    rows, inst, masks = _set_aside(outcomes, rows, ~masks.any(axis=-1),
                                   "window contains no eigenvalues of H", inst, masks)
    groups = []
    for sel, mask in _by_pattern(masks):
        sub = inst[sel]
        vecs = sub.h_eig[1]
        ctx = make_context(sub.h, vecs[..., mask], vecs[..., ~mask], gap)
        sigma_at = self_energy(ctx, sub.v)
        h_eff = sigma_at(np.mean(sub.h_eig[0][:, mask], axis=-1))
        spec = np.linalg.eigvalsh(h_eff)
        gamma, escaped = _closeness_radius(sigma_at, h_eff, spec, inst.window)
        groups.append(_set_aside(outcomes, rows[sel], escaped,
                                 "closeness interval escapes the window",
                                 sub, ctx.p, h_eff, gamma, spec))
    return groups


def check_spectral_correspondence(inst: BoundInstance) -> list:
    """Pairwise eigenvalue correspondence, for each instance of a stack:
    the self-energy's spectrum tracks the perturbed Hamiltonian's window
    spectrum to within the closeness radius gamma."""
    outcomes = [None] * len(inst.h)
    for rows, sub, _, _, gamma, spec in _effective_hamiltonians(inst, outcomes):
        w = sub.h_tilde_eig[0]
        masks = (w > inst.window[0]) & (w < inst.window[1])
        for j, i in enumerate(rows):
            eff_vals, tilde_vals = spec[j], w[j][masks[j]]
            if len(eff_vals) != len(tilde_vals):
                outcomes[i] = CheckResult(
                    False, (-1.0,),
                    details={"reason": "window eigenvalue count mismatch",
                             "dim_eff": len(eff_vals), "dim_tilde": len(tilde_vals)},
                )
                continue
            margins = gamma[j] - np.abs(eff_vals - tilde_vals)
            outcomes[i] = CheckResult(
                passed=bool(np.all(margins >= -_SLACK * (1 + gamma[j]))),
                margins=tuple(margins.tolist()),
                details={"gamma": float(gamma[j]),
                         "spec_range": (float(eff_vals[0]), float(eff_vals[-1]))},
            )
    return outcomes


def _mutual_overlap(a: np.ndarray, b: np.ndarray, bound: float, **details) -> CheckResult:
    """The verdict that two orthonormal column sets capture each other to
    `bound`: its margins are <v|P_b|v> - bound for each column v of a, then
    <v|P_a|v> - bound for each column v of b (P_a, P_b the projectors onto
    the spans), the row sums, then the column sums, of |a^+ b|^2.  Its
    details are `details` and the bound."""
    overlaps = np.abs(a.conj().T @ b) ** 2
    margins = tuple(float(m) - bound for m in np.concatenate([overlaps.sum(1), overlaps.sum(0)]))
    return CheckResult(passed=bool(all(m >= -_SLACK for m in margins)), margins=margins,
                       details={**details, "bound": bound})


def check_subspace_overlap(inst: BoundInstance) -> list:
    """Eigenvectors of the perturbed Hamiltonian stay in the unperturbed
    window subspace up to (2|H - H~|/Delta)^2, in both directions, for each
    instance of a stack."""
    outcomes = [None] * len(inst.h)
    lam_lo, lam_hi = inst.window
    gap = inst.gap
    evals = inst.h_eig[0]
    in_win = (evals >= lam_lo + gap / 2) & (evals <= lam_hi - gap / 2)
    out_win = (evals <= lam_lo - gap / 2) | (evals >= lam_hi + gap / 2)
    rows, inst, in_win, out_win = _set_aside(
        outcomes, np.arange(len(evals)), ~in_win.any(axis=-1), "no spectrum in the inner window",
        inst, in_win, out_win)
    rows, inst = _set_aside(outcomes, rows, ~(in_win | out_win).all(axis=-1),
                            "spectrum found inside a window collar", inst)
    bound = 1.0 - (2 * inst.v_norm / gap) ** 2
    (w, v), (w_tilde, v_tilde) = inst.h_eig, inst.h_tilde_eig
    for j, i in enumerate(rows):
        outcomes[i] = _mutual_overlap(_window((w_tilde[j], v_tilde[j]), lam_lo, lam_hi)[0],
                                      _window((w[j], v[j]), lam_lo, lam_hi)[0], float(bound[j]))
    return outcomes


def check_corollaries(inst: BoundInstance) -> list:
    """The two band-overlap consequences, for each instance of a stack.

    First: a well-resolved eigenspace of the effective Hamiltonian captures
    the corresponding perturbed eigenvectors.  Second, for the instances
    the first does not set aside: for a multi-band resolved Hamiltonian the
    window subspaces capture each other's vectors with an extra factor of
    the band count.
    """
    outcomes = [None] * len(inst.h)
    lam_lo, lam_hi = inst.window
    for rows, sub, p, h_eff, gamma, _ in _effective_hamiltonians(inst, outcomes):
        eff_vals, eff_vecs = np.linalg.eigh(h_eff)
        # isolate the top eigenvalue of H_eff (nu = 0 for a single vector)
        nu = 0.0
        eta = (eff_vals[:, -1] - eff_vals[:, -2] if eff_vals.shape[-1] > 1
               else np.full(len(rows), np.inf))
        rows, sub, p, eff_vecs, eta, gamma = _set_aside(outcomes, rows, eta <= gamma, lambda j: (
            f"eigenspace resolution eta={eta[j]:.3e} <= gamma={gamma[j]:.3e}"),
            sub, p, eff_vecs, eta, gamma)
        bound = (1 - (2 * sub.v_norm / sub.gap) ** 2) * (
            1 - ((2 * gamma + nu) / (eta - gamma)) ** 2
        )
        w_tilde, v_tilde = sub.h_tilde_eig
        multiband = _multiband_overlap(sub)
        for j, i in enumerate(rows):
            if isinstance(multiband[j], HypothesisUnmet):
                outcomes[i] = multiband[j]
                continue
            # eigenvalue correspondence pairs the largest with the largest:
            # H_eff's top eigenvector, lifted by P, against H~'s top window
            # eigenvector
            u_top = p[j] @ eff_vecs[j][:, -1]
            v_top = _window((w_tilde[j], v_tilde[j]), lam_lo, lam_hi)[0][:, -1]
            margin = float(np.abs(u_top.conj() @ v_top) ** 2) - float(bound[j])
            isolated = {"gamma": float(gamma[j]), "eta": float(eta[j]), "bound": float(bound[j])}
            outcomes[i] = CheckResult(
                passed=bool(margin >= -_SLACK) and multiband[j].passed,
                margins=(margin,) + multiband[j].margins,
                details={"isolated": isolated, "multiband": multiband[j].details},
            )
    return outcomes


def _band_windows(evals: np.ndarray, gap: float):
    """Group sorted eigenvalues into bands separated by at least gap."""
    bands = [[evals[0]]]
    for e in evals[1:]:
        if e - bands[-1][-1] >= gap:
            bands.append([e])
        else:
            bands[-1].append(e)
    return bands


def _multiband_overlap(inst: BoundInstance) -> list:
    """The second corollary on a stack."""
    outcomes = [None] * len(inst.h)
    lam_lo, lam_hi = inst.window
    gap = inst.gap
    evals, evecs = inst.h_eig
    masks = (evals > lam_lo) & (evals < lam_hi)
    # the least distance from a window eigenvalue to one outside it
    across = masks[:, :, None] & ~masks[:, None, :]
    sep = np.min(np.where(across, np.abs(evals[:, :, None] - evals[:, None, :]), np.inf),
                 axis=(-2, -1))
    rows, inst, masks, evals, evecs, sep = _set_aside(
        outcomes, np.arange(len(evals)), ~masks.any(axis=-1), "no spectrum in the window",
        inst, masks, evals, evecs, sep)
    rows, inst, masks, evals, evecs = _set_aside(
        outcomes, rows, sep < gap * (1 - config.RESIDUAL_RTOL),
        "window spectrum not gap-separated from the rest", inst, masks, evals, evecs)
    w_tilde, v_tilde = inst.h_tilde_eig
    for j, i in enumerate(rows):
        bands = _band_windows(evals[j][masks[j]], gap)
        bound = 1.0 - len(bands) * (2 * float(inst.v_norm[j]) / gap) ** 2
        # perturbed band subspaces from per-band windows
        tilde = np.column_stack([
            _window((w_tilde[j], v_tilde[j]), band[0] - gap / 2, band[-1] + gap / 2)[0]
            for band in bands
        ])
        outcomes[i] = _mutual_overlap(evecs[j][:, masks[j]], tilde, bound, bands=len(bands))
    return outcomes


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------
#
# Each draws from a stack of streams (a `Stream` of a seed array): one
# matrix per stream, bit for bit the matrix that stream alone gives.

def gaussian_hermitian(stream: Stream, dim: int, scale=1.0) -> np.ndarray:
    """A Gaussian Hermitian matrix, as a plain array (exactly Hermitian);
    `scale` is a number, or an array that broadcasts against the stack."""
    z = stream.normal(dim * dim).reshape(np.shape(stream.seed) + (dim, dim))
    return scale * (z + z.conj().mT) / 2


def haar_unitary(stream: Stream, dim: int) -> np.ndarray:
    z = stream.normal(dim * dim).reshape(np.shape(stream.seed) + (dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _spectral_product(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u diag(w) u^+ (each of a stack), made exactly Hermitian.  u diag(w)
    is formed as the column scaling u * w: an entry of the matrix product
    is the one product u_ij w_j plus exact zeros, so the two agree bit for
    bit."""
    return _hermitian_part((u * w[..., None, :]) @ u.conj().mT)


def _scaled_to(norm, m: np.ndarray) -> np.ndarray:
    """The Hermitian array m (or each of a stack) rescaled to the given
    2-norm."""
    return np.expand_dims(norm / operator_norm(m), (-2, -1)) * m


def _between(lo: float, hi: float, u) -> np.ndarray:
    """Uniforms u in [0, 1) moved to [lo, hi)."""
    return lo + (hi - lo) * u


def _surgery(stream: Stream, evals, v_norm: float, window, gap: float) -> BoundInstance:
    """H with the given spectrum in a Haar-random eigenbasis and a Gaussian
    V of norm v_norm, from each of a stack of streams."""
    dim = evals.shape[-1]
    h = _spectral_product(haar_unitary(stream, dim), evals)
    v = _scaled_to(v_norm, gaussian_hermitian(stream, dim))
    return BoundInstance(h=h, v=v, window=window, gap=gap)


def make_windowed_instance(seeds: np.ndarray, dim: int = 12, p_rank: int = 3,
                           v_scale: float = 0.2) -> BoundInstance:
    """Spectral surgery: p_rank eigenvalues in the inner window, the rest
    pushed beyond the collars at gap 1, eigenvectors Haar random.  The
    perturbation norm is v_scale * gap/2 (hypothesis-satisfying for
    v_scale < 1).  Makes the stack of the instances of a 1-D uint64 array
    of seeds (see `Stream`)."""
    stream = Stream(seeds)
    gap = 1.0
    lam_lo, lam_hi = -1.0, 1.0
    inner_lo, inner_hi = lam_lo + gap / 2, lam_hi - gap / 2
    inner, lows, highs = np.split(stream.uniform(dim), [p_rank, p_rank + (dim - p_rank) // 2],
                                  axis=-1)
    evals = np.concatenate([
        _between(inner_lo + 0.05 * gap, inner_hi - 0.05 * gap, inner),
        _between(lam_lo - gap / 2 - 2.0, lam_lo - gap / 2 - 0.05 * gap, lows),
        _between(lam_hi + gap / 2 + 0.05 * gap, lam_hi + gap / 2 + 2.0, highs),
    ], axis=-1)
    return _surgery(stream, evals, v_scale * gap / 2, (lam_lo, lam_hi), gap)


def make_multiband_instance(seeds: np.ndarray, dim: int = 14) -> BoundInstance:
    """Three tight bands of rank 2 inside the window, gap-separated (gap
    0.6) from each other and from the outside spectrum; the perturbation
    norm is 0.15 * gap/2.  Makes the stack of the instances of a 1-D
    uint64 array of seeds."""
    stream = Stream(seeds)
    n_bands, band_rank, gap, v_scale = 3, 2, 0.6, 0.15
    centers = np.linspace(-1.0, 1.0, n_bands)
    width = min(0.05, gap / 10)
    lam_lo = centers[0] - gap / 2 - width
    lam_hi = centers[-1] + gap / 2 + width
    n_in = n_bands * band_rank
    inner, lows, highs = np.split(stream.uniform(dim), [n_in, n_in + (dim - n_in) // 2],
                                  axis=-1)
    evals = np.concatenate([
        _between(np.repeat(centers - width, band_rank), np.repeat(centers + width, band_rank),
                 inner),
        _between(lam_lo - gap - 2.0, lam_lo - gap, lows),
        _between(lam_hi + gap, lam_hi + gap + 2.0, highs),
    ], axis=-1)
    return _surgery(stream, evals, v_scale * gap / 2, (lam_lo, lam_hi), gap)


# ---------------------------------------------------------------------------
# Protocol-lemma residual scaling
# ---------------------------------------------------------------------------

def _loglog_exponent(r_values, residuals) -> float:
    """The least-squares slope of log residual on log r, sum dx dy / sum dx^2."""
    x = np.log(np.asarray(r_values, dtype=float))
    y = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


def _pulse_residuals(setup: CoolingSetup, omega0: float, j: int) -> tuple[float, float]:
    """The transfer residual and the band leakage of step j, from one
    detuning solve and one eigendecomposition of H_j + V.

    Transfer residual: distance of the evolved addressed state from the
    up-pumped ground state, minimized over a global phase.

    Band leakage: envelope over the pulse of the out-of-manifold amplitude
    for lower-band basis states, normalized by sqrt(j).  The pointwise
    leakage oscillates under its envelope, so the maximum over a grid of 17
    times is what exposes the scaling in the coupling ratio.  The pulse is
    the schedule's exact step (`_exact_step`), which refuses a splitting
    lost in roundoff."""
    omega_b = solve_detuning(setup.xs, setup.band.omegas, j, omega0, setup.band.delta)
    step, w, vecs = _exact_step(setup, omega0, j, omega_b)
    down, up = setup.transition(j)
    out = evolve(w, vecs, step.tau, down[:, None])[:, 0]
    transfer = math.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(up, out))))

    cols = [np.kron(setup.band.vector(k), KET_DOWN) for k in range(j)]
    manifold = np.column_stack(cols)
    proj_out_eig = vecs.conj().T @ (
        np.eye(len(w)) - manifold @ manifold.conj().T
    ) @ vecs
    starts = [vecs.conj().T @ c for c in cols]
    # sqrt(max(0, .)) is monotone, so it can follow the maximum
    worst = _max_over_pulse(w, starts, proj_out_eig, step.tau, 17)
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


def _oscillation_residual(setup: CoolingSetup, h_drive: np.ndarray) -> float:
    """Uniform-in-time deviation (over 17 times up to the half period) of
    the evolved |1,C> from the ideal two-level oscillation toward |0,B>
    under the drive `h_drive` (`_qutrit_hamiltonians`), with the rate read
    off the measured splitting of the hybridized pair (the correction the
    claim allows, `_rabi_rate`) and the global phase optimized out.  |0>
    and |1> are the setup's band vectors 0 and 1."""
    start = np.kron(setup.band.vector(1), KET_C)
    target = np.kron(setup.band.vector(0), KET_B)
    rabi, w, vecs = _rabi_rate(h_drive, start, target, "qutrit oscillation", "H + X")
    half_period = math.pi / (2 * rabi)
    worst = 0.0
    for frac in np.linspace(1.0 / 17, 1.0, 17):
        tau = frac * half_period
        phi = rabi * tau
        out = evolve(w, vecs, tau, start[:, None])[:, 0]
        model = math.cos(phi) * start - 1j * math.sin(phi) * target
        overlap = abs(np.vdot(model, out))
        worst = max(worst, math.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
    return worst


def _verification_leakage(h_verify: np.ndarray, omega0: float, excited: np.ndarray) -> float:
    """Envelope of the spurious verification probability under `h_verify`
    at coupling `omega0` (`_qutrit_hamiltonians`): max over the excited
    system states (the columns of `excited`, eigenvectors of H_S) and over
    a grid of 33 evolution times up to the full verification pulse (the
    pointwise value oscillates under its envelope, so a single time would
    not expose the scaling).  The qutrit bath is the last tensor factor,
    ordered (C, R, L), so the eigenvectors' R rows are every third row
    from 1."""
    w, vecs = np.linalg.eigh(h_verify)
    tau_v = math.pi / (2 * omega0)
    starts = [vecs.conj().T @ np.kron(v, KET_L) for v in excited.T]
    r_rows = vecs[1::3]
    return _max_over_pulse(w, starts, r_rows.conj().T @ r_rows, tau_v, 33)


def check_protocol_lemmas(grover_model: GroverModel, clock_model: ClockModel,
                          r_grid) -> dict:
    """Measure the protocol residuals of both models on the r grid and fit
    their scaling exponents by log-log regression.

    Reported residuals: the per-step transfer error and lower-band leakage
    of each model's last step (amplitudes, expected at least ~r), and on
    the clock the qutrit oscillation error (amplitude, ~r) and the
    spurious verification probability (~r^2).
    """
    grover = _ladder_residuals(grover_setup(grover_model), r_grid)
    setup = clock_setup(clock_model)
    ladder = _ladder_residuals(setup, r_grid)
    delta = extension_gap(setup)
    # H_S's eigenvectors do not depend on r: diagonalize it once
    _, vs = np.linalg.eigh(setup.h_s.matrix)
    excited = vs[:, [abs(np.vdot(setup.band.vector(0), v)) <= 0.5 for v in vs.T]]
    osc, ver = [], []
    for r in r_grid:
        h_drive, h_verify = _qutrit_hamiltonians(setup, r * delta)
        osc.append(_oscillation_residual(setup, h_drive))
        ver.append(_verification_leakage(h_verify, r * delta, excited))
    return {
        "r_grid": list(r_grid),
        "grover": grover,
        "clock": {
            **ladder,
            "oscillation_residual": osc,
            "oscillation_exponent": _loglog_exponent(r_grid, osc),
            "verification_leakage": ver,
            "verification_exponent": _loglog_exponent(r_grid, ver),
        },
    }


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


def _payload(args: dict, row: int) -> dict:
    """Instance `row` of a stacked checker's keyword arguments as dump
    entries: every matrix as [re, im] rows, an instance of a window stack
    as its h, v, window and gap."""
    payload = {}
    for key, value in args.items():
        if isinstance(value, BoundInstance):
            payload.update(h=_matrix_payload(value.h[row]), v=_matrix_payload(value.v[row]),
                           window=list(value.window), gap=value.gap)
        elif isinstance(value, np.ndarray):
            payload[key] = _matrix_payload(value[row])
        else:
            payload[key] = value
    return payload


def _arguments(check, payload: dict) -> dict:
    """The keyword arguments of `check` for the one instance of a dump, as
    stacks of one: the inverse of `_payload`.  Every matrix but Sylvester's
    X is outside input for a Hermitian operator and is validated as one
    here; a non-finite X is a ValueError."""
    def hermitian(key):
        return Operator(_matrix_from_payload(payload[key])).matrix[None]

    def read(name):
        if name == "inst":
            return BoundInstance(h=hermitian("h"), v=hermitian("v"),
                                 window=tuple(payload["window"]), gap=float(payload["gap"]))
        if name == "x":
            x = _matrix_from_payload(payload["x"])
            if not np.isfinite(x).all():
                raise ValueError("Sylvester's X has a non-finite entry")
            return x[None]
        if name == "split":
            return int(payload["split"])
        return hermitian(name)

    return {name: read(name) for name in inspect.signature(check).parameters}


def replay_instance(payload: dict) -> CheckResult:
    """Re-run the named suite's checker on the one instance of a
    serialized dump, as a stack of one: its CheckResult, or its
    HypothesisUnmet raised.

    Malformed payloads (missing keys, non-Hermitian matrices, a bad window
    or gap, a non-finite X) surface as the exceptions the decoding or the
    checker raises; callers decide how to record them.
    """
    suite = payload["suite"]
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    check = SUITES[suite][1]
    (outcome,) = check(**_arguments(check, payload))
    if isinstance(outcome, HypothesisUnmet):
        raise outcome
    return outcome


class SuiteReport(_Frozen):
    """One suite's counts, and the dump path of each violation."""

    __slots__ = ("instances", "passes", "vacuous", "violations")


# The draws of a suite's block, each from the block's seed words, give the
# stacked checker's keyword arguments: matrices as stacks, a split or a
# window stack whole.

def _weyl_arguments(seeds: np.ndarray, dim: int) -> dict:
    streams = Stream(seeds)
    h = gaussian_hermitian(streams, dim)
    scale = _between(0.01, 1.0, streams.uniform(1))[..., None]
    return {"h": h, "h_tilde": h + gaussian_hermitian(streams, dim, scale=scale)}


def _sylvester_arguments(seeds: np.ndarray, dim: int) -> dict:
    streams = Stream(seeds)
    m = max(2, dim // 2)
    a = gaussian_hermitian(streams, m)
    alpha = operator_norm(a)
    beta = _between(0.1, 1.0, streams.uniform(1))
    # B with singular values above alpha + beta by construction
    w, vb = np.linalg.eigh(gaussian_hermitian(streams, dim - m))
    shifted = np.sign(w + 1e-12) * (np.abs(w) + alpha[:, None] + beta)
    x = streams.normal(m * (dim - m)).reshape(len(seeds), m, dim - m)
    return {"a": a, "b": _spectral_product(vb, shifted), "x": x}


def _block_resolvent_arguments(seeds: np.ndarray, dim: int) -> dict:
    streams = Stream(seeds)
    split = max(2, dim // 2)
    a = np.zeros((len(seeds), dim, dim), dtype=complex)
    for block in (slice(0, split), slice(split, dim)):
        w, vb = np.linalg.eigh(gaussian_hermitian(streams, block.stop - block.start))
        lifted = np.sign(w + 1e-12) * (np.abs(w) + 1.0)  # G_i >= 1
        a[:, block, block] = _spectral_product(vb, lifted)
    b = gaussian_hermitian(streams, dim)
    b = _scaled_to(_between(0.05, 0.4, streams.uniform(1)[:, 0]), b)  # under every half-gap
    return {"a": a, "b": b, "split": split}


def _windowed_arguments(seeds: np.ndarray, dim: int) -> dict:
    return {"inst": make_windowed_instance(seeds, dim=dim)}


def _multiband_arguments(seeds: np.ndarray, dim: int) -> dict:
    return {"inst": make_multiband_instance(seeds, dim=dim)}


# name -> (draw(seeds, dim) -> the checker's keyword arguments, checker,
# dim).  Runs call the checker on each block, replays on a stack of one.
SUITES = {
    "weyl": (_weyl_arguments, check_weyl, 32),
    "sylvester": (_sylvester_arguments, check_sylvester, 16),
    "block_resolvent": (_block_resolvent_arguments, check_block_resolvent, 16),
    "spectral_correspondence": (_windowed_arguments, check_spectral_correspondence, 10),
    "subspace_overlap": (_windowed_arguments, check_subspace_overlap, 12),
    "corollaries": (_multiband_arguments, check_corollaries, 14),
}

# A block holds as many instances as keeps one stack of their matrices
# (k x dim x dim) within this many entries, and at least one: larger
# blocks save little more time, and their temporaries raise peak RSS.
_BLOCK_ENTRIES = 2 ** 12


def run_suite(name: str, instances: int, master_seed: int, out_dir: Path) -> SuiteReport:
    """Run one randomized suite at its table dim; violations are dumped
    into `out_dir` for replay.  Instance i is made from seed word i of the
    stream of `master_seed`.  The instances run in blocks of at most
    `_BLOCK_ENTRIES` / dim^2 (at least one): a block draws its own seed
    words, then draws, builds and checks its instances as one stack (the
    seeds' streams drawn as one `Stream`)."""
    draw, check, dim = SUITES[name]
    block = max(1, _BLOCK_ENTRIES // dim ** 2)
    master = Stream(master_seed)
    passes = vacuous = 0
    violations: list[str] = []
    for start in range(0, instances, block):
        seeds = master.words(min(block, instances - start))
        args = draw(seeds, dim)
        for j, outcome in enumerate(check(**args)):
            if isinstance(outcome, HypothesisUnmet):
                vacuous += 1
                continue
            if outcome.passed:
                passes += 1
                continue
            payload = _payload(args, j) | {
                "suite": name, "seed": int(seeds[j]), "margins": list(outcome.margins),
                "details": {k: str(v) for k, v in outcome.details.items()},
            }
            dump = dump_violation(out_dir / f"violation_{name}_{start + j}.json", payload)
            violations.append(str(dump))
    return SuiteReport(instances=instances, passes=passes, vacuous=vacuous,
                       violations=tuple(violations))
