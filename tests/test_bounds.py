"""Bounds-lab tests: closed-form sanity cases for every checker, randomized
suites, hypothesis gates (negative controls), violation dumps, and the
protocol residual-scaling report."""

import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import bounds, experiments
from qsc.errors import HypothesisUnmet
from qsc.levelshift import make_context, self_energy
from qsc.linalg import Operator, operator_norm
from qsc.models import (
    ClockModel,
    GroverModel,
    Stream,
    band_energies,
    overlap_coefficients,
    parse_circuit,
)
from qsc.bounds import (
    BoundInstance,
    SUITES,
    check_block_resolvent,
    check_corollaries,
    check_protocol_lemmas,
    check_spectral_correspondence,
    check_subspace_overlap,
    check_sylvester,
    check_weyl,
    dump_violation,
    make_multiband_instance,
    make_windowed_instance,
    replay_instance,
    run_suite,
)

from conftest import random_hermitian, seed_array
from oracles import CountingLinalg, closeness_radius_pointwise

# The r grid a `qsc bounds` run hands the protocol lemmas by default.
LAB_R_GRID = tuple(experiments.CONFIG_KEYS["bounds"]["r_grid"][1])


def _effective(inst: BoundInstance):
    """The self-energy step of the window checks on a stack of one: its P
    basis, H_eff, closeness radius and H_eff spectrum, or its
    HypothesisUnmet raised."""
    outcomes = [None]
    groups = bounds._effective_hamiltonians(inst, outcomes)
    if outcomes[0] is not None:
        raise outcomes[0]
    ((_, _, p, h_eff, gamma, spec),) = groups
    return p[0], h_eff[0], float(gamma[0]), spec[0]


def _seeds(master: int, count: int) -> np.ndarray:
    return Stream(master).words(count)


def _sweeps_alone(inst: BoundInstance) -> int:
    """How many sweeps the closeness radius of a stack of one takes, by the
    one-instance loop: sweep [c, d], then [c - gamma, d + gamma] until the
    radius settles, at most 8 times more."""
    h, v = inst.h[0], inst.v[0]
    w, vecs = np.linalg.eigh(h)
    lam_lo, lam_hi = inst.window
    mask = (w > lam_lo) & (w < lam_hi)
    sigma_at = self_energy(make_context(h, vecs[:, mask], vecs[:, ~mask], inst.gap), v)
    h_eff = sigma_at(float(np.mean(w[mask])))
    spec = np.linalg.eigvalsh(h_eff)
    c, d = spec[0], spec[-1]

    def sweep(lo, hi):
        assert lam_lo < lo and hi < lam_hi
        return float(np.max(np.abs(np.linalg.eigvalsh(sigma_at([lo, hi]) - h_eff))))

    gamma, count = max(1e-15, sweep(c, d)), 1
    for _ in range(8):
        new, count = sweep(c - gamma, d + gamma) * (1.0 + 1e-6), count + 1
        if new <= gamma * (1 + 1e-9):
            break
        gamma = new
    return count


class TestWeyl:
    def test_identical_pair_zero_margins(self, rng):
        h = random_hermitian(rng, 5)[None]
        (res,) = check_weyl(h, h)
        assert res.passed
        assert max(abs(m) for m in res.margins) < 1e-12

    def test_commuting_shift_saturates(self):
        h = np.diag([0.0, 1.0]).astype(complex)[None]
        ht = np.diag([0.1, 1.1]).astype(complex)[None]
        (res,) = check_weyl(h, ht)
        assert res.passed
        assert res.details["norm_diff"] == pytest.approx(0.1)
        assert min(res.margins) == pytest.approx(0.0, abs=1e-12)


class TestSylvester:
    def test_zero_map(self):
        a = np.diag([0.3, -0.2]).astype(complex)[None]
        b = np.diag([2.0, 3.0]).astype(complex)[None]
        (res,) = check_sylvester(a, b, np.zeros((1, 2, 2)))
        assert res.passed

    def test_pure_scaling_saturates(self, rng):
        beta = 1.7
        a = np.zeros((1, 3, 3), dtype=complex)
        b = beta * np.eye(3, dtype=complex)[None]
        x = rng.normal(size=(1, 3, 3))
        (res,) = check_sylvester(a, b, x)
        assert res.passed
        assert min(res.margins) == pytest.approx(0.0, abs=1e-9)

    def test_hypothesis_gate(self, rng):
        a = np.eye(2, dtype=complex)[None]
        b = 0.5 * np.eye(2, dtype=complex)[None]
        (res,) = check_sylvester(a, b, rng.normal(size=(1, 2, 2)))
        assert isinstance(res, HypothesisUnmet)


class TestBlockResolvent:
    def test_zero_perturbation(self):
        a = np.diag([2.0, 2.0, 3.0, 3.0]).astype(complex)[None]
        b = np.zeros((1, 4, 4), dtype=complex)
        (res,) = check_block_resolvent(a, b, split=2)
        assert res.passed
        # inverse block norms are exactly 1/G_i; cross-block norm is 0
        assert res.margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_blocks_analytic(self):
        # with vanishing diagonal blocks the closed 2x2 inverse saturates
        # the cross-block bound exactly
        g1, g2, b12 = 2.0, 3.0, 0.5
        a = np.diag([g1, g2]).astype(complex)
        b = np.array([[0, b12], [b12, 0]], dtype=complex)
        (res,) = check_block_resolvent(a[None], b[None], split=1)
        assert res.passed
        inv = np.linalg.inv(a - b)
        assert abs(inv[0, 1]) == pytest.approx(b12 / (g1 * g2 - b12 ** 2), abs=1e-12)
        assert res.margins[0] == pytest.approx(0.0, abs=1e-9)

    def test_not_block_diagonal_gate(self, rng):
        a = random_hermitian(rng, 4)[None]
        b = np.zeros((1, 4, 4), dtype=complex)
        (res,) = check_block_resolvent(a, b, split=2)
        assert isinstance(res, HypothesisUnmet)

    def test_oversized_perturbation_gate(self):
        a = np.diag([1.0, 1.0]).astype(complex)[None]
        b = np.diag([0.9, 0.0]).astype(complex)[None]
        (res,) = check_block_resolvent(a, b, split=1)
        assert isinstance(res, HypothesisUnmet)


class TestSpectralCorrespondence:
    def test_unperturbed_exact(self):
        inst = make_windowed_instance(seed_array(5))
        exact = BoundInstance(
            h=inst.h,
            v=np.zeros_like(inst.v),
            window=inst.window, gap=inst.gap,
        )
        (res,) = check_spectral_correspondence(exact)
        assert res.passed
        assert min(res.margins) >= -1e-12

    def test_full_window_empty_complement(self):
        # every eigenvalue of H lies in the window, so P is the whole space
        # and Sigma_P(z) = P(H+V)P has no resolvent part
        h = np.diag([-0.2, 0.1, 0.3]).astype(complex)
        v = random_hermitian(np.random.default_rng(9), 3)
        v = 0.05 / operator_norm(v) * v
        inst = BoundInstance(h=h[None], v=v[None], window=(-1.0, 1.0), gap=1.0)
        (res,) = check_spectral_correspondence(inst)
        assert res.passed
        assert len(res.margins) == 3
        payload = {
            "suite": "spectral_correspondence",
            "h": [[[float(x.real), float(x.imag)] for x in row] for row in h],
            "v": [[[float(x.real), float(x.imag)] for x in row] for row in v],
            "window": [-1.0, 1.0], "gap": 1.0,
        }
        assert replay_instance(json.loads(json.dumps(payload))).passed

    @pytest.mark.parametrize("make_instance", [
        lambda seed: make_windowed_instance(seed_array(seed)),
        lambda seed: make_windowed_instance(seed_array(seed), dim=16, p_rank=4, v_scale=0.6),
        lambda seed: make_multiband_instance(seed_array(seed)),
    ], ids=["windowed", "windowed-strong", "multiband"])
    def test_gamma_matches_pointwise_reference(self, make_instance):
        for k in range(8):
            inst = make_instance(5000 + k)
            _, _, gamma, _ = _effective(inst)
            ref = closeness_radius_pointwise(inst)
            assert gamma == pytest.approx(ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("make_instance", [
        lambda seed: make_windowed_instance(seed_array(seed)),
        lambda seed: make_windowed_instance(seed_array(seed), p_rank=1),
        lambda seed: make_multiband_instance(seed_array(seed)),
    ], ids=["windowed", "rank-one", "multiband"])
    def test_pruned_grid_is_the_full_batch_bit_for_bit(self, monkeypatch, make_instance):
        # every sweep of the closeness radius, the grid pruned to its two
        # ends and as one batched eigvalsh of the whole 64-point grid, each
        # instance alone (a stack of one)
        pruned = bounds._sigma_grid_bound
        sweeps = []

        def both(sigma_at, h_eff, lo, hi):
            diffs = sigma_at(np.linspace(lo, hi, 64, axis=-1)) - h_eff[..., None, :, :]
            full = np.max(np.abs(np.linalg.eigvalsh(diffs)), axis=(-2, -1))
            sweeps.append((pruned(sigma_at, h_eff, lo, hi), full))
            return sweeps[-1][0]

        monkeypatch.setattr(bounds, "_sigma_grid_bound", both)
        for k in range(40):
            try:
                _effective(make_instance(7000 + k))
            except HypothesisUnmet:
                pass
        assert len(sweeps) >= 40
        assert all(np.array_equal(got, full) for got, full in sweeps)

    @given(seed=st.integers(0, 2 ** 32 - 1), multiband=st.booleans(), p_rank=st.integers(1, 4),
           v_scale=st.floats(0.05, 0.9))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_the_two_ends_are_every_sweeps_supremum(self, seed, multiband, p_rank, v_scale):
        # each sweep's two ends, against the batched 64-point grid the
        # radius was once read off, and a 1025-point grid
        inst = (make_multiband_instance(seed_array(seed)) if multiband
                else make_windowed_instance(seed_array(seed), p_rank=p_rank, v_scale=v_scale))
        ends = bounds._sigma_grid_bound
        sweeps = []

        def compared(sigma_at, h_eff, lo, hi):
            grids = [np.max(np.abs(np.linalg.eigvalsh(
                sigma_at(np.linspace(lo, hi, points, axis=-1)) - h_eff[..., None, :, :])),
                axis=(-2, -1)) for points in (64, 1025)]
            sweeps.append((ends(sigma_at, h_eff, lo, hi), *grids))
            return sweeps[-1][0]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_sigma_grid_bound", compared)
            try:
                _effective(inst)
            except HypothesisUnmet:
                pass
        assert sweeps
        for got, grid64, grid1025 in sweeps:
            assert np.array_equal(got, grid64)
            assert np.all(grid1025 <= got)

    def test_an_interval_holding_a_pole_is_refused_not_swept(self, monkeypatch):
        # |V| = 0.6 >= gap/2 moves Q's eigenvalue -1.2 to a pole of Sigma_P
        # at -0.6, inside [c, d], the spread of H_eff's spectrum around
        # P's eigenvalues -0.8 and 0.8
        h = np.diag([-0.8, 0.8, -1.2, 2.0]).astype(complex)
        v = np.zeros((4, 4), dtype=complex)
        v[2, 2] = 0.6
        v[0, 2] = v[2, 0] = 0.05
        inst = BoundInstance(h=h[None], v=v[None], window=(-1.0, 1.0), gap=0.2)
        pole = np.linalg.eigvalsh((h + v)[2:, 2:])[0]
        assert -0.8 < pole < 0.8
        monkeypatch.setattr(bounds, "_sigma_grid_bound",
                            lambda *args: pytest.fail("an interval was swept"))
        with pytest.raises(HypothesisUnmet, match="gap/2"):
            _effective(inst)

    def test_collar_gate(self):
        inst = make_windowed_instance(seed_array(6))
        lam_lo, _ = inst.window
        # move one eigenvalue into the lower collar
        w, v = np.linalg.eigh(inst.h[0])
        w[0] = lam_lo
        bad = bounds._spectral_product(v, w)[None]
        (res,) = check_spectral_correspondence(
            BoundInstance(h=bad, v=inst.v, window=inst.window, gap=inst.gap)
        )
        assert isinstance(res, HypothesisUnmet)

    def test_oversized_coupling_gate(self):
        inst = make_windowed_instance(seed_array(7))
        big_v = inst.gap / operator_norm(inst.v[0]) * inst.v
        (res,) = check_spectral_correspondence(
            BoundInstance(h=inst.h, v=big_v, window=inst.window, gap=inst.gap)
        )
        assert isinstance(res, HypothesisUnmet)


class TestCountedWork:
    """Work per stack is counted, not timed.  H and H + V are each
    diagonalized once per stack, by one batched eigh.  Sigma_P is one
    evaluator: per stacked context one eigvalsh of the Q(H+V)Q stack (their
    spectra, for the condition rule) and no eigh of it, no condition number
    and no SVD; per evaluation one solve, batched over the stack and its z.
    H_eff is the first evaluation, and each sweep of the closeness radius
    is one more: one solve on a (k, 2, q, q) stack and one eigvalsh on a
    (k, 2, p, p) stack, the two ends of the k contexts still iterating,
    which never grow in number.  Nothing decomposes H_eff again after the
    sweeps."""

    @staticmethod
    def _count_sweeps(monkeypatch, counts):
        """Record, per sweep, the solve and eigvalsh shapes it takes."""
        ends = bounds._sigma_grid_bound
        per_sweep = []

        def counted_sweep(*args):
            before = counts.count("solve"), counts.count("eigvalsh")
            result = ends(*args)
            per_sweep.append((counts.calls["solve"][before[0]:],
                              counts.calls["eigvalsh"][before[1]:]))
            return result

        monkeypatch.setattr(bounds, "_sigma_grid_bound", counted_sweep)
        return per_sweep

    @staticmethod
    def _stacks_shrink(per_sweep, k: int, q: int, p: int) -> None:
        sizes = [solves[0][0] for solves, _ in per_sweep]
        assert sizes[0] == k and sizes == sorted(sizes, reverse=True)
        for (solves, shapes), size in zip(per_sweep, sizes):
            assert solves == [(size, 2, q, q)]
            assert shapes == [(size, 2, p, p)]

    def test_spectral_correspondence_counts(self, monkeypatch):
        self._spectral_correspondence_counts(monkeypatch, 5)

    def test_single_instance_spectral_correspondence_counts(self, monkeypatch):
        # a single instance is a stack of one, counted the same way
        self._spectral_correspondence_counts(monkeypatch, 1)

    def _spectral_correspondence_counts(self, monkeypatch, k):
        # dim 12, P rank 3, Q rank 9
        inst = bounds._windowed_arguments(_seeds(21, k), 12)["inst"]
        counts = CountingLinalg(monkeypatch)
        counts.track(np.linalg, "eigh", "eigh_args")
        sweeps = self._count_sweeps(monkeypatch, counts)
        assert all(r.passed for r in check_spectral_correspondence(inst))
        assert counts.count("cond") == 0
        assert counts.count("svd") == 0
        assert counts.count("norm2") == 0   # H + V is a plain array, not checked
        # H and H + V only, once each for the stack; Q's basis is the rest
        # of H's eigenbasis, and Q(H+V)Q is never diagonalized with vectors
        assert counts.calls["eigh"] == [(k, 12, 12)] * 2
        h_arg, h_tilde_arg = counts.calls["eigh_args"]
        assert h_arg is inst.h
        assert np.array_equal(h_tilde_arg, inst.h + inst.v)
        # |V| for the hypotheses, make_context's P and Q spectra, Q(H+V)Q's
        # spectrum, H_eff's spectrum, then one per sweep and none after them
        assert 2 <= len(sweeps) <= 9
        assert counts.calls["eigvalsh"][:5] == [(k, 12, 12), (k, 3, 3), (k, 9, 9), (k, 9, 9),
                                                (k, 3, 3)]
        assert len(counts.calls["eigvalsh"]) == 5 + len(sweeps)
        # one solve per evaluation: H_eff at the window centers, then the sweeps
        assert counts.calls["solve"][0] == (k, 1, 9, 9)
        assert counts.count("solve") == 1 + len(sweeps)
        self._stacks_shrink(sweeps, k, 9, 3)

    def test_each_sweep_is_one_eigvalsh_of_its_two_ends(self, monkeypatch):
        inst = bounds._windowed_arguments(_seeds(22, 7), 12)["inst"]  # P rank 3, Q rank 9
        counts = CountingLinalg(monkeypatch)
        per_sweep = self._count_sweeps(monkeypatch, counts)
        outcomes = [None] * 7
        bounds._effective_hamiltonians(inst, outcomes)
        assert outcomes == [None] * 7
        assert 2 <= len(per_sweep) <= 9
        self._stacks_shrink(per_sweep, 7, 9, 3)
        assert counts.count("solve") == 1 + len(per_sweep)
        # sweep t holds exactly the instances whose own runs sweep t times
        # or more: each stops where it would alone
        alone = [_sweeps_alone(BoundInstance(h=h[None], v=v[None], window=inst.window,
                                             gap=inst.gap)) for h, v in zip(inst.h, inst.v)]
        assert [solves[0][0] for solves, _ in per_sweep] == [
            sum(own >= t for own in alone) for t in range(1, max(alone) + 1)]

    def test_corollaries_share_one_eigendecomposition_each(self, monkeypatch):
        # dim 14, P rank 6, Q rank 8
        inst = bounds._multiband_arguments(_seeds(23, 5), 14)["inst"]
        counts = CountingLinalg(monkeypatch)
        counts.track(np.linalg, "eigh", "eigh_args")
        sweeps = self._count_sweeps(monkeypatch, counts)
        outcomes = check_corollaries(inst)
        assert not any(isinstance(r, HypothesisUnmet) for r in outcomes)
        # H and H + V of the stack, and the H_eff stack's eigenvectors for
        # its top eigenspaces; the windows of H + V are read off its eigh
        assert counts.calls["eigh"] == [(5, 14, 14), (5, 6, 6), (5, 14, 14)]
        assert counts.calls["eigh_args"][0] is inst.h
        assert np.array_equal(counts.calls["eigh_args"][2], inst.h + inst.v)
        assert counts.count("cond") == 0
        assert counts.count("svd") == 0
        assert counts.sizes("eigvalsh")[8] == 2  # make_context's Q spectra, Q(H+V)Q's
        assert counts.count("solve") == 1 + len(sweeps)
        self._stacks_shrink(sweeps, 5, 8, 6)

    def test_protocol_clock_diagonalizes_h_s_twice(self, monkeypatch):
        # once for the setup's band structure and once for the verification
        # starts, not again for each r of the grid
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))  # dim 8
        counts = CountingLinalg(monkeypatch)
        check_protocol_lemmas(GroverModel(n=4, marked=frozenset({3})), model, LAB_R_GRID)
        assert counts.sizes("eigh")[8] == 2


def _deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().mT)))


class TestHTilde:
    """H + V is a plain array, not a validated operator: for H and V that
    entered as validated operators, it deviates from Hermitian by at most
    H's deviation plus V's, plus one rounding of each of two mirrored
    entries (eps/2 of each modulus)."""

    @given(seed=st.integers(0, 2 ** 32 - 1), multiband=st.booleans(), dim=st.integers(6, 16),
           skew=st.sampled_from([0.0, 1e-14, 1e-12]))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_deviation_is_at_most_the_terms(self, seed, multiband, dim, skew):
        make = make_multiband_instance if multiband else make_windowed_instance
        inst = make(seed_array(seed), dim=dim)
        if skew:
            # terms off Hermitian by up to about `skew`, inside the check
            rng = np.random.default_rng(seed)
            h, v = (Operator(m[0] + skew * random_hermitian(rng, dim) * 1j).matrix[None]
                    for m in (inst.h, inst.v))
            inst = BoundInstance(h=h, v=v, window=inst.window, gap=inst.gap)
        h_tilde = inst.h_tilde
        assert type(h_tilde) is np.ndarray
        assert np.array_equal(h_tilde, inst.h + inst.v)
        eps = np.finfo(float).eps
        bound = (_deviation(inst.h) + _deviation(inst.v)
                 + eps * np.max(np.abs(h_tilde))) * (1 + 4 * eps)
        assert _deviation(h_tilde) <= bound


class TestBoundInstance:
    """A window stack holds (k, n, n) plain arrays of one shape, a finite
    window lo < hi and a finite gap > 0; anything else is a ValueError
    when it is built, so no checker reads it."""

    @pytest.mark.parametrize("change,message", [
        (lambda inst: {"h": inst.h[0], "v": inst.v[0]}, "stacks of one shape"),
        (lambda inst: {"v": inst.v[:, :-1, :-1]}, "stacks of one shape"),
        (lambda inst: {"h": inst.h[:, :, :-1], "v": inst.v[:, :, :-1]}, "stacks of one shape"),
        (lambda inst: {"h": Operator(inst.h[0])}, "stacks of one shape"),
        (lambda inst: {"window": (1.0, -1.0)}, "window"),
        (lambda inst: {"window": (0.5, 0.5)}, "window"),
        (lambda inst: {"window": (math.nan, 1.0)}, "window"),
        (lambda inst: {"window": (-1.0, math.inf)}, "window"),
        (lambda inst: {"gap": math.nan}, "gap"),
        (lambda inst: {"gap": -1.0}, "gap"),
        (lambda inst: {"gap": 0.0}, "gap"),
        (lambda inst: {"gap": math.inf}, "gap"),
    ], ids=["single-matrices", "v-shape", "not-square", "operator", "reversed-window",
            "empty-window", "nan-window", "infinite-window", "nan-gap", "negative-gap",
            "zero-gap", "infinite-gap"])
    def test_a_bad_stack_window_or_gap_is_refused(self, change, message):
        inst = make_windowed_instance(seed_array(5))
        fields = {"h": inst.h, "v": inst.v, "window": inst.window, "gap": inst.gap}
        with pytest.raises(ValueError, match=message):
            BoundInstance(**(fields | change(inst)))

    @pytest.mark.parametrize("entry", [[math.nan, 0.0], [0.0, math.inf]], ids=["nan", "inf"])
    def test_a_replayed_sylvester_x_must_be_finite(self, entry):
        draw, _, dim = SUITES["sylvester"]
        payload = bounds._payload(draw(seed_array(5), dim), 0) | {"suite": "sylvester"}
        payload = json.loads(json.dumps(payload))
        assert replay_instance(payload).passed
        payload["x"][0][0] = entry
        with pytest.raises(ValueError, match="non-finite"):
            replay_instance(payload)


class TestSubspaceOverlap:
    def test_identical_overlaps_one(self):
        inst = make_windowed_instance(seed_array(8))
        same = BoundInstance(
            h=inst.h, v=np.zeros_like(inst.v),
            window=inst.window, gap=inst.gap,
        )
        (res,) = check_subspace_overlap(same)
        assert res.passed
        bound = res.details["bound"]
        assert min(res.margins) == pytest.approx(1.0 - bound, abs=1e-9)

    def test_rank_one_rotation_closed_form(self):
        gap = 1.0
        eps = 0.1
        h = np.diag([0.0, gap]).astype(complex)[None]
        v = np.array([[0, eps], [eps, 0]], dtype=complex)[None]
        inst = BoundInstance(h=h, v=v, window=(-gap / 2, gap / 2), gap=gap)
        (res,) = check_subspace_overlap(inst)
        assert res.passed
        theta = 0.5 * math.atan2(2 * eps, gap)
        overlap = math.cos(theta) ** 2
        bound = 1 - (2 * eps / gap) ** 2
        assert min(res.margins) == pytest.approx(overlap - bound, abs=1e-9)

    def test_collar_gate(self):
        gap = 1.0
        h = np.diag([0.0, gap / 4]).astype(complex)[None]
        v = np.zeros((1, 2, 2), dtype=complex)
        (res,) = check_subspace_overlap(
            BoundInstance(h=h, v=v, window=(-gap / 2, gap / 2), gap=gap)
        )
        assert isinstance(res, HypothesisUnmet)


class TestCorollaries:
    def test_multiband_random(self):
        inst = make_multiband_instance(seed_array(12))
        (res,) = check_corollaries(inst)
        assert res.passed

    def test_degenerate_effective_spectrum_gate(self):
        # a perturbation supported on the complement leaves the effective
        # Hamiltonian exactly degenerate: eta <= gamma must be refused
        gap = 1.0
        evals = np.array([0.0, 0.0, 2.0, -2.0, 2.5])
        h = np.diag(evals.astype(complex))[None]
        rng = np.random.default_rng(3)
        v = np.zeros((1, 5, 5), dtype=complex)
        v[0, 2:, 2:] = random_hermitian(rng, 3, scale=0.05)
        inst = BoundInstance(h=h, v=v, window=(-1.0, 1.0), gap=gap)
        (res,) = check_corollaries(inst)
        assert isinstance(res, HypothesisUnmet)

    def test_band_gap_gate(self):
        # an outside eigenvalue closer than the declared gap is refused
        gap = 0.6
        evals = np.array([0.0, 1.0, 1.0 + gap / 3, 4.0])
        h = np.diag(evals.astype(complex))[None]
        v = np.zeros((1, 4, 4), dtype=complex)
        inst = BoundInstance(h=h, v=v, window=(-0.3, 1.3), gap=gap)
        (res,) = check_corollaries(inst)
        assert isinstance(res, HypothesisUnmet)

    def test_clock_band_block(self):
        # the composite band block of a clock model under its coupling:
        # every detuned band vector stays in its window subspace
        length = 3
        omegas = band_energies(length)
        xs = overlap_coefficients(length)
        omega_b = 0.37
        diag = np.concatenate([omegas, omegas + omega_b])
        h = np.diag(diag.astype(complex))[None]
        rank_one = np.outer(xs, xs)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        omega0 = 0.003
        v = (omega0 * np.kron(sx, rank_one))[None]
        # band ordering after the kron: (down block, up block)
        gaps = np.abs(np.subtract.outer(diag, diag))
        gap = float(np.min(gaps[gaps > 1e-12]))
        inst = BoundInstance(
            h=h, v=v, window=(float(diag.min() - gap / 2), float(diag.max() + gap / 2)),
            gap=gap * 0.99,
        )
        (res,) = bounds._multiband_overlap(inst)
        assert res.passed
        assert res.details["bands"] == 8


class TestSuites:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_clean_runs(self, name, tmp_path):
        rep = run_suite(name, 25, master_seed=101, out_dir=tmp_path)
        assert rep.instances == 25
        assert rep.passes + rep.vacuous == 25
        assert not rep.violations

    @pytest.mark.parametrize("name,count", [
        ("weyl", 300), ("sylvester", 200), ("block_resolvent", 200),
    ])
    def test_large_runs_zero_violations(self, name, count, tmp_path):
        rep = run_suite(name, count, master_seed=77, out_dir=tmp_path)
        assert not rep.violations
        assert rep.passes == count

    def test_trajectory_per_step_statistics_match_density(self):
        from qsc.models import ClockModel, parse_circuit
        from qsc.cooling import build_schedule, clock_setup, run_deterministic
        import numpy as np

        setup = clock_setup(ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1)))
        sched = build_schedule(setup, eps=0.1)
        dens = run_deterministic(setup, sched, mode="density")
        traj = run_deterministic(setup, sched, mode="trajectory", shots=800, seed=2)
        diffs = np.abs(
            np.array(dens.per_step_up_probability)
            - np.array(traj.per_step_up_probability)
        )
        assert np.max(diffs) < 0.06  # ~3 sigma at 800 shots

    def test_seed_reproducible(self, tmp_path):
        a = run_suite("weyl", 10, master_seed=5, out_dir=tmp_path)
        b = run_suite("weyl", 10, master_seed=5, out_dir=tmp_path)
        assert (a.passes, a.vacuous) == (b.passes, b.vacuous)

    def test_violation_dump_roundtrip(self, tmp_path):
        payload = {
            "suite": "weyl",
            "seed": 1,
            "margins": [-0.5],
            "h": [[[1.0, 0.0]]],
            "h_tilde": [[[2.0, 0.0]]],
        }
        path = dump_violation(tmp_path / "v.json", payload)
        loaded = json.loads(path.read_text())
        assert loaded["margins"] == [-0.5]
        assert loaded["h"][0][0] == [1.0, 0.0]


class _AlwaysFails(bounds.CheckResult):
    """A check result that records its margins but never passes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "passed", False)


class TestSuiteTable:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_dump_replays_to_its_margins(self, name, tmp_path, monkeypatch):
        # every instance fails, so every non-vacuous one is dumped; the
        # replay decodes the dump into the same checker's arguments
        monkeypatch.setattr(bounds, "CheckResult", _AlwaysFails)
        rep = run_suite(name, 3, master_seed=404, out_dir=tmp_path)
        assert rep.passes == 0 and len(rep.violations) == 3 - rep.vacuous
        assert rep.violations
        for path in rep.violations:
            payload = json.loads(Path(path).read_text())
            assert payload["suite"] == name
            result = replay_instance(payload)
            assert not result.passed
            assert list(result.margins) == payload["margins"]

    @pytest.mark.parametrize("name", list(SUITES))
    def test_a_dump_seed_is_its_stream_word_and_remakes_the_instance(self, name, tmp_path,
                                                                    monkeypatch):
        # instance i is made from word i of the master seed's stream, and
        # that seed, written into its dump, makes the dumped matrices again
        monkeypatch.setattr(bounds, "CheckResult", _AlwaysFails)
        rep = run_suite(name, 3, master_seed=404, out_dir=tmp_path)
        words = Stream(404).words(3)
        draw, _, dim = SUITES[name]
        assert rep.violations
        for path in rep.violations:
            payload = json.loads(Path(path).read_text())
            assert payload["seed"] == int(words[int(Path(path).stem.rsplit("_", 1)[1])])
            alone = np.array([payload["seed"]], dtype=np.uint64)
            remade = json.loads(json.dumps(bounds._payload(draw(alone, dim), 0)))
            assert remade.items() <= payload.items()

    @pytest.mark.parametrize("name", list(SUITES))
    def test_clean_run_validates_each_handed_matrix_once(self, name, tmp_path, monkeypatch):
        # no dump payload is built for a passing instance, and no matrix a
        # run hands its checker is an Operator, so none is validated: each
        # is a generated stack, built exactly Hermitian (Sylvester's X is
        # not a Hermitian input).  A replay of one of those instances
        # validates each Hermitian matrix it decodes, once
        encoded = []
        encode = bounds._matrix_payload
        monkeypatch.setattr(bounds, "_matrix_payload", lambda m: encoded.append(m) or encode(m))
        validated = []
        validate = Operator.__post_init__

        def counting(op):
            validated.append(op)
            validate(op)

        monkeypatch.setattr(Operator, "__post_init__", counting)
        draw, check, dim = SUITES[name]
        handed = []

        def recording(**args):
            handed.append(args)
            return check(**args)

        monkeypatch.setitem(SUITES, name, (draw, recording, dim))
        rep = run_suite(name, 4, master_seed=101, out_dir=tmp_path)
        assert not rep.violations and rep.passes + rep.vacuous == 4
        assert encoded == []
        assert validated == []
        (args,) = handed
        matrices = [m for key, value in args.items() if key != "x"
                    for m in ([value.h, value.v] if isinstance(value, BoundInstance)
                              else [value] if isinstance(value, np.ndarray) else [])]
        assert matrices
        for m in matrices:
            assert type(m) is np.ndarray and m.shape[0] == 4
            assert np.array_equal(m, m.conj().mT)
        # the replay of instance 1: its h and v, or each Hermitian argument
        monkeypatch.setitem(SUITES, name, (draw, check, dim))
        payload = json.loads(json.dumps(bounds._payload(args, 1) | {"suite": name}))
        keys = [key for param in inspect.signature(check).parameters if param not in ("x", "split")
                for key in (("h", "v") if param == "inst" else (param,))]
        _replayed(payload)
        assert len(validated) == len(keys) == 2
        for op, key in zip(validated, keys):
            assert np.array_equal(op.matrix, bounds._matrix_from_payload(payload[key]))


def _outcome(result) -> tuple:
    """A check's verdict and margins, or its vacuous flag and reason."""
    if isinstance(result, HypothesisUnmet):
        return ("vacuous", str(result))
    return (result.passed, result.margins)


def _replayed(payload: dict) -> tuple:
    """The outcome of a dump's replay (`replay_instance` raises a vacuous
    one)."""
    try:
        return _outcome(replay_instance(payload))
    except HypothesisUnmet as exc:
        return _outcome(exc)


def _dump_replayed(name: str, args: dict, row: int) -> tuple:
    """The outcome of instance `row` of a suite's stacked arguments,
    dumped and replayed (its matrices validated as `Operator`s)."""
    return _replayed(json.loads(json.dumps(bounds._payload(args, row) | {"suite": name})))


def _row(args: dict, row: int) -> dict:
    """Instance `row` of a checker's stacked arguments, as a stack of one."""
    return {key: value[[row]] if isinstance(value, (BoundInstance, np.ndarray)) else value
            for key, value in args.items()}


def _alone(name: str, seed: int) -> tuple:
    """The outcome of one suite instance checked by itself: its matrices
    drawn as a stack of one, dumped and replayed through `replay_instance`;
    a window instance also made by its public generator and checked as a
    stack of one, which must agree."""
    draw, check, dim = SUITES[name]
    replayed = _dump_replayed(name, draw(seed_array(seed), dim), 0)
    if name in ("spectral_correspondence", "subspace_overlap", "corollaries"):
        make = make_multiband_instance if name == "corollaries" else make_windowed_instance
        (made,) = check(make(seed_array(seed), dim=dim))
        assert _outcome(made) == replayed
    return replayed


def _recorded_run(monkeypatch, name: str, instances: int, master_seed: int, tmp_path) -> list:
    """The outcomes of a suite run, instance by instance, in order.  Each
    block row's outcome equals the checker's on that row's stack of one
    (`inst[[i]]`, or each array's row) and its dump's replay."""
    draw, check, dim = SUITES[name]
    blocks = []

    def recording(**args):
        blocks.append((args, check(**args)))
        return blocks[-1][1]

    monkeypatch.setitem(SUITES, name, (draw, recording, dim))
    rep = run_suite(name, instances, master_seed=master_seed, out_dir=tmp_path)
    monkeypatch.setitem(SUITES, name, (draw, check, dim))
    outcomes = []
    for args, results in blocks:
        for row, result in enumerate(results):
            (single,) = check(**_row(args, row))
            assert _outcome(single) == _dump_replayed(name, args, row) == _outcome(result)
            outcomes.append(_outcome(result))
    assert len(outcomes) == rep.instances == instances
    return outcomes


def _collar_broken(inst: BoundInstance, row: int) -> BoundInstance:
    """A copy of a window stack whose instance `row` has an eigenvalue of
    H moved onto the window's lower edge, inside its collar."""
    h = inst.h.copy()
    w, u = np.linalg.eigh(h[row])
    w[0] = inst.window[0]
    h[row] = bounds._spectral_product(u, w)
    return BoundInstance(h=h, v=inst.v, window=inst.window, gap=inst.gap)


def _broken(name: str, args: dict, row: int) -> dict:
    """The stacked arguments with instance `row` made to fail a
    hypothesis: B singular, A coupled across the split, or an eigenvalue
    of H in a window collar."""
    args = dict(args)
    if name == "sylvester":
        args["b"] = args["b"].copy()
        args["b"][row] = 0
    elif name == "block_resolvent":
        args["a"] = args["a"].copy()
        args["a"][row, 0, -1] = args["a"][row, -1, 0] = 1.0
    else:
        args["inst"] = _collar_broken(args["inst"], row)
    return args


class TestBatchInvariance:
    """A stack checks each instance as that instance alone: verdicts,
    vacuous flags and margins of a run, block by block, equal (==) those
    of its instances checked one at a time, each a stack of one."""

    @pytest.mark.parametrize("instances", [3, 10])
    @pytest.mark.parametrize("name", list(SUITES))
    def test_blocks_are_the_instances_one_at_a_time(self, name, instances, monkeypatch,
                                                    tmp_path):
        # blocks of four instances: a run below the block size, and one
        # over two whole blocks and part of a third
        dim = SUITES[name][2]
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 4 * dim ** 2)
        run = _recorded_run(monkeypatch, name, instances, 31, tmp_path)
        assert run == [_alone(name, int(seed)) for seed in Stream(31).words(instances)]

    def test_a_block_of_the_table_size(self, monkeypatch, tmp_path):
        # Weyl's blocks hold 2^12 / 32^2 = 4 instances: 9 make three
        assert max(1, bounds._BLOCK_ENTRIES // SUITES["weyl"][2] ** 2) == 4
        run = _recorded_run(monkeypatch, "weyl", 9, 8, tmp_path)
        assert run == [_alone("weyl", int(seed)) for seed in Stream(8).words(9)]

    @pytest.mark.parametrize("name", [name for name in SUITES if name != "weyl"])
    def test_a_vacuous_instance_leaves_its_neighbours_alone(self, name):
        # Weyl's check has no hypothesis to fail
        draw, check, dim = SUITES[name]
        seeds = _seeds(55, 5)
        clean = [_outcome(r) for r in check(**draw(seeds, dim))]
        broken_args = _broken(name, draw(seeds, dim), 2)
        broken = [_outcome(r) for r in check(**broken_args)]
        assert clean[2][0] != "vacuous" and broken[2][0] == "vacuous"
        assert broken[:2] + broken[3:] == clean[:2] + clean[3:]
        alone = bounds._payload(broken_args, 2) | {"suite": name}
        with pytest.raises(HypothesisUnmet) as exc:
            replay_instance(json.loads(json.dumps(alone)))
        assert str(exc.value) == broken[2][1]
        # a stack with nothing left after a hypothesis takes no later step
        for row in (0, 1, 3, 4):
            broken_args = _broken(name, broken_args, row)
        assert all(outcome[0] == "vacuous" for outcome in map(_outcome, check(**broken_args)))

    @pytest.mark.parametrize("name", ["spectral_correspondence", "subspace_overlap"])
    def test_instances_of_two_window_patterns_share_a_stack(self, name):
        # P ranks 3 and 2 interleaved: H's windows select other columns,
        # so the self-energies run as two stacks, and each instance still
        # reads as it does alone
        three, two = (make_windowed_instance(_seeds(66 + rank, 3), dim=12, p_rank=rank)
                      for rank in (3, 2))
        order = [0, 3, 1, 4, 2, 5]
        mixed = BoundInstance(h=np.concatenate([three.h, two.h])[order],
                              v=np.concatenate([three.v, two.v])[order],
                              window=three.window, gap=three.gap)
        assert len(bounds._by_pattern((mixed.h_eig[0] > -1.0) & (mixed.h_eig[0] < 1.0))) == 2
        check = SUITES[name][1]
        alone = [_outcome(check(BoundInstance(h=h[None], v=v[None], window=mixed.window,
                                              gap=mixed.gap))[0])
                 for h, v in zip(mixed.h, mixed.v)]
        assert [_outcome(r) for r in check(mixed)] == alone


class TestProtocolScaling:
    def test_exponents_meet_thresholds(self):
        gm = GroverModel(n=4, marked=frozenset({3}))
        cm = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        rep = check_protocol_lemmas(gm, cm, r_grid=LAB_R_GRID)
        assert rep["grover"]["transfer_exponent"] >= 0.9
        assert rep["grover"]["leakage_exponent"] >= 0.9
        assert rep["clock"]["transfer_exponent"] >= 0.9
        assert rep["clock"]["leakage_exponent"] >= 0.9
        assert rep["clock"]["oscillation_exponent"] >= 0.9
        assert rep["clock"]["verification_exponent"] >= 1.8

    @given(residuals=st.lists(st.floats(1e-12, 1.0), min_size=len(LAB_R_GRID),
                              max_size=len(LAB_R_GRID)))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_exponent_is_the_least_squares_slope(self, residuals):
        fitted = np.polyfit(np.log(LAB_R_GRID), np.log(residuals), 1)[0]
        got = bounds._loglog_exponent(LAB_R_GRID, residuals)
        assert got == pytest.approx(fitted, rel=1e-12, abs=1e-12)

    def test_a_splitting_lost_in_roundoff_is_refused(self):
        # at r = 1e-16 the splittings lie below one ulp of the Hamiltonians'
        # norms: no pulse time or oscillation rate is read off them
        from qsc.cooling import _qutrit_hamiltonians, clock_setup, extension_gap, grover_setup
        from qsc.errors import UnresolvedSplitting

        r = 1e-16
        grover = grover_setup(GroverModel(n=4, marked=frozenset({3})))
        clock = clock_setup(ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1)))
        for setup in (grover, clock):
            with pytest.raises(UnresolvedSplitting, match=r"step j=\d+: exact splitting"):
                bounds._pulse_residuals(setup, r * setup.band.delta, setup.n_bands - 1)
        with pytest.raises(UnresolvedSplitting, match=r"qutrit oscillation: exact splitting"):
            bounds._oscillation_residual(
                clock, _qutrit_hamiltonians(clock, r * extension_gap(clock))[0])

    def test_residuals_vanish_with_r(self):
        gm = GroverModel(n=3, marked=frozenset({1}))
        cm = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        rep = check_protocol_lemmas(gm, cm, r_grid=(0.02, 0.01, 0.005))
        res = rep["grover"]["transfer_residual"]
        assert res[0] > res[1] > res[2]
        assert res[2] < 0.01
