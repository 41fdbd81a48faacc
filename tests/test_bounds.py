"""Bounds-lab tests: closed-form sanity cases for every checker, randomized
suites, hypothesis gates (negative controls), violation dumps, and the
protocol residual-scaling report."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qsc import bounds
from qsc.errors import HypothesisUnmet
from qsc.linalg import Operator, operator_norm
from qsc.models import (
    ClockModel,
    GroverModel,
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

from conftest import random_hermitian
from oracles import CountingLinalg, closeness_radius_pointwise


class TestWeyl:
    def test_identical_pair_zero_margins(self, rng):
        h = Operator(random_hermitian(rng, 5))
        res = check_weyl(h, h)
        assert res.passed
        assert max(abs(m) for m in res.margins) < 1e-12

    def test_commuting_shift_saturates(self):
        h = Operator(np.diag([0.0, 1.0]).astype(complex))
        ht = Operator(np.diag([0.1, 1.1]).astype(complex))
        res = check_weyl(h, ht)
        assert res.passed
        assert res.details["norm_diff"] == pytest.approx(0.1)
        assert min(res.margins) == pytest.approx(0.0, abs=1e-12)


class TestSylvester:
    def test_zero_map(self):
        a = Operator(np.diag([0.3, -0.2]).astype(complex))
        b = Operator(np.diag([2.0, 3.0]).astype(complex))
        res = check_sylvester(a, b, np.zeros((2, 2)))
        assert res.passed

    def test_pure_scaling_saturates(self, rng):
        beta = 1.7
        a = Operator(np.zeros((3, 3), dtype=complex))
        b = Operator(beta * np.eye(3, dtype=complex))
        x = rng.normal(size=(3, 3))
        res = check_sylvester(a, b, x)
        assert res.passed
        assert min(res.margins) == pytest.approx(0.0, abs=1e-9)

    def test_hypothesis_gate(self, rng):
        a = Operator(np.eye(2, dtype=complex))
        b = Operator(0.5 * np.eye(2, dtype=complex))
        with pytest.raises(HypothesisUnmet):
            check_sylvester(a, b, rng.normal(size=(2, 2)))


class TestBlockResolvent:
    def test_zero_perturbation(self):
        a = Operator(np.diag([2.0, 2.0, 3.0, 3.0]).astype(complex))
        b = Operator(np.zeros((4, 4), dtype=complex))
        res = check_block_resolvent(a, b, split=2)
        assert res.passed
        # inverse block norms are exactly 1/G_i; cross-block norm is 0
        assert res.margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_blocks_analytic(self):
        # with vanishing diagonal blocks the closed 2x2 inverse saturates
        # the cross-block bound exactly
        g1, g2, b12 = 2.0, 3.0, 0.5
        a = Operator(np.diag([g1, g2]).astype(complex))
        b = Operator(np.array([[0, b12], [b12, 0]], dtype=complex))
        res = check_block_resolvent(a, b, split=1)
        assert res.passed
        inv = np.linalg.inv(a.matrix - b.matrix)
        assert abs(inv[0, 1]) == pytest.approx(b12 / (g1 * g2 - b12 ** 2), abs=1e-12)
        assert res.margins[0] == pytest.approx(0.0, abs=1e-9)

    def test_not_block_diagonal_gate(self, rng):
        a = Operator(random_hermitian(rng, 4))
        b = Operator(np.zeros((4, 4), dtype=complex))
        with pytest.raises(HypothesisUnmet):
            check_block_resolvent(a, b, split=2)

    def test_oversized_perturbation_gate(self):
        a = Operator(np.diag([1.0, 1.0]).astype(complex))
        b = Operator(np.diag([0.9, 0.0]).astype(complex))
        with pytest.raises(HypothesisUnmet):
            check_block_resolvent(a, b, split=1)


class TestSpectralCorrespondence:
    def test_unperturbed_exact(self):
        inst = make_windowed_instance(seed=5)
        exact = BoundInstance(
            h=inst.h,
            v=Operator(np.zeros_like(inst.v.matrix)),
            window=inst.window, gap=inst.gap, seed=5,
        )
        res = check_spectral_correspondence(exact)
        assert res.passed
        assert min(res.margins) >= -1e-12

    def test_full_window_empty_complement(self):
        # every eigenvalue of H lies in the window, so P is the whole space
        # and Sigma_P(z) = P(H+V)P has no resolvent part
        h = Operator(np.diag([-0.2, 0.1, 0.3]).astype(complex))
        v = random_hermitian(np.random.default_rng(9), 3)
        v = Operator(0.05 / operator_norm(v) * v)
        inst = BoundInstance(h=h, v=v, window=(-1.0, 1.0), gap=1.0, seed=0)
        res = check_spectral_correspondence(inst)
        assert res.passed
        assert len(res.margins) == 3
        payload = {
            "suite": "spectral_correspondence",
            "h": [[[float(x.real), float(x.imag)] for x in row] for row in h.matrix],
            "v": [[[float(x.real), float(x.imag)] for x in row] for row in v.matrix],
            "window": [-1.0, 1.0], "gap": 1.0,
        }
        assert replay_instance(json.loads(json.dumps(payload))).passed

    @pytest.mark.parametrize("make_instance", [
        lambda seed: make_windowed_instance(seed),
        lambda seed: make_windowed_instance(seed, dim=16, p_rank=4, v_scale=0.6),
        lambda seed: make_multiband_instance(seed),
    ], ids=["windowed", "windowed-strong", "multiband"])
    def test_gamma_matches_pointwise_reference(self, make_instance):
        for k in range(8):
            inst = make_instance(5000 + k)
            _, _, gamma, _ = bounds._effective_hamiltonian_with_gamma(inst)
            ref = closeness_radius_pointwise(inst)
            assert gamma == pytest.approx(ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("make_instance", [
        lambda seed: make_windowed_instance(seed),
        lambda seed: make_windowed_instance(seed, p_rank=1),
        lambda seed: make_multiband_instance(seed),
    ], ids=["windowed", "rank-one", "multiband"])
    def test_pruned_grid_is_the_full_batch_bit_for_bit(self, monkeypatch, make_instance):
        # every sweep of the closeness radius, pruned and as one batched
        # eigvalsh of the whole grid
        pruned = bounds._sigma_grid_bound
        sweeps = []

        def both(sigma_at, h_eff, lo, hi, points=64):
            diffs = sigma_at(np.linspace(lo, hi, points)) - h_eff
            full = float(np.max(np.abs(np.linalg.eigvalsh(diffs))))
            sweeps.append((pruned(sigma_at, h_eff, lo, hi, points), full))
            return sweeps[-1][0]

        monkeypatch.setattr(bounds, "_sigma_grid_bound", both)
        for k in range(40):
            try:
                bounds._effective_hamiltonian_with_gamma(make_instance(7000 + k))
            except HypothesisUnmet:
                pass
        assert len(sweeps) >= 40
        assert all(got == full for got, full in sweeps)

    def test_pruned_grid_with_a_non_finite_point(self):
        # a non-finite Frobenius norm orders nothing: the whole grid is
        # evaluated, as one batch
        def sigma_at(zs):
            sigma = np.zeros((len(zs), 2, 2), dtype=complex)
            sigma[:, 0, 1] = sigma[:, 1, 0] = zs
            sigma[3, 1, 1] = np.inf
            return sigma

        h_eff = np.zeros((2, 2), dtype=complex)
        diffs = sigma_at(np.linspace(0.0, 1.0, 8)) - h_eff
        full = float(np.max(np.abs(np.linalg.eigvalsh(diffs))))
        np.testing.assert_equal(bounds._sigma_grid_bound(sigma_at, h_eff, 0.0, 1.0, 8), full)

    def test_collar_gate(self):
        inst = make_windowed_instance(seed=6)
        lam_lo, _ = inst.window
        dim = inst.h.dim
        # move one eigenvalue into the lower collar
        w, v = np.linalg.eigh(inst.h.matrix)
        w[0] = lam_lo
        bad = Operator(v @ np.diag(w.astype(complex)) @ v.conj().T)
        with pytest.raises(HypothesisUnmet):
            check_spectral_correspondence(
                BoundInstance(h=bad, v=inst.v, window=inst.window, gap=inst.gap, seed=6)
            )

    def test_oversized_coupling_gate(self):
        inst = make_windowed_instance(seed=7)
        big_v = Operator(inst.gap / operator_norm(inst.v) * inst.v.matrix)
        with pytest.raises(HypothesisUnmet):
            check_spectral_correspondence(
                BoundInstance(h=inst.h, v=big_v, window=inst.window,
                              gap=inst.gap, seed=7)
            )


class TestCountedWork:
    """Work per instance is counted, not timed: the closeness-radius grid
    costs one eigendecomposition of Q(H+V)Q, an eigvalsh of fewer grid
    points than the grid has per sweep, and no solve, condition number or
    SVD norm per grid point."""

    def test_spectral_correspondence_counts(self, monkeypatch):
        inst = make_windowed_instance(seed=21)  # dim 12, P rank 3, Q rank 9
        counts = CountingLinalg(monkeypatch)
        counts.track(np.linalg, "eigh", "eigh_args")
        per_sweep = []
        grid_bound = bounds._sigma_grid_bound

        def counted_sweep(*args, **kwargs):
            # the grid matrices handed to eigvalsh: a batch counts each
            before = len(counts.calls.get("eigvalsh", []))
            result = grid_bound(*args, **kwargs)
            shapes = counts.calls["eigvalsh"][before:]
            per_sweep.append(sum(s[0] if len(s) == 3 else 1 for s in shapes))
            return result

        monkeypatch.setattr(bounds, "_sigma_grid_bound", counted_sweep)
        assert check_spectral_correspondence(inst).passed
        assert counts.count("solve") == 1   # H_eff at the window center
        assert counts.count("cond") == 1    # its reference resolvent check
        assert counts.count("svd") == 0
        assert counts.count("norm2") <= 1   # at most the H + V Operator check
        assert counts.sizes("eigh")[9] == 1  # Q(H+V)Q, once
        # H and H + V only: Q's basis is the rest of H's eigenbasis
        assert counts.sizes("eigh")[12] == 2
        eigs = [a for a in counts.calls["eigh_args"] if a.shape[-1] == 12]
        assert {id(a) for a in eigs} == {id(inst.h.matrix), id(inst.h_tilde.matrix)}
        assert 2 <= len(per_sweep) <= 9 and all(1 <= k < 64 for k in per_sweep)

    def test_counts_do_not_grow_with_the_grid(self, monkeypatch):
        per_grid = {}
        for points in (8, 64):
            inst = make_windowed_instance(seed=22)
            counts = CountingLinalg(monkeypatch)
            bounds._effective_hamiltonian_with_gamma(inst, grid_points=points)
            per_grid[points] = {key: counts.count(key)
                                for key in ("solve", "cond", "svd", "norm2", "eigh")}
            monkeypatch.undo()
        assert per_grid[8] == per_grid[64]
        assert per_grid[64]["solve"] == 1

    def test_corollaries_share_one_eigendecomposition_each(self, monkeypatch):
        inst = make_multiband_instance(seed=23)  # dim 14, P rank 6, Q rank 8
        counts = CountingLinalg(monkeypatch)
        counts.track(np.linalg, "eigh", "eigh_args")
        check_corollaries(inst)
        eigs = [a for a in counts.calls["eigh_args"] if a.shape[-1] == 14]
        assert {id(a) for a in eigs} == {id(inst.h.matrix), id(inst.h_tilde.matrix)}
        assert counts.sizes("eigh")[8] == 1
        assert counts.sizes("eigh")[14] == 2
        assert counts.count("solve") == 1

    def test_protocol_clock_diagonalizes_h_s_twice(self, monkeypatch):
        # once for the setup's band structure and once for the verification
        # starts, not again for each r of the grid
        model = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))  # dim 8
        counts = CountingLinalg(monkeypatch)
        check_protocol_lemmas(clock_model=model)
        assert counts.sizes("eigh")[8] == 2


class TestSubspaceOverlap:
    def test_identical_overlaps_one(self):
        inst = make_windowed_instance(seed=8)
        same = BoundInstance(
            h=inst.h, v=Operator(np.zeros_like(inst.v.matrix)),
            window=inst.window, gap=inst.gap, seed=8,
        )
        res = check_subspace_overlap(same)
        assert res.passed
        bound = res.details["bound"]
        assert min(res.margins) == pytest.approx(1.0 - bound, abs=1e-9)

    def test_rank_one_rotation_closed_form(self):
        gap = 1.0
        eps = 0.1
        h = Operator(np.diag([0.0, gap]).astype(complex))
        v = Operator(np.array([[0, eps], [eps, 0]], dtype=complex))
        inst = BoundInstance(h=h, v=v, window=(-gap / 2, gap / 2), gap=gap, seed=0)
        res = check_subspace_overlap(inst)
        assert res.passed
        theta = 0.5 * math.atan2(2 * eps, gap)
        overlap = math.cos(theta) ** 2
        bound = 1 - (2 * eps / gap) ** 2
        assert min(res.margins) == pytest.approx(overlap - bound, abs=1e-9)

    def test_collar_gate(self):
        gap = 1.0
        h = Operator(np.diag([0.0, gap / 4]).astype(complex))
        v = Operator(np.zeros((2, 2), dtype=complex))
        with pytest.raises(HypothesisUnmet):
            check_subspace_overlap(
                BoundInstance(h=h, v=v, window=(-gap / 2, gap / 2), gap=gap, seed=0)
            )


class TestCorollaries:
    def test_multiband_random(self):
        inst = make_multiband_instance(seed=12)
        res = check_corollaries(inst)
        assert res.passed

    def test_degenerate_effective_spectrum_gate(self):
        # a perturbation supported on the complement leaves the effective
        # Hamiltonian exactly degenerate: eta <= gamma must be refused
        gap = 1.0
        evals = np.array([0.0, 0.0, 2.0, -2.0, 2.5])
        h = Operator(np.diag(evals.astype(complex)))
        rng = np.random.default_rng(3)
        vm = np.zeros((5, 5), dtype=complex)
        vm[2:, 2:] = random_hermitian(rng, 3, scale=0.05)
        v = Operator(vm)
        inst = BoundInstance(h=h, v=v, window=(-1.0, 1.0), gap=gap, seed=3)
        with pytest.raises(HypothesisUnmet):
            check_corollaries(inst)

    def test_band_gap_gate(self):
        # an outside eigenvalue closer than the declared gap is refused
        gap = 0.6
        evals = np.array([0.0, 1.0, 1.0 + gap / 3, 4.0])
        h = Operator(np.diag(evals.astype(complex)))
        v = Operator(np.zeros((4, 4), dtype=complex))
        inst = BoundInstance(h=h, v=v, window=(-0.3, 1.3), gap=gap, seed=0)
        with pytest.raises(HypothesisUnmet):
            check_corollaries(inst)

    def test_clock_band_block(self):
        # the composite band block of a clock model under its coupling:
        # every detuned band vector stays in its window subspace
        from qsc.bounds import _check_multiband_overlap

        length = 3
        omegas = band_energies(length)
        xs = overlap_coefficients(length)
        omega_b = 0.37
        diag = np.concatenate([omegas, omegas + omega_b])
        h = Operator(np.diag(diag.astype(complex)))
        rank_one = np.outer(xs, xs)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        omega0 = 0.003
        v = Operator(omega0 * np.kron(sx, rank_one))
        # band ordering after the kron: (down block, up block)
        gaps = np.abs(np.subtract.outer(diag, diag))
        gap = float(np.min(gaps[gaps > 1e-12]))
        inst = BoundInstance(
            h=h, v=v, window=(float(diag.min() - gap / 2), float(diag.max() + gap / 2)),
            gap=gap * 0.99, seed=0,
        )
        res = _check_multiband_overlap(inst)
        assert res.passed
        assert res.details["bands"] == 8


class TestSuites:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_clean_runs(self, name):
        rep = run_suite(name, 25, master_seed=101)
        assert rep.instances == 25
        assert rep.passes + rep.vacuous == 25
        assert not rep.violations

    @pytest.mark.parametrize("name,count", [
        ("weyl", 300), ("sylvester", 200), ("block_resolvent", 200),
    ])
    def test_large_runs_zero_violations(self, name, count):
        rep = run_suite(name, count, master_seed=77)
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

    def test_seed_reproducible(self):
        a = run_suite("weyl", 10, master_seed=5)
        b = run_suite("weyl", 10, master_seed=5)
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


def _operators(args: dict) -> list:
    """The Operators among a checker's arguments, with a BoundInstance's
    h, v and (once a checker has built it) h_tilde."""
    ops = []
    for value in args.values():
        if isinstance(value, BoundInstance):
            ops += [value.h, value.v] + (
                [value.__dict__["h_tilde"]] if "h_tilde" in value.__dict__ else [])
        elif isinstance(value, Operator):
            ops.append(value)
    return ops


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
    def test_clean_run_validates_each_handed_matrix_once(self, name, tmp_path, monkeypatch):
        # no dump payload is built for a passing instance, and the only
        # Operator validations are of the matrices the checker receives
        encoded = []
        monkeypatch.setattr(bounds, "_matrix_payload", encoded.append)
        validated = []
        validate = Operator.__post_init__

        def counting(op):
            validated.append(op)
            validate(op)

        monkeypatch.setattr(Operator, "__post_init__", counting)
        make, check, dim = SUITES[name]
        handed = []

        def recording(**args):
            try:
                return check(**args)
            finally:
                handed.extend(_operators(args))

        monkeypatch.setitem(SUITES, name, (make, recording, dim))
        rep = run_suite(name, 4, master_seed=101, out_dir=tmp_path)
        assert not rep.violations and rep.passes + rep.vacuous == 4
        assert encoded == []
        assert handed
        assert sorted(map(id, validated)) == sorted(map(id, handed))
        assert len({id(op) for op in handed}) == len(handed)


class TestProtocolScaling:
    def test_exponents_meet_thresholds(self):
        gm = GroverModel(n=4, marked=frozenset({3}), omega0_coupling=0.02)
        cm = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        rep = check_protocol_lemmas(gm, cm, r_grid=(0.04, 0.02, 0.01))
        assert rep["grover"]["transfer_exponent"] >= 0.9
        assert rep["grover"]["leakage_exponent"] >= 0.9
        assert rep["clock"]["transfer_exponent"] >= 0.9
        assert rep["clock"]["leakage_exponent"] >= 0.9
        assert rep["clock"]["oscillation_exponent"] >= 0.9
        assert rep["clock"]["verification_exponent"] >= 1.8

    def test_residuals_vanish_with_r(self):
        gm = GroverModel(n=3, marked=frozenset({1}), omega0_coupling=0.02)
        rep = check_protocol_lemmas(gm, None, r_grid=(0.02, 0.01, 0.005))
        res = rep["grover"]["transfer_residual"]
        assert res[0] > res[1] > res[2]
        assert res[2] < 0.01
