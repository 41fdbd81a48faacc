"""Experiment-layer tests beyond the CLI plumbing: curve shapes, ensemble
statistics, and norm trends."""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qsc.bounds import check_protocol_lemmas
from qsc.experiments import (
    fidelity_vs_detuning,
    half_width,
    run_clock,
    run_grover,
    run_prob,
    run_spectrum,
)
from qsc import cooling, linalg, models
from qsc.models import GroverModel
from qsc.cooling import build_schedule, grover_setup, run_deterministic

from oracles import (
    CountingLinalg,
    dense_grover_setup,
    detuning_scan_oracle,
    ladder_by_fresh_build,
)


class TestDetuningCurve:
    def test_small_n_plateau(self):
        # with the coupling dominating the shift, the curve tops out high
        detunings, fids, _, _ = fidelity_vs_detuning(2, 0.05, 200, 8.0)
        assert np.max(fids) >= 0.99

    def test_half_width_on_synthetic_triangle(self):
        d = np.linspace(-1, 1, 401)
        f = np.maximum(0.0, 1 - np.abs(d))  # half level at 0.5 -> width 1
        hw, peak, peak_val = half_width(d, f)
        assert hw == pytest.approx(0.5, abs=1e-6)
        assert peak == pytest.approx(0.0, abs=1e-6)
        assert peak_val == pytest.approx(1.0)

    def test_balanced_overlap_single_flip(self):
        # equal band overlaps (one qubit, one marked state): the solved
        # pulse moves the excited half onto the ground manifold with O(r^2)
        # infidelity
        r = 0.02
        setup = grover_setup(GroverModel(n=1, marked=frozenset({0}), omega0_coupling=r))
        assert setup.xs == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-15)
        sched = build_schedule(setup, omega0=r)
        step = sched.steps[0]
        pulse = replace(step, tau=math.pi / (2 * step.solution.rabi))
        fid = run_deterministic(setup, replace(sched, steps=(pulse,))).ground_fidelity
        assert fid > 1 - 20 * r ** 2

    def test_block_matches_full_pipeline(self):
        # the invariant-block reduction is exact: the dense composite space
        # runs the block's detuning and pulse time (its steps built afresh)
        for n in (3, 5):
            model = GroverModel(n=n, marked=frozenset({0}), omega0_coupling=0.03)
            setup = grover_setup(model)
            sched = build_schedule(setup, omega0=0.03)
            report = run_deterministic(setup, sched)
            dense = run_deterministic(dense_grover_setup(model), sched)
            assert abs(report.ground_fidelity - dense.ground_fidelity) < 1e-12

    def test_curve_peaks_at_the_scan_oracle_optimum(self):
        # the fixed-pulse curve peaks where a brute-force scan, whose pulse
        # follows each candidate's own splitting, finds the best detuning
        omega0 = 0.05
        for n in (4, 6, 8):
            detunings, fids, sol, _ = fidelity_vs_detuning(n, omega0, 400, 8.0)
            x0 = 2.0 ** (-n / 2)
            best, resolution = detuning_scan_oracle(1.0, omega0, x0, math.sqrt(1 - x0 ** 2))
            peak = 1.0 + detunings[int(np.argmax(fids))]
            spacing = detunings[1] - detunings[0]
            assert abs(peak - best) <= spacing + 2 * resolution
            assert abs(sol.omega_b - best) <= 2 * resolution

    def test_curve_is_the_dense_search_model(self):
        # each point is the n-qubit search ladder on its full composite
        # space with the bath moved to the scanned energy, at the same pulse
        n, omega0 = 3, 0.05
        detunings, fids, _, tau = fidelity_vs_detuning(n, omega0, 12, 8.0)
        model = GroverModel(n=n, marked=frozenset({0}), omega0_coupling=omega0)
        dense = dense_grover_setup(model)
        sched = build_schedule(dense, omega0=omega0)
        for d, fid in zip(detunings, fids):
            step = replace(sched.steps[0], omega_b=1.0 + d, tau=tau, spectrum=None)
            report = run_deterministic(dense, replace(sched, steps=(step,)))
            assert abs(report.ground_fidelity - fid) <= 1e-12


class TestGroverEnsemble:
    def test_inverse_rate_tracks_search_scaling(self, tmp_path):
        for n in (4, 6, 8):
            cfg = {
                "n": n, "marked": [0], "r": 0.02, "seed": 3,
                "ensemble_draws": 200,
            }
            summary = run_grover(cfg, tmp_path)
            ens = summary["ensemble"]
            ratio = ens["mean_inverse_rate"] / ens["sqrt_n_over_n0"]
            assert 0.5 <= ratio <= 2.0


class TestSpectrumTrend:
    def test_norm_grows_linearly(self, tmp_path):
        cfg = {"n": 1, "L_min": 2, "L_max": 6, "h": 0.1, "seed": 0}
        summary = run_spectrum(cfg, tmp_path)
        norms = [summary["norm_by_L"][str(length)] for length in range(2, 7)]
        increments = np.diff(norms)
        assert np.all(increments > 0)
        # linear trend: increments stay within a tight band of each other
        assert np.max(increments) / np.min(increments) < 1.3

    def test_gap_positive_and_h_sensitivity_reported(self, tmp_path):
        cfg = {"n": 1, "L_min": 2, "L_max": 3, "h_grid": [0.05, 0.1, 0.2], "seed": 0}
        run_spectrum(cfg, tmp_path)
        rows = [
            line.split(",")
            for line in (tmp_path / "spectrum.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("L,")
        ]
        deltas = {}
        for row in rows:
            length, h, delta = int(row[0]), float(row[1]), float(row[6])
            assert delta > 0
            deltas[(length, h)] = delta
        # the gap scales with the penalty factor at fixed L
        for length in (2, 3):
            assert deltas[(length, 0.05)] < deltas[(length, 0.1)] < deltas[(length, 0.2)]


class TestClockReduced:
    def test_reduced_run_reports_skips(self, tmp_path):
        cfg = {
            "n": 1, "circuit": ["G I 1"] * 5, "eps": 0.1,
            "eta": 0.1 / 5 ** 1.5, "seed": 0,
        }
        summary = run_clock(cfg, tmp_path)
        report = summary["report"]
        assert report["mode"] == "density-reduced"
        payload = json.loads((tmp_path / "clock_report.json").read_text())
        assert payload["report"]["skipped_bands"] == report["skipped_bands"]


    def test_cost_block_prices_the_ladder_that_ran(self, tmp_path):
        # eta = 0.3 skips band 3; the cost block must use the reduced
        # schedule's time, like the report
        cfg = {
            "n": 1, "circuit": ["G H 1", "G T 1", "G X 1"], "eps": 0.1,
            "eta": 0.3, "seed": 0,
        }
        summary = run_clock(cfg, tmp_path)
        assert summary["report"]["skipped_bands"] == [3]
        assert summary["cost"]["total_time"] == summary["report"]["total_time"]
        cost = summary["cost"]
        assert cost["cost"] == cost["h_norm"] * cost["total_time"]
        # the returned summary is exactly what the file holds
        assert json.loads((tmp_path / "clock_report.json").read_text()) == summary

    @pytest.mark.parametrize("eta", [None, 0.3])
    def test_one_cost_per_run(self, tmp_path, eta):
        # the cost block prices the run's largest step Hamiltonian, like
        # the report, with or without skipped bands
        cfg = {"n": 1, "circuit": ["G H 1", "G T 1", "G X 1"], "eps": 0.1, "seed": 0}
        if eta is not None:
            cfg["eta"] = eta
        summary = run_clock(cfg, tmp_path)
        cost, report = summary["cost"], summary["report"]
        assert cost["h_norm"] == report["h_norm"]
        assert cost["cost"] == report["cost"]
        assert cost["total_time"] == report["total_time"]


class TestCountedWork:
    """A cooling run's work is counted, not timed: one bath assembly, one
    validated step Hamiltonian and one eigendecomposition per step, made by
    the schedule and propagated with by the run, a single pass over the
    ladder, no eigvalsh beyond state validation and norms, one search model
    per setup, and trajectory products that do not grow with the shots.  A
    step is rebuilt only when the schedule's decomposition does not
    describe it, and then must match a ladder built afresh."""

    @staticmethod
    def _counting(monkeypatch):
        counts = CountingLinalg(monkeypatch)
        counts.track(cooling, "cooling_step")
        counts.track(models, "build_bath_and_couplings")
        counts.track(linalg, "operator_norm")
        counts.track(linalg.DensityMatrix, "__post_init__", "density_matrix")
        return counts

    def test_clock_density_ladder(self, tmp_path, monkeypatch):
        length = 3
        cfg = {"n": 1, "circuit": ["G H 1", "G T 1", "G X 1"], "eps": 0.1,
               "mode": "density", "seed": 0}
        counts = self._counting(monkeypatch)
        summary = run_clock(cfg, tmp_path)
        assert "readout" in summary
        assert counts.count("cooling_step") == length
        # one band-structure eigh, then one per step for the schedule's
        # splitting, which the run propagates with
        assert counts.count("eigh") == length + 1
        assert counts.count("build_bath_and_couplings") == length
        # the Hermiticity scale of H_j + V is the only composite-size 2-norm;
        # at system size only H_S and the coupling are validated, not the
        # three parts H_S is summed from
        dim_s = 2 ** (1 + length)
        assert counts.sizes("norm2") == {dim_s * 2: length, dim_s: 2}
        validated = sum(rho.validate for rho in counts.calls["density_matrix"])
        assert counts.count("eigvalsh") <= validated + counts.count("operator_norm")

    def test_grover_trajectory_builds_the_bath_once_per_use(self, tmp_path, monkeypatch):
        cfg = {"n": 4, "marked": [0], "r": 0.02, "mode": "trajectory",
               "shots": 20, "seed": 0}
        counts = self._counting(monkeypatch)
        run_grover(cfg, tmp_path)
        # the schedule's splitting gives the shot unitary too
        assert counts.count("build_bath_and_couplings") == 1
        assert counts.count("eigh") == 1
        # the block's H_S and coupling (2 x 2), and the one step H_j + V
        assert counts.sizes("norm2") == {2: 2, 4: 1}

    @pytest.mark.parametrize("mode", ["density", "trajectory"])
    def test_search_ladder_stays_in_its_block(self, tmp_path, monkeypatch, mode):
        # n = 8: no decomposition or 2-norm sees the 256-dim search space or
        # the 512-dim composite space, only the two-band block
        cfg = {"n": 8, "marked": [5], "r": 0.02, "mode": mode, "shots": 50, "seed": 0}
        counts = self._counting(monkeypatch)
        run_grover(cfg, tmp_path)
        for key in ("solve", "cond", "svd", "eigh", "eigvalsh", "norm2"):
            assert max(counts.sizes(key), default=0) <= 4, key
        assert counts.count("eigh") == 1

    def test_one_search_model_per_setup(self, tmp_path, monkeypatch):
        counts = CountingLinalg(monkeypatch)
        counts.track(models, "build_grover")
        grover_setup(GroverModel(n=4, marked=frozenset({0})))
        assert counts.count("build_grover") == 1
        # the ensemble draws share one more model, however many they are
        for draws in (5, 40):
            counts.calls.clear()
            run_grover({"n": 4, "marked": [0], "r": 0.02, "seed": 3,
                        "ensemble_draws": draws}, tmp_path)
            assert counts.count("build_grover") == 2

    @pytest.mark.parametrize("which", ["grover", "clock"])
    def test_trajectory_products_do_not_grow_with_shots(self, monkeypatch, which):
        if which == "grover":
            setup = grover_setup(GroverModel(n=4, marked=frozenset({0}), omega0_coupling=0.02))
            sched = build_schedule(setup, omega0=0.02)
        else:
            setup = cooling.clock_setup(models.ClockModel(
                circuit=models.parse_circuit("G H 1\nG T 1\nG X 1\n", 1)))
            sched = build_schedule(setup, eps=0.1)
        widths = []

        class Unitary(np.ndarray):
            """A step unitary that records the width of each product."""

            def __matmul__(self, other):
                widths.append(np.shape(other)[-1])
                return np.asarray(self) @ other

        evolve = cooling.evolve
        monkeypatch.setattr(cooling, "evolve", lambda h, t: SimpleNamespace(
            matrix=evolve(h, t).matrix.view(Unitary)))
        products = {}
        for shots in (10, 1000):
            widths.clear()
            run_deterministic(setup, sched, mode="trajectory", shots=shots, seed=0)
            products[shots] = list(widths)
        # one product per step, on the one record still measuring down
        assert products[10] == products[1000] == [1] * len(sched.steps)

    def test_prob_runs_on_one_clock_setup(self, tmp_path, monkeypatch):
        # one clock build and one eigh of H_S, then the drive and verify
        # decompositions; the bath is applied by index selection
        counts = self._counting(monkeypatch)
        counts.track(models, "build_clock")
        run_prob({"n": 1, "circuit": ["G H 1", "G T 1"], "eps": 0.1, "trials": 50,
                  "omega_star_rel": 0.9, "seed": 0, "max_rounds": 10 ** 6}, tmp_path)
        dim_s = 2 ** 3
        assert counts.count("build_clock") == 1
        assert counts.sizes("eigh") == {dim_s: 1, 3 * dim_s: 2}

    def test_protocol_lemmas_build_one_clock(self, monkeypatch):
        counts = CountingLinalg(monkeypatch)
        counts.track(models, "build_clock")
        check_protocol_lemmas(
            clock_model=models.ClockModel(circuit=models.parse_circuit("G I 1\nG I 1\n", 1)),
            r_grid=(0.02, 0.01))
        assert counts.count("build_clock") == 1

    @staticmethod
    def _assert_fresh(setup, schedule, report, delta_ops=None):
        fidelity, up_probs = ladder_by_fresh_build(setup, schedule, delta_ops)
        assert abs(report.ground_fidelity - fidelity) <= 1e-12
        np.testing.assert_allclose(report.per_step_up_probability, up_probs,
                                   rtol=1e-12, atol=1e-15)

    def test_naive_detuning_rebuilds(self, monkeypatch):
        model = GroverModel(n=4, marked=frozenset({0}), omega0_coupling=0.02)
        setup = grover_setup(model)
        sched = build_schedule(setup, omega0=0.02)
        naive = replace(sched, steps=tuple(replace(s, omega_b=model.omega1)
                                           for s in sched.steps))
        counts = self._counting(monkeypatch)
        report = run_deterministic(setup, naive)
        assert counts.count("eigh") == len(naive.steps)
        self._assert_fresh(setup, naive, report)
        # the corrected schedule's decomposition would give another fidelity
        corrected = run_deterministic(setup, sched)
        assert abs(corrected.ground_fidelity - report.ground_fidelity) > 1e-6

    def test_injected_error_rebuilds_its_band(self, monkeypatch, rng):
        setup = cooling.clock_setup(models.ClockModel(
            circuit=models.parse_circuit("G H 1\nG T 1\nG X 1\n", 1)))
        sched = build_schedule(setup, eps=0.1)
        dim = 2 * setup.dim_s
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        error = linalg.Operator(1e-3 * sched.omega0 * (z + z.conj().T), hermitian=True)
        counts = self._counting(monkeypatch)
        report = run_deterministic(setup, sched, delta_ops={2: error})
        assert counts.count("eigh") == 1
        self._assert_fresh(setup, sched, report, {2: error})
        clean = run_deterministic(setup, sched)
        assert abs(clean.per_step_up_probability[1] - report.per_step_up_probability[1]) > 1e-9

    def test_analytic_tau_builds_every_step(self, monkeypatch):
        setup = cooling.clock_setup(models.ClockModel(
            circuit=models.parse_circuit("G H 1\nG T 1\nG X 1\n", 1)))
        sched = build_schedule(setup, eps=0.1, tau_mode="analytic")
        assert all(s.spectrum is None for s in sched.steps)
        counts = self._counting(monkeypatch)
        report = run_deterministic(setup, sched)
        assert counts.count("eigh") == len(sched.steps)
        assert counts.count("build_bath_and_couplings") == len(sched.steps)
        self._assert_fresh(setup, sched, report)
