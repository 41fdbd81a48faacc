"""Experiment-layer tests beyond the CLI plumbing: curve shapes, ensemble
statistics, and norm trends."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsc.bounds import check_protocol_lemmas
from qsc.cli import _RUNNERS, resolve_config
from qsc.experiments import _clock_readout, fidelity_vs_detuning, half_width
from qsc import cooling, experiments, linalg, models
from qsc.models import CircuitSpec, ClockModel, Gate, GroverModel, parse_circuit
from qsc.cooling import (
    _step_norm,
    build_schedule,
    clock_block,
    grover_setup,
    run_deterministic,
    run_reduced,
)

from conftest import haar_gate
from oracles import (
    CountingLinalg,
    clock_readout_by_lift,
    dense_grover_setup,
    detuning_scan_oracle,
    effective_two_level,
    ladder_by_fresh_build,
    step_norm_on_composite,
)


def run(experiment: str, cfg: dict, out_dir) -> dict:
    """Run an experiment on a partial config, completed by the CLI's loader."""
    return _RUNNERS[experiment](resolve_config(cfg, experiment), out_dir)


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
        setup = grover_setup(GroverModel(n=1, marked=frozenset({0})))
        assert setup.xs == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-15)
        sched = build_schedule(setup, omega0=r)
        step = sched.steps[0]
        rabi, _ = effective_two_level(setup.xs, setup.band.omegas, 1, r, step.omega_b)
        pulse = step._replace(tau=math.pi / (2 * rabi))
        fid = run_deterministic(setup, sched._replace(steps=(pulse,))).ground_fidelity
        assert fid > 1 - 20 * r ** 2

    def test_block_matches_full_pipeline(self):
        # the invariant-block reduction is exact: the dense composite space
        # runs the block's detuning and pulse time (its steps built afresh)
        for n in (3, 5):
            model = GroverModel(n=n, marked=frozenset({0}))
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
            detunings, fids, omega_b, _ = fidelity_vs_detuning(n, omega0, 400, 8.0)
            x0 = 2.0 ** (-n / 2)
            best, resolution = detuning_scan_oracle(1.0, omega0, x0, math.sqrt(1 - x0 ** 2))
            peak = 1.0 + detunings[int(np.argmax(fids))]
            spacing = detunings[1] - detunings[0]
            assert abs(peak - best) <= spacing + 2 * resolution
            assert abs(omega_b - best) <= 2 * resolution

    @pytest.mark.parametrize("n_max,inset_n,expected", [(5, None, 5), (8, None, 7), (8, 4, 4)])
    def test_inset_is_the_given_n_else_seven_else_the_last(self, tmp_path, n_max, inset_n,
                                                          expected):
        cfg = {"n_min": 4, "n_max": n_max, "points": 60}
        if inset_n is not None:
            cfg["inset_n"] = inset_n
        summary = run("fig1", cfg, tmp_path)
        assert summary["config"].get("inset_n") == inset_n
        assert summary["inset"]["n"] == expected
        per_n = {p["n"]: p for p in summary["per_n"]}
        assert summary["inset"]["half_width"] == per_n[expected]["half_width"]

    def test_curve_is_the_dense_search_model(self):
        # each point is the n-qubit search ladder on its full composite
        # space with the bath moved to the scanned energy, at the same pulse
        n, omega0 = 3, 0.05
        detunings, fids, _, tau = fidelity_vs_detuning(n, omega0, 12, 8.0)
        model = GroverModel(n=n, marked=frozenset({0}))
        dense = dense_grover_setup(model)
        sched = build_schedule(dense, omega0=omega0)
        for d, fid in zip(detunings, fids):
            step = sched.steps[0]._replace(omega_b=1.0 + d, tau=tau)
            report = run_deterministic(dense, sched._replace(steps=(step,)))
            assert abs(report.ground_fidelity - fid) <= 1e-12


class TestGroverEnsemble:
    def test_inverse_rate_tracks_search_scaling(self, tmp_path):
        for n in (4, 6, 8):
            cfg = {
                "n": n, "marked": [0], "r": 0.02, "seed": 3,
                "ensemble_draws": 200,
            }
            summary = run("grover", cfg, tmp_path)
            ens = summary["ensemble"]
            ratio = ens["mean_inverse_rate"] / ens["sqrt_n_over_n0"]
            assert 0.5 <= ratio <= 2.0

    @pytest.mark.parametrize("n,draws", [(3, 5), (12, 40)])
    def test_mean_is_over_the_draws_one_by_one(self, tmp_path, n, draws):
        # at n = 12 a batch holds 16 states, so the draws cross two batch ends
        summary = run("grover", {"n": n, "marked": [1, 2], "r": 0.02, "seed": 4,
                                 "ensemble_draws": draws}, tmp_path)
        eigenspaces = models.build_grover(GroverModel(n=n, marked=frozenset({1, 2})))
        stream = models.Stream(4)
        xs = [models.grover_band_structure(models.random_state(n, stream), eigenspaces)
              for _ in range(draws)]
        assert summary["ensemble"]["mean_inverse_rate"] == float(
            np.mean([1.0 / (x[0] * x[1]) for x in xs]))

    def test_a_zero_overlap_draw_is_left_out(self, tmp_path, monkeypatch):
        # a draw on the marked string alone carries no pulse time
        uniform, marked_only = np.full(4, 0.5, dtype=complex), np.eye(4, dtype=complex)[1]
        monkeypatch.setattr(experiments, "random_states",
                            lambda n, seed, count: iter([np.array([uniform, marked_only])]))
        summary = run("grover", {"n": 2, "marked": [1], "r": 0.02, "ensemble_draws": 2},
                      tmp_path)
        assert summary["ensemble"]["mean_inverse_rate"] == 1.0 / (0.5 * math.sqrt(0.75))


class TestSpectrumTrend:
    def test_norm_grows_linearly(self, tmp_path):
        cfg = {"n": 1, "L_min": 2, "L_max": 6, "h": 0.1, "seed": 0}
        summary = run("spectrum", cfg, tmp_path)
        norms = [summary["norm_by_L"][str(length)] for length in range(2, 7)]
        increments = np.diff(norms)
        assert np.all(increments > 0)
        # linear trend: increments stay within a tight band of each other
        assert np.max(increments) / np.min(increments) < 1.3

    def test_gap_positive_and_h_sensitivity_reported(self, tmp_path):
        cfg = {"n": 1, "L_min": 2, "L_max": 3, "h_grid": [0.05, 0.1, 0.2], "seed": 0}
        run("spectrum", cfg, tmp_path)
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
        summary = run("clock", cfg, tmp_path)
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
        summary = run("clock", cfg, tmp_path)
        assert summary["report"]["skipped_bands"] == [3]
        assert summary["cost"]["total_time"] == summary["report"]["total_time"]
        cost = summary["cost"]
        assert cost["cost"] == cost["h_norm"] * cost["total_time"]
        # the returned summary is exactly what the file holds
        assert json.loads((tmp_path / "clock_report.json").read_text()) == summary

    def test_reduced_run_is_read_out(self, tmp_path):
        # the eta ladder's final state is read out like a density run's
        cfg = {"n": 1, "circuit": ["G H 1", "G T 1", "G X 1"], "eps": 0.1, "eta": 0.3}
        summary = run("clock", cfg, tmp_path)
        assert summary["report"]["skipped_bands"] == [3]
        assert abs(summary["readout"]["ground_fidelity"]
                   - summary["report"]["ground_fidelity"]) <= 1e-12

    @pytest.mark.parametrize("eta", [None, 0.3])
    def test_one_cost_per_run(self, tmp_path, eta):
        # the cost block prices the run's largest step Hamiltonian, like
        # the report, with or without skipped bands
        cfg = {"n": 1, "circuit": ["G H 1", "G T 1", "G X 1"], "eps": 0.1, "seed": 0}
        if eta is not None:
            cfg["eta"] = eta
        summary = run("clock", cfg, tmp_path)
        cost, report = summary["cost"], summary["report"]
        assert cost["h_norm"] == report["h_norm"]
        assert cost["cost"] == report["cost"]
        assert cost["total_time"] == report["total_time"]


_NAMED_GATE_LINES = {
    1: [f"G {g} 1" for g in "IHSTXYZ"],
    2: [f"G {g} {q}" for g in "HSTXYZ" for q in (1, 2)]
    + ["G CX 1 2", "G CX 2 1", "G CZ 1 2", "G SWAP 1 2"],
}


@st.composite
def _clock_models(draw):
    """Clocks of n <= 2 register qubits and L <= 5 gates, each gate named
    or Haar random (on both qubits when n = 2)."""
    n = draw(st.sampled_from([1, 2]))
    gates = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            gates.append(parse_circuit(draw(st.sampled_from(_NAMED_GATE_LINES[n])), n).gates[0])
        else:
            targets = (1,) if n == 1 else tuple(draw(st.permutations([1, 2])))
            seed = draw(st.integers(0, 2 ** 32 - 1))
            gates.append(Gate(haar_gate(np.random.default_rng(seed), 2 ** len(targets)),
                              targets))
    return ClockModel(circuit=CircuitSpec(n, tuple(gates)))


class TestBandReadout:
    """The clock readout is read off the final band state and the step norm
    off the connected blocks of H* + V; the oracles read the same numbers
    on the dense composite space: the state lifted by the dense band
    vectors (`clock_readout_by_lift`) and one eigvalsh of the whole H* + V
    (`step_norm_on_composite`)."""

    @example(model=ClockModel(circuit=parse_circuit(
        "G H 1\nG CX 1 2\nG T 2\nG SWAP 1 2\nG Y 1", 2)), eta=None)
    @example(model=ClockModel(circuit=parse_circuit(
        "G H 1\nG T 1\nG X 1\nG S 1\nG Y 1", 1)), eta=0.2)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(model=_clock_models(), eta=st.sampled_from([None, 0.2, 0.45]))
    def test_clock_matches_the_dense_oracles(self, model, eta):
        block = clock_block(model)
        sched = build_schedule(block, eps=0.1)
        if eta is None:
            report = run_deterministic(block, sched)
        else:
            report = run_reduced(block, sched, eta=eta)
            sched = sched._replace(steps=tuple(s for s in sched.steps
                                               if s.j not in report.skipped_bands))
        readout = _clock_readout(model, report.final_state)
        lifted = clock_readout_by_lift(model, block.dense, report.final_state)
        assert readout.keys() == lifted.keys()
        for key, value in lifted.items():
            assert abs(readout[key] - value) <= 1e-12, key
        # the readout's ground fidelity is the run's, not a second estimate
        assert readout["ground_fidelity"] == report.ground_fidelity
        composite = step_norm_on_composite(block, sched)
        assert report.h_norm == pytest.approx(composite, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["uniform", "haar"])
    def test_search_step_norm_matches_the_composite_norm(self, n, kind):
        # a search block is one connected component, so its step norm is
        # the one eigvalsh of H* + V bit for bit; the dense search setup
        # agrees with its composite space to roundoff
        model = GroverModel(n=n, marked=frozenset({0}))
        block = grover_setup(model, kind=kind, seed=n)
        dense = dense_grover_setup(model, kind=kind, seed=n)
        for setup in (block, dense):
            sched = build_schedule(setup, omega0=0.02)
            composite = step_norm_on_composite(setup, sched)
            if setup is block:
                assert _step_norm(setup, sched) == composite
            else:
                assert _step_norm(setup, sched) == pytest.approx(composite, rel=1e-14, abs=0)


class TestCountedWork:
    """A cooling run's work is counted, not timed: per step, one bath
    assembly, one step Hamiltonian and one eigendecomposition in the
    exact-tau schedule (for the splitting) and the same three in the run
    (for the propagation), a single pass over the ladder (one
    `cooling_step` per step in either mode, which evolves one column, the
    all-down record's, however many shots there are), a `DensityMatrix`
    only for a density run's final state and its readout, no eigvalsh
    beyond state validation and norms, and one search model per setup.
    Both ladders stay in their band blocks, and no clock run forms a
    matrix of the composite size: the clock meets its dense space only in
    H_S's band structure and the validation of H_S, prices the step norm
    on the connected blocks of H* + V and reads out the band state.  A
    setup validates its H_S alone: its coupling direction is built exactly
    Hermitian, a plain array.
    A run whose steps differ from the schedule's (another detuning,
    analytic tau) must match a ladder built afresh."""

    @staticmethod
    def _counting(monkeypatch):
        counts = CountingLinalg(monkeypatch)
        counts.track(cooling, "cooling_step")
        counts.track(models, "build_bath_and_couplings")
        counts.track(linalg, "operator_norm")
        counts.track(linalg.DensityMatrix, "__post_init__", "density_matrix")
        evolve = cooling.evolve

        def evolving(w, v, t, psi):
            counts.calls.setdefault("evolve", []).append(np.shape(psi))
            return evolve(w, v, t, psi)

        monkeypatch.setattr(cooling, "evolve", evolving)
        return counts

    def test_clock_density_ladder(self, tmp_path, monkeypatch):
        length = 3
        cfg = {"n": 1, "circuit": ["G H 1", "G T 1", "G X 1"], "eps": 0.1,
               "mode": "density", "seed": 0}
        counts = self._counting(monkeypatch)
        summary = run("clock", cfg, tmp_path)
        assert "readout" in summary
        assert counts.count("cooling_step") == length
        dim_s, block = 2 ** (1 + length), 2 * (length + 1)
        # each step evolves one block column, the all-down record's
        assert counts.calls["evolve"] == [(block, 1)] * length
        # one dense band-structure eigh of H_S, then two block eigh per
        # step: the schedule's splitting and the run's propagation
        assert counts.sizes("eigh") == {dim_s: 1, block: 2 * length}
        # the step norm: one eigvalsh per connected block of H* + V, and
        # the blocks partition the composite space
        norm_sizes = [np.shape(h)[0] for h in counts.calls["operator_norm"]]
        assert sum(norm_sizes) == 2 * dim_s and max(norm_sizes) < 2 * dim_s
        # one bath assembly per block step in the schedule, then one per
        # connected block of the step norm (on system blocks of half the
        # size), then one per block step in the run: none on the dense space
        assert [len(h) for h in counts.calls["build_bath_and_couplings"]] == (
            [length + 1] * length + [size // 2 for size in norm_sizes] + [length + 1] * length)
        # the Hermiticity scales: the dense H_S and the block's H_S, each
        # where it enters the run; the couplings are built exact, and the
        # step Hamiltonians and the step-norm blocks are sums of kron
        # products of those terms, not checked again
        assert counts.sizes("norm2") == {dim_s: 1, length + 1: 1}
        # the boundary checks alone: the final state and the band state
        # read out of it; the ladder propagates plain record states
        assert counts.count("density_matrix") == 2
        assert counts.count("eigvalsh") == (counts.count("density_matrix")
                                            + counts.count("operator_norm"))

    @pytest.mark.parametrize("mode", ["density", "trajectory", "eta"])
    def test_clock_ladder_stays_in_its_block(self, tmp_path, monkeypatch, mode):
        # n = 1, L = 5: no decomposition, eigenvalue solve or 2-norm sees the
        # composite size 2 dim_s; the dense space is met only by H_S's one
        # eigh for the band structure and the validation of H_S.  The
        # ladder's decompositions (the schedule's, one per
        # step, and the run's, one per kept step) are of the block's size
        length = 5
        cfg = {"n": 1, "circuit": ["G H 1", "G T 1", "G X 1", "G S 1", "G Y 1"],
               "eps": 0.1, "shots": 50, "seed": 0}
        if mode == "eta":  # the eta reduction runs the density ladder
            cfg["eta"] = 0.3
        else:
            cfg["mode"] = mode
        counts = self._counting(monkeypatch)
        summary = run("clock", cfg, tmp_path)
        dim_s, block = 2 ** (1 + length), 2 * (length + 1)
        steps = counts.count("cooling_step")
        kept = length - len(summary["report"]["skipped_bands"])
        assert (mode == "eta") == (kept < length)
        assert counts.sizes("eigh") == {dim_s: 1, block: length + kept}
        for key in ("solve", "cond", "svd"):
            assert max(counts.sizes(key), default=0) <= block, key
        for key in ("eigh", "eigvalsh", "norm2"):
            assert max(counts.sizes(key), default=0) <= dim_s, key
        assert max(counts.sizes("norm2")) == dim_s and counts.sizes("norm2")[dim_s] == 1
        # bath assemblies: the block steps' and the step norm's connected
        # blocks, which partition the dense system space
        norm_blocks = [np.shape(h)[0] // 2 for h in counts.calls["operator_norm"]]
        assert sum(norm_blocks) == dim_s
        assert sorted(len(h) for h in counts.calls["build_bath_and_couplings"]) == sorted(
            [length + 1] * (length + kept) + norm_blocks)
        assert steps == kept
        assert counts.calls["evolve"] == [(block, 1)] * kept
        assert counts.count("density_matrix") == (0 if mode == "trajectory" else 2)
        assert ("readout" in summary) == (mode != "trajectory")

    def test_grover_trajectory_builds_the_bath_once_per_use(self, tmp_path, monkeypatch):
        cfg = {"n": 4, "marked": [0], "r": 0.02, "mode": "trajectory",
               "shots": 20, "seed": 0}
        counts = self._counting(monkeypatch)
        run("grover", cfg, tmp_path)
        # the one step is built and diagonalized by the schedule for its
        # splitting and by the run for the shot unitary, and its bath is
        # built once more for the step norm, one 4 x 4 eigvalsh on the
        # block's one connected component
        assert counts.count("build_bath_and_couplings") == 3
        assert counts.count("eigh") == 2
        assert counts.sizes("eigvalsh") == {4: 1}
        # the block's H_S (2 x 2) only: its coupling is built exact, and
        # the step H_j + V is built from the two and not checked again
        assert counts.sizes("norm2") == {2: 1}

    @pytest.mark.parametrize("mode", ["density", "trajectory"])
    def test_search_ladder_stays_in_its_block(self, tmp_path, monkeypatch, mode):
        # n = 8: no decomposition or 2-norm sees the 256-dim search space or
        # the 512-dim composite space, only the two-band block
        cfg = {"n": 8, "marked": [5], "r": 0.02, "mode": mode, "shots": 50, "seed": 0}
        counts = self._counting(monkeypatch)
        run("grover", cfg, tmp_path)
        for key in ("solve", "cond", "svd", "eigh", "eigvalsh", "norm2"):
            assert max(counts.sizes(key), default=0) <= 4, key
        assert counts.count("eigh") == 2
        assert counts.calls["evolve"] == [(4, 1)]

    def test_a_setup_validates_its_h_s_alone(self, monkeypatch):
        # a clock block validates two H_S, the dense one and its own, and a
        # search block its one; no coupling direction is an Operator
        counts = CountingLinalg(monkeypatch)
        counts.track(linalg.Operator, "__post_init__", "operator")
        block = clock_block(ClockModel(circuit=parse_circuit("G H 1\nG T 1\nG X 1", 1)))
        assert counts.count("operator") == 2
        counts.calls.clear()
        search = grover_setup(GroverModel(n=4, marked=frozenset({0})))
        assert counts.count("operator") == 1
        for setup in (block, block.dense, search):
            assert type(setup.h_s) is linalg.Operator and type(setup.coupling) is np.ndarray

    def test_one_search_model_per_setup(self, tmp_path, monkeypatch):
        counts = CountingLinalg(monkeypatch)
        counts.track(models, "build_grover")
        grover_setup(GroverModel(n=4, marked=frozenset({0})))
        assert counts.count("build_grover") == 1
        # the ensemble draws share one more model, however many they are
        for draws in (5, 40):
            counts.calls.clear()
            run("grover", {"n": 4, "marked": [0], "r": 0.02, "seed": 3,
                           "ensemble_draws": draws}, tmp_path)
            assert counts.count("build_grover") == 2

    @pytest.mark.parametrize("which", ["grover", "clock"])
    def test_trajectory_products_do_not_grow_with_shots(self, monkeypatch, which):
        if which == "grover":
            setup = grover_setup(GroverModel(n=4, marked=frozenset({0})))
            sched = build_schedule(setup, omega0=0.02)
        else:
            setup = cooling.clock_setup(models.ClockModel(
                circuit=models.parse_circuit("G H 1\nG T 1\nG X 1\n", 1)))
            sched = build_schedule(setup, eps=0.1)
        counts = self._counting(monkeypatch)
        evolved = {}
        for mode, shots in (("trajectory", 10), ("trajectory", 1000), ("density", 1)):
            counts.calls.clear()
            run_deterministic(setup, sched, mode=mode, shots=shots, seed=0)
            evolved[mode, shots] = counts.calls["evolve"]
        # one evolved column per step, the one record still measuring
        # down, in either mode and however many shots there are
        column = (2 * setup.dim_s, 1)
        assert all(shapes == [column] * len(sched.steps) for shapes in evolved.values())

    @pytest.mark.parametrize("shots", [10, 1000])
    def test_no_generator_per_shot(self, monkeypatch, shots):
        # every shot's and trial's uniforms come from one vectorized draw,
        # so no seed sequence or generator is built, however many there are
        grover = grover_setup(GroverModel(n=4, marked=frozenset({0})))
        clock = cooling.clock_block(models.ClockModel(
            circuit=models.parse_circuit("G H 1\nG T 1\nG X 1\n", 1)))
        ext = cooling.clock_setup(models.ClockModel(
            circuit=models.parse_circuit("G H 1\nG T 1\n", 1)))
        schedules = [(grover, build_schedule(grover, omega0=0.02)),
                     (clock, build_schedule(clock, eps=0.1))]
        built = []

        def counted(cls):
            class Counted(cls):
                def __init__(self, *args, **kwargs):
                    built.append(cls.__name__)
                    super().__init__(*args, **kwargs)
            return Counted

        for name in ("SeedSequence", "PCG64", "Generator"):
            monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: built.append("default_rng") or default_rng(*a))
        np.random.SeedSequence(0)
        assert built == ["SeedSequence"]  # the count sees a construction
        built.clear()
        for setup, sched in schedules:
            run_deterministic(setup, sched, mode="trajectory", shots=shots, seed=5)
        omega0 = ext.xs[1] * 0.1 ** 1.5 * cooling.extension_gap(ext)
        cooling.run_probabilistic(ext, omega0=omega0,
                                  omega_star=0.9 * cooling.extension_rabi(ext, omega0),
                                  f1_lower=float(ext.xs[1]), trials=shots, seed=5)
        assert built == []

    def test_prob_runs_on_one_clock_setup(self, tmp_path, monkeypatch):
        # one clock build and one eigh of H_S, then the drive and verify
        # decompositions on the (L+1)-band block; the bath is applied by
        # index selection
        counts = self._counting(monkeypatch)
        counts.track(models, "build_clock")
        run("prob", {"n": 1, "circuit": ["G H 1", "G T 1"], "eps": 0.1, "trials": 50,
                     "omega_star_rel": 0.9, "seed": 0, "max_rounds": 10 ** 6}, tmp_path)
        dim_s, bands = 2 ** 3, 3
        assert counts.count("build_clock") == 1
        assert counts.sizes("eigh") == {dim_s: 1, 3 * bands: 2}

    def test_protocol_lemmas_build_one_clock(self, monkeypatch):
        counts = CountingLinalg(monkeypatch)
        counts.track(models, "build_clock")
        check_protocol_lemmas(
            models.GroverModel(n=4, marked=frozenset({3})),
            models.ClockModel(circuit=models.parse_circuit("G I 1\nG I 1\n", 1)),
            r_grid=(0.02, 0.01))
        assert counts.count("build_clock") == 1

    @staticmethod
    def _assert_fresh(setup, schedule, report):
        fidelity, up_probs, _ = ladder_by_fresh_build(setup, schedule)
        assert abs(report.ground_fidelity - fidelity) <= 1e-12
        np.testing.assert_allclose(report.per_step_up_probability, up_probs,
                                   rtol=1e-12, atol=1e-15)

    def test_naive_detuning_rebuilds(self, monkeypatch):
        model = GroverModel(n=4, marked=frozenset({0}))
        setup = grover_setup(model)
        sched = build_schedule(setup, omega0=0.02)
        naive = sched._replace(steps=tuple(s._replace(omega_b=model.omega1)
                                           for s in sched.steps))
        counts = self._counting(monkeypatch)
        report = run_deterministic(setup, naive)
        assert counts.count("eigh") == len(naive.steps)
        self._assert_fresh(setup, naive, report)
        # the corrected detuning gives another fidelity
        corrected = run_deterministic(setup, sched)
        assert abs(corrected.ground_fidelity - report.ground_fidelity) > 1e-6

    def test_analytic_tau_builds_every_step(self, monkeypatch):
        setup = cooling.clock_setup(models.ClockModel(
            circuit=models.parse_circuit("G H 1\nG T 1\nG X 1\n", 1)))
        counts = self._counting(monkeypatch)
        sched = build_schedule(setup, eps=0.1, tau_mode="analytic")
        assert counts.count("eigh") == 0  # analytic tau reads no splitting
        counts.calls.clear()
        report = run_deterministic(setup, sched)
        assert counts.count("eigh") == len(sched.steps)
        # one bath assembly per step, and one per connected block of the
        # step norm, each priced by one operator_norm
        assert counts.count("build_bath_and_couplings") == (len(sched.steps)
                                                            + counts.count("operator_norm"))
        self._assert_fresh(setup, sched, report)
