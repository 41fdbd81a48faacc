"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every expected value here is either computed by an
independent oracle inside the test or pinned from a closed form checked
elsewhere in the suite.
"""

import math

import numpy as np
import pytest

from qsc.errors import HypothesisUnmet
from qsc.linalg import Operator, StateVector
from qsc.models import (
    ClockModel,
    GroverModel,
    band_energies,
    build_clock_parts,
    clock_band_structure,
    decompose_fiducial,
    load_circuit,
    overlap_coefficients,
    parse_circuit,
)
from qsc.cooling import (
    CoolingSchedule,
    ScheduleStep,
    build_schedule,
    clock_extension_setup,
    clock_setup,
    grover_setup,
    run_deterministic,
    run_probabilistic,
)
from qsc.levelshift import qutrit_truncation_check
from qsc.bounds import (
    BoundInstance,
    SUITES,
    check_block_resolvent,
    check_corollaries,
    check_spectral_correspondence,
    check_subspace_overlap,
    check_sylvester,
    make_windowed_instance,
    run_suite,
)
from qsc.experiments import run_fig1

from oracles import dense_grover_setup


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {detail}")


def test_criterion_1_detuning_halfwidth_scaling(tmp_path):
    """Half-width of the fidelity-vs-detuning curve scales as 2^(-n/2); the
    peak sits within one half-width of the first-order level shift."""
    cfg = {
        "n_min": 4, "n_max": 9, "omega0_rel": 0.05, "points": 400,
        "scan_factor": 8.0, "inset_n": 7, "seed": 0,
    }
    summary = run_fig1(cfg, tmp_path)
    slope = summary["slope"]
    inset = summary["inset"]
    shift = 0.05 ** 2  # (Omega_0/omega_1)^2 as a relative detuning
    peak_ok = abs(inset["peak_rel_detuning"] - shift) <= inset["half_width"]
    slope_ok = abs(slope - (-0.5)) <= 0.1
    _report(
        1, slope_ok and peak_ok,
        f"slope={slope:.4f} (target -0.5 +/- 0.1); "
        f"n=7 peak at {inset['peak_rel_detuning']:.5f}, shift {shift:.5f}, "
        f"half-width {inset['half_width']:.5f}",
    )
    assert slope_ok
    assert peak_ok


def test_criterion_2_grover_end_to_end():
    """n = 6 corrected-detuning run reaches 0.95; the uncorrected run is
    strictly worse; the two-band block the pipeline runs on agrees with
    the full composite space to 1e-6."""
    r = 0.02
    model = GroverModel(n=6, marked=frozenset({0}), omega0_coupling=r)
    setup = grover_setup(model)
    sched = build_schedule(setup, omega0=r)
    corrected = run_deterministic(setup, sched)

    naive_steps = tuple(
        ScheduleStep(j=s.j, omega_b=model.omega1, tau=s.tau, rabi=s.rabi,
                     solution=s.solution)
        for s in sched.steps
    )
    naive_sched = CoolingSchedule(
        steps=naive_steps, omega0=sched.omega0, r=sched.r,
        eps_target=None, tau_mode=sched.tau_mode,
    )
    naive = run_deterministic(setup, naive_sched)

    dense = dense_grover_setup(model)
    oracle = run_deterministic(dense, build_schedule(dense, omega0=r)).ground_fidelity
    agreement = abs(corrected.ground_fidelity - oracle)

    ok = (
        corrected.ground_fidelity >= 0.95
        and naive.ground_fidelity < corrected.ground_fidelity
        and agreement <= 1e-6
    )
    _report(
        2, ok,
        f"corrected={corrected.ground_fidelity:.6f} (>=0.95), "
        f"naive={naive.ground_fidelity:.6f} (strictly lower), "
        f"dense-oracle agreement={agreement:.2e} (<=1e-6)",
    )
    assert corrected.ground_fidelity >= 0.95
    assert naive.ground_fidelity < corrected.ground_fidelity
    assert agreement <= 1e-6


def test_criterion_3_clock_cooling(circuits_dir):
    """n = 2, L = 3 random circuit at eps = 0.1: fidelity within the 2*eps
    budget, infidelity strictly decreasing in r with exponent >= 0.9."""
    circuit = load_circuit(circuits_dir / "random_n2_L3.gates", 2)
    model = ClockModel(circuit=circuit)
    setup = clock_setup(model)

    sched = build_schedule(setup, eps=0.1)
    report = run_deterministic(setup, sched)
    fidelity_ok = report.ground_fidelity >= 1 - 0.2

    r_grid = (0.05, 0.02, 0.01)
    infids = []
    for r in r_grid:
        s = build_schedule(setup, omega0=r * setup.band.delta)
        infids.append(1 - run_deterministic(setup, s).ground_fidelity)
    decreasing = infids[0] > infids[1] > infids[2]
    exponent = float(np.polyfit(np.log(r_grid), np.log(infids), 1)[0])
    exponent_ok = exponent >= 0.9

    ok = fidelity_ok and decreasing and exponent_ok
    _report(
        3, ok,
        f"fidelity={report.ground_fidelity:.4f} (>=0.8), infidelities="
        f"{['%.2e' % x for x in infids]} strictly decreasing={decreasing}, "
        f"exponent={exponent:.2f} (>=0.9)",
    )
    assert fidelity_ok
    assert decreasing
    assert exponent_ok


def test_criterion_4_probabilistic_scheme(circuits_dir):
    """Clock n = 1, L = 2 with 2000 seeded trials: empirical acceptance
    within a factor 2 of the analytic prediction, conditional ground-state
    fidelity at least 0.9 at r = f1 * eps^(3/2)."""
    circuit = load_circuit(circuits_dir / "identity_n1_L2.gates", 1)
    model = ClockModel(circuit=circuit)
    ext = clock_extension_setup(model)
    eps = 0.1
    r = ext.f1 * eps ** 1.5
    report = run_probabilistic(ext, omega0=r * ext.delta, trials=2000, seed=0)
    ratio = report.acceptance_rate / report.analytic_acceptance
    ratio_ok = 0.5 <= ratio <= 2.0
    fidelity_ok = report.conditional_success >= 1 - eps
    ok = ratio_ok and fidelity_ok
    _report(
        4, ok,
        f"acceptance={report.acceptance_rate:.4f} vs analytic="
        f"{report.analytic_acceptance:.4f} (ratio {ratio:.2f} in [0.5, 2]), "
        f"conditional={report.conditional_success:.4f} (>=0.9)",
    )
    assert ratio_ok
    assert fidelity_ok


def test_criterion_5_exact_identities(circuits_dir):
    """Bright-state Green's function vanishes at the pinned energy on every
    shipped model; the penalty-free legal spectrum matches the cosine band;
    the fiducial overlaps match the closed form."""
    worst_green = 0.0
    shipped = [
        ("identity_n1_L2.gates", 1),
        ("x_n1_L2.gates", 1),
        ("bell_n2_L2.gates", 2),
        ("random_n2_L3.gates", 2),
    ]
    for name, n in shipped:
        model = ClockModel(circuit=load_circuit(circuits_dir / name, n))
        ext = clock_extension_setup(model)
        t_s = Operator(0.01 * ext.delta * ext.coupling.matrix, hermitian=True)
        rep = qutrit_truncation_check(
            ext.h_s, StateVector(ext.ground), ext.band1, ext.omega1, ext.delta, t_s
        )
        worst_green = max(worst_green, rep.b_green_norm)
    green_ok = worst_green <= 1e-9

    worst_band = 0.0
    for name, n in shipped:
        model = ClockModel(circuit=load_circuit(circuits_dir / name, n))
        h_prop, _, h_clock = build_clock_parts(model)
        h0 = model.omega * h_prop.matrix + model.clock_penalty * h_clock.matrix
        vals = np.sort(np.linalg.eigvalsh(h0))
        legal = vals[: (model.length + 1) * 2 ** model.n]
        targets = np.sort(np.repeat(band_energies(model.length, model.omega), 2 ** model.n))
        worst_band = max(worst_band, float(np.max(np.abs(legal - targets))))
    band_ok = worst_band <= 1e-10

    worst_overlap = 0.0
    for name, n in shipped:
        model = ClockModel(circuit=load_circuit(circuits_dir / name, n))
        band = clock_band_structure(model)
        fid = StateVector.basis(2 ** (model.n + model.length), 0)
        dec = decompose_fiducial(fid, band)
        worst_overlap = max(
            worst_overlap,
            float(np.max(np.abs(dec.xs - overlap_coefficients(model.length)))),
        )
    overlap_ok = worst_overlap <= 1e-9

    ok = green_ok and band_ok and overlap_ok
    _report(
        5, ok,
        f"max |<B|G|B>|={worst_green:.2e} (<=1e-9), "
        f"max band deviation={worst_band:.2e} (<=1e-10), "
        f"max overlap deviation={worst_overlap:.2e} (<=1e-9)",
    )
    assert green_ok and band_ok and overlap_ok


def test_criterion_6_bound_suites(tmp_path):
    """Each randomized suite passes 100 seeded hypothesis-satisfying
    instances with zero violations; every hypothesis gate fires on its
    negative control."""
    counts = {}
    clean = True
    for name in SUITES:
        rep = run_suite(name, 100, master_seed=2026, out_dir=tmp_path)
        counts[name] = (rep.passes, rep.vacuous, len(rep.violations))
        clean = clean and rep.clean and (rep.passes + rep.vacuous == 100)

    gates_fired = 0
    with pytest.raises(HypothesisUnmet):
        check_sylvester(
            Operator(np.eye(2, dtype=complex), hermitian=True),
            Operator(0.5 * np.eye(2, dtype=complex), hermitian=True),
            np.ones((2, 2)),
        )
    gates_fired += 1
    with pytest.raises(HypothesisUnmet):
        check_block_resolvent(
            Operator(np.ones((4, 4), dtype=complex) + np.eye(4), hermitian=True),
            Operator(np.zeros((4, 4), dtype=complex), hermitian=True),
            2,
        )
    gates_fired += 1
    inst = make_windowed_instance(seed=1)
    big_v = Operator(inst.gap / 1.9 / np.linalg.norm(inst.v.matrix, 2) * 1.9 * inst.v.matrix,
                     hermitian=True)
    with pytest.raises(HypothesisUnmet):
        check_spectral_correspondence(
            BoundInstance(h=inst.h, v=big_v, window=inst.window, gap=inst.gap, seed=1)
        )
    gates_fired += 1
    collar_h = Operator(np.diag([0.0, 0.25]).astype(complex), hermitian=True)
    with pytest.raises(HypothesisUnmet):
        check_subspace_overlap(
            BoundInstance(
                h=collar_h,
                v=Operator(np.zeros((2, 2), dtype=complex), hermitian=True),
                window=(-0.5, 0.5), gap=1.0, seed=0,
            )
        )
    gates_fired += 1
    degenerate = Operator(np.diag([0.0, 0.0, 2.0, -2.0]).astype(complex), hermitian=True)
    vm = np.zeros((4, 4), dtype=complex)
    vm[2:, 2:] = 0.05 * np.array([[0, 1], [1, 0]])
    with pytest.raises(HypothesisUnmet):
        check_corollaries(
            BoundInstance(
                h=degenerate, v=Operator(vm, hermitian=True),
                window=(-1.0, 1.0), gap=1.0, seed=0,
            )
        )
    gates_fired += 1

    ok = clean and gates_fired == 5
    _report(
        6, ok,
        f"suite (passes, vacuous, violations): {counts}; "
        f"hypothesis gates fired: {gates_fired}/5",
    )
    assert clean
    assert gates_fired == 5


def test_criterion_7_tcp_hygiene(circuits_dir):
    """Trace preserved to 1e-10 and positivity to the -1e-9 floor on
    pipeline runs; trajectory fidelity within 3 sigma of density mode at
    2000 shots."""
    circuit = load_circuit(circuits_dir / "identity_n1_L2.gates", 1)
    setup = clock_setup(ClockModel(circuit=circuit))
    sched = build_schedule(setup, eps=0.1)
    dens = run_deterministic(setup, sched, mode="density")

    gm = GroverModel(n=5, marked=frozenset({7}), omega0_coupling=0.02)
    gsetup = grover_setup(gm)
    gsched = build_schedule(gsetup, omega0=0.02)
    gdens = run_deterministic(gsetup, gsched)

    hygiene_ok = (
        dens.trace_residual <= 1e-10
        and gdens.trace_residual <= 1e-10
        and dens.min_eigenvalue >= -1e-9
        and gdens.min_eigenvalue >= -1e-9
    )

    traj = run_deterministic(setup, sched, mode="trajectory", shots=2000, seed=17)
    p = dens.ground_fidelity
    sigma = math.sqrt(max(p * (1 - p), 1.0 / 2000) / 2000)
    agreement = abs(traj.ground_fidelity - p)
    traj_ok = agreement <= 3 * sigma

    ok = hygiene_ok and traj_ok
    _report(
        7, ok,
        f"trace residuals ({dens.trace_residual:.1e}, {gdens.trace_residual:.1e}) "
        f"<=1e-10; min eigenvalues ({dens.min_eigenvalue:.1e}, "
        f"{gdens.min_eigenvalue:.1e}) >=-1e-9; trajectory-density gap "
        f"{agreement:.2e} <= 3 sigma = {3 * sigma:.2e}",
    )
    assert hygiene_ok
    assert traj_ok


def test_criterion_8_cost_trends():
    """Total simulated time grows with the circuit length at fixed eps, and
    doubling eps exactly halves the analytic-mode time."""
    eps = 0.1
    times = []
    for length in (2, 3, 4, 5):
        circ = parse_circuit("\n".join(["G I 1"] * length), 1)
        setup = clock_setup(ClockModel(circuit=circ))
        times.append(build_schedule(setup, eps=eps, tau_mode="analytic").total_time)
    monotone = all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    circ = parse_circuit("G I 1\nG I 1\nG I 1\n", 1)
    setup = clock_setup(ClockModel(circuit=circ))
    t_eps = build_schedule(setup, eps=eps, tau_mode="analytic").total_time
    t_2eps = build_schedule(setup, eps=2 * eps, tau_mode="analytic").total_time
    halving_rel = abs(t_eps - 2 * t_2eps) / t_eps
    halving_ok = halving_rel <= 1e-9

    ok = monotone and halving_ok
    _report(
        8, ok,
        f"T(L=2..5) = {['%.3e' % t for t in times]} monotone={monotone}; "
        f"eps-doubling halving error={halving_rel:.2e} (<=1e-9)",
    )
    assert monotone
    assert halving_ok
