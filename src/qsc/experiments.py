"""Reproducible experiment sweeps behind the command-line interface.

Every experiment takes a flat configuration dictionary (already merged
with defaults and validated), writes CSV data and/or a JSON summary into
an output directory, and returns the summary.  Identical configuration
and seeds give byte-identical outputs; every file embeds the resolved
configuration, the master seed, and the package version.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, config
from .errors import ConfigError, HypothesisUnmet
from .bounds import SUITES, check_protocol_lemmas, dump_violation, replay_instance, run_suite
from .cooling import (
    _step_hamiltonian,
    build_schedule,
    clock_extension_setup,
    clock_setup,
    grover_setup,
    run_deterministic,
    run_probabilistic,
    run_reduced,
)
from .linalg import PROJ1, DensityMatrix, StateVector, operator_norm, partial_trace
from .models import (
    KET_DOWN,
    ClockModel,
    GroverModel,
    build_clock,
    build_grover,
    clock_site_index,
    clock_spectrum,
    grover_band_structure,
    load_circuit,
    pad_with_identities,
    parse_circuit,
    random_state,
    register_history,
)

__all__ = [
    "run_fig1",
    "run_grover",
    "run_clock",
    "run_prob",
    "run_bounds",
    "run_spectrum",
    "fidelity_vs_detuning",
    "half_width",
]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, schema: str, header: list[str], rows, cfg: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# qsc-{__version__} schema={schema}\n")
        fh.write(f"# config={json.dumps(cfg, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary(cfg: dict, body: dict) -> dict:
    return {"version": __version__, "config": cfg, **body}


def _report_dict(report) -> dict:
    """A report dataclass as JSON values: tuples become lists (nested ones
    too), and fields kept out of its repr (a run's final state) are left
    out, so the summary equals its own JSON round trip."""
    def plain(value):
        return [plain(v) for v in value] if isinstance(value, tuple) else value

    return {f.name: plain(getattr(report, f.name)) for f in fields(report) if f.repr}


# ---------------------------------------------------------------------------
# Detuning-scan experiment
# ---------------------------------------------------------------------------

def fidelity_vs_detuning(n: int, omega0_rel: float, points: int, scan_factor: float):
    """One fidelity-vs-detuning curve for a single marked state with the
    uniform fiducial, run on the search ladder's engine.

    The n-qubit search setup is a two-band block fixed by the fiducial's
    overlaps (x0, x1) = (2^(-n/2), sqrt(1 - 2^(-n))), so the one-qubit
    model with fiducial (x0, x1) is that same block.  `grover_setup` and
    `build_schedule` give its solved bath energy omega_b*, the pulse time
    and the validated step Hamiltonian H* + V at omega_b*.  The pulse time
    stays fixed; only the bath energy is scanned.  Moving the bath to
    omega_b adds (omega_b - omega_b*) (1 (x) |up><up|), a real diagonal,
    so every scanned matrix is exactly as Hermitian as H* + V, and the
    whole scan is one batched eigh.  Returns (detunings, fidelities,
    detuning solution, tau).
    """
    omega1 = 1.0
    x0 = 2.0 ** (-n / 2)
    x1 = math.sqrt(1.0 - x0 ** 2)
    omega0 = omega0_rel * omega1
    model = GroverModel(n=1, marked=frozenset({0}), omega1=omega1, omega0_coupling=omega0)
    setup = grover_setup(model, StateVector(np.array([x0, x1], dtype=complex)))
    step = build_schedule(setup, omega0=omega0).steps[0]
    h = _step_hamiltonian(setup, omega0, step.omega_b).matrix
    scan = scan_factor * omega0 * x0 * x1 / omega1
    detunings = np.linspace(-scan, scan, points)
    shifts = omega1 * (1 + detunings) - step.omega_b
    up = np.kron(np.eye(setup.dim_s), PROJ1)
    w, v = np.linalg.eigh(h + shifts[:, None, None] * up)
    psi0 = np.kron(setup.fiducial.amplitudes, KET_DOWN)
    amps = np.exp(-1j * step.tau * w) * (v.conj().transpose(0, 2, 1) @ psi0)
    psi = (v @ amps[..., None])[..., 0]
    # the ground band e0 with either bath state: the block's first two rows
    fids = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
    return detunings, fids, step.solution, step.tau


def half_width(detunings: np.ndarray, fidelities: np.ndarray):
    """Half of the full width at half maximum of (fidelity - scan minimum)
    around the global peak, with linear interpolation at the crossings."""
    fmin = float(np.min(fidelities))
    ipk = int(np.argmax(fidelities))
    level = 0.5 * (fidelities[ipk] + fmin)

    def _cross(i_from, i_to, step):
        prev = i_from
        i = i_from + step
        while 0 <= i < len(fidelities):
            if fidelities[i] < level:
                f1, f2 = fidelities[prev], fidelities[i]
                d1, d2 = detunings[prev], detunings[i]
                return d1 + (level - f1) * (d2 - d1) / (f2 - f1)
            prev = i
            i += step
        return detunings[i_to]

    left = _cross(ipk, 0, -1)
    right = _cross(ipk, len(fidelities) - 1, +1)
    return 0.5 * float(right - left), float(detunings[ipk]), float(fidelities[ipk])


def run_fig1(cfg: dict, out_dir: Path) -> dict:
    """Half-width scaling of the fidelity-vs-detuning curve across n."""
    ns = list(range(int(cfg["n_min"]), int(cfg["n_max"]) + 1))
    if not ns:
        raise ConfigError("empty n grid: need n_min <= n_max")
    if int(cfg["points"]) < 10:
        raise ConfigError("detuning scan needs at least 10 points")

    rows = []
    per_n = []
    for n in ns:
        detunings, fids, sol, tau = fidelity_vs_detuning(
            n, cfg["omega0_rel"], cfg["points"], cfg["scan_factor"])
        hw, peak_at, peak_fid = half_width(detunings, fids)
        for d, f in zip(detunings, fids):
            rows.append((n, float(d), float(f)))
        per_n.append(
            {
                "n": n,
                "half_width": hw,
                "peak_rel_detuning": peak_at,
                "peak_fidelity": peak_fid,
                "solved_omega_b": sol.omega_b,
                "tau": tau,
            }
        )
    _write_csv(out_dir / "fig1_curves.csv", "fig1", ["n", "detuning_rel", "fidelity"],
               rows, cfg)

    log_hw = np.log2([p["half_width"] for p in per_n])
    if len(ns) >= 2:
        slope, intercept = np.polyfit(ns, log_hw, 1)
    else:
        slope, intercept = 0.0, float(log_hw[0])
    level_shift_rel = cfg["omega0_rel"] ** 2  # first-order shift over omega1
    inset = next((p for p in per_n if p["n"] == cfg.get("inset_n", 7)), per_n[-1])
    summary = _summary(
        cfg,
        {
            "per_n": per_n,
            "slope": float(slope),
            "intercept": float(intercept),
            "level_shift_rel": level_shift_rel,
            "inset": {
                "n": inset["n"],
                "peak_rel_detuning": inset["peak_rel_detuning"],
                "half_width": inset["half_width"],
                # distance from the first-order shift magnitude as a
                # positive relative detuning; the measured peak sits at the
                # negative mirror, still inside one half-width
                "peak_within_half_width_of_shift": bool(
                    abs(inset["peak_rel_detuning"] - level_shift_rel)
                    <= inset["half_width"]
                ),
            },
        },
    )
    _write_json(out_dir / "fig1_summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Single end-to-end runs
# ---------------------------------------------------------------------------

def _parse_marked(raw, n: int) -> frozenset[int]:
    out = set()
    for m in raw:
        if isinstance(m, str):
            out.add(int(m, 2))
        else:
            out.add(int(m))
    if not out:
        raise ConfigError("marked set must be nonempty")
    return frozenset(out)


def run_grover(cfg: dict, out_dir: Path) -> dict:
    """End-to-end search-model cooling run, on the model's two-band block
    (`grover_setup`)."""
    n = int(cfg["n"])
    model = GroverModel(
        n=n,
        marked=_parse_marked(cfg.get("marked", [0]), n),
        omega1=cfg.get("omega1", 1.0),
        omega0_coupling=cfg.get("omega0", cfg.get("r", 0.02) * cfg.get("omega1", 1.0)),
    )
    seed = int(cfg.get("seed", 0))
    setup = grover_setup(model, kind=cfg.get("fiducial", "uniform"), seed=seed)
    schedule = build_schedule(
        setup, omega0=model.omega0_coupling, tau_mode=cfg.get("tau_mode", "exact")
    )
    if cfg.get("detuning", "corrected") == "naive":
        steps = tuple(replace(s, omega_b=model.omega1) for s in schedule.steps)
        schedule = replace(schedule, steps=steps, eps_target=None)
    report = run_deterministic(
        setup, schedule, mode=cfg.get("mode", "density"),
        shots=int(cfg.get("shots", 2000)), seed=seed,
    )
    body = {"report": _report_dict(report), "r": schedule.r,
            "xs": [float(x) for x in setup.xs]}

    draws = int(cfg.get("ensemble_draws", 0))
    if draws:
        rng = np.random.default_rng(seed)
        eigenspaces = build_grover(model)
        inv_rates = []
        for _ in range(draws):
            f = random_state(n, rng)
            try:
                xs = grover_band_structure(f, eigenspaces)
            except ValueError:
                continue  # zero overlap draw carries no pulse time
            inv_rates.append(1.0 / (xs[0] * xs[1]))
        n0 = len(model.marked)
        body["ensemble"] = {
            "draws": draws,
            "mean_inverse_rate": float(np.mean(inv_rates)),
            "sqrt_n_over_n0": math.sqrt(model.dim / n0),
        }
    summary = _summary(cfg, body)
    _write_json(out_dir / "grover_report.json", summary)
    return summary


def _load_model_circuit(cfg: dict):
    n = int(cfg["n"])
    if "gates_file" in cfg:
        circuit = load_circuit(cfg["gates_file"], n)
    elif "circuit" in cfg:
        circuit = parse_circuit("\n".join(cfg["circuit"]), n)
    else:
        raise ConfigError("clock experiments need 'gates_file' or 'circuit'")
    padding = int(cfg.get("padding", 0))
    if padding:
        circuit = pad_with_identities(circuit, padding)
    return circuit


def run_clock(cfg: dict, out_dir: Path) -> dict:
    """Cool a clock model, then read out both the ground fidelity and the
    computation-output fidelity at the final clock site."""
    circuit = _load_model_circuit(cfg)
    model = ClockModel(
        circuit=circuit, omega=cfg.get("omega", 1.0),
        h=cfg.get("h", config.DEFAULT_PENALTY_FACTOR),
    )
    setup = clock_setup(model)
    eps = cfg.get("eps")
    omega0 = cfg.get("omega0")
    if omega0 is None and cfg.get("r") is not None:
        omega0 = cfg["r"] * setup.band.delta
    if omega0 is not None:
        eps = None  # an explicit coupling overrides the defaulted target
    schedule = build_schedule(setup, omega0=omega0, eps=eps,
                              tau_mode=cfg.get("tau_mode", "exact"))
    eta = cfg.get("eta")
    if eta is not None:
        report = run_reduced(setup, schedule, eta=float(eta))
    else:
        report = run_deterministic(
            setup, schedule, mode=cfg.get("mode", "density"),
            shots=int(cfg.get("shots", 2000)), seed=int(cfg.get("seed", 0)),
        )
    body = {
        "report": _report_dict(report),
        "r": schedule.r,
        "omega0": schedule.omega0,
        "delta": setup.band.delta,
        # the cost of the ladder that ran, priced with its largest step norm
        "cost": {name: getattr(report, name) for name in ("total_time", "h_norm", "cost")},
    }
    if report.mode == "density":
        body["readout"] = _clock_readout(model, setup, report.final_state)
    summary = _summary(cfg, body)
    _write_json(out_dir / "clock_report.json", summary)
    return summary


def _clock_readout(model: ClockModel, setup, rho: DensityMatrix) -> dict:
    """Measure the clock register of the cooled state rho: probability of
    the final site and the conditional register fidelity against the ideal
    circuit output."""
    n, length = model.n, model.length
    dims = [2 ** n, 2 ** length, 2]
    rho_sys = partial_trace(rho, dims, keep=[0, 1])
    eta = setup.band.vector(0)
    ground_fid = float(np.real(eta.conj() @ rho_sys.entries @ eta))

    site_l = StateVector.basis(2 ** length, clock_site_index(length, length)).amplitudes
    proj = np.kron(np.eye(2 ** n, dtype=complex), np.outer(site_l, site_l.conj()))
    weighted = proj @ rho_sys.entries @ proj
    p_site = float(np.trace(weighted).real)
    if p_site > 1e-12:
        reg = partial_trace(DensityMatrix(weighted / p_site), [2 ** n, 2 ** length], keep=[0])
        ideal = register_history(model.circuit)[-1]
        out_fid = float(np.real(ideal.conj() @ reg.entries @ ideal))
    else:
        out_fid = 0.0
    return {
        "ground_fidelity": ground_fid,
        "final_site_probability": p_site,
        "output_fidelity_given_site": out_fid,
        "expected_site_weight": 1.0 / (length + 1),
    }


def run_prob(cfg: dict, out_dir: Path) -> dict:
    """Probabilistic qutrit-bath scheme on a clock model."""
    circuit = _load_model_circuit(cfg)
    model = ClockModel(
        circuit=circuit, omega=cfg.get("omega", 1.0),
        h=cfg.get("h", config.DEFAULT_PENALTY_FACTOR),
    )
    ext = clock_extension_setup(model)
    eps = float(cfg.get("eps", 0.1))
    r = cfg.get("r")
    if r is None:
        r = cfg.get("r_scale", 1.0) * ext.f1 * eps ** 1.5
    omega0 = r * ext.delta
    rabi = ext.rabi(omega0)
    omega_star = cfg.get("omega_star_rel", 0.9) * rabi
    report = run_probabilistic(
        ext,
        omega0=omega0,
        omega_star=omega_star,
        f1_lower=cfg.get("f1_lower", ext.f1),
        trials=int(cfg.get("trials", 2000)),
        seed=int(cfg.get("seed", 0)),
        max_rounds=int(cfg.get("max_rounds", 10 ** 6)),
    )
    summary = _summary(
        cfg,
        {
            "report": _report_dict(report),
            "r": r,
            "omega0": omega0,
            "rabi": rabi,
            "delta": ext.delta,
            "f1": ext.f1,
            "acceptance_ratio_vs_analytic": (
                report.acceptance_rate / report.analytic_acceptance
                if report.analytic_acceptance > 0
                else float("nan")
            ),
        },
    )
    _write_json(out_dir / "prob_report.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Bound suites and spectra
# ---------------------------------------------------------------------------

def run_bounds(cfg: dict, out_dir: Path) -> dict:
    """Run the randomized bound suites; any violation is dumped and flips
    the exit status."""
    names = cfg.get("suites", "all")
    if names == "all":
        names = list(SUITES)
    instances = int(cfg.get("instances", 100))
    seed = int(cfg.get("seed", 0))
    suites = {}
    any_violation = False
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}")
        rep = run_suite(name, instances, master_seed=seed, out_dir=out_dir)
        suites[name] = {
            "instances": rep.instances,
            "passes": rep.passes,
            "vacuous": rep.vacuous,
            "violations": list(rep.violations),
        }
        any_violation = any_violation or bool(rep.violations)
    replays = []
    for path in cfg.get("replay", []):
        entry = {"file": str(path)}
        try:
            payload = json.loads(Path(path).read_text())
            result = replay_instance(payload)
            entry["passed"] = result.passed
            entry["margins"] = list(result.margins)
            if not result.passed:
                any_violation = True
                dump_violation(
                    out_dir / f"violation_replay_{Path(path).stem}.json", payload
                )
        except HypothesisUnmet as exc:
            entry["vacuous"] = True
            entry["reason"] = str(exc)
        except Exception as exc:  # corrupted dumps count as violations
            entry["passed"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
            any_violation = True
            dump_violation(
                out_dir / f"violation_replay_{Path(path).stem}.json",
                {"file": str(path), "error": entry["error"]},
            )
        replays.append(entry)

    body = {"suites": suites, "violations_found": any_violation}
    if replays:
        body["replays"] = replays
    if cfg.get("protocol", True):
        gm = GroverModel(n=4, marked=frozenset({3}), omega0_coupling=0.02)
        cm = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        body["protocol_scaling"] = check_protocol_lemmas(
            gm, cm, r_grid=tuple(cfg.get("r_grid", (0.04, 0.02, 0.01)))
        )
    summary = _summary(cfg, body)
    _write_json(out_dir / "bounds_summary.json", summary)
    return summary


def run_spectrum(cfg: dict, out_dir: Path) -> dict:
    """Dump closed-form band data and measured gaps for clock models over
    an L range (identity circuits), optionally across penalty factors."""
    n = int(cfg.get("n", 1))
    l_values = list(range(int(cfg["L_min"]), int(cfg["L_max"]) + 1))
    if not l_values:
        raise ConfigError("empty L grid: need L_min <= L_max")
    h_values = cfg.get("h_grid", [cfg.get("h", config.DEFAULT_PENALTY_FACTOR)])
    if not h_values:
        raise ConfigError("empty penalty-factor grid")
    omega = cfg.get("omega", 1.0)
    rows = []
    norms = {}
    for length in l_values:
        text = "\n".join("G I 1" for _ in range(length))
        circuit = parse_circuit(text, n)
        for h in h_values:
            model = ClockModel(circuit=circuit, omega=omega, h=float(h))
            h_s = build_clock(model)
            spec = clock_spectrum(model, h_s)
            norm = operator_norm(h_s)
            norms[(length, float(h))] = norm
            for j in range(length + 1):
                rows.append(
                    (length, float(h), j, float(spec.omegas[j]), float(spec.xs[j]),
                     float(spec.hs[j]), float(spec.delta), norm)
                )
    _write_csv(
        out_dir / "spectrum.csv",
        "spectrum",
        ["L", "h", "j", "omega_j", "x_j", "h_j", "delta", "h_s_norm"],
        rows,
        cfg,
    )
    summary = _summary(
        cfg,
        {
            "norm_by_L": {
                str(length): norms[(length, float(h_values[0]))] for length in l_values
            },
            "rows": len(rows),
        },
    )
    _write_json(out_dir / "spectrum_summary.json", summary)
    return summary
