"""Reproducible experiment sweeps behind the command-line interface.

Every experiment takes a flat configuration dictionary that
`cli.load_config` resolved against the experiment's `CONFIG_KEYS` entry
(keys and value types checked, defaults filled in), writes CSV data
and/or a JSON summary into an output directory, and returns the summary.
Identical configuration and seeds give byte-identical outputs; every file
embeds the resolved configuration, the master seed, and the package
version.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from . import __version__, config
from .errors import ConfigError, HypothesisUnmet, SelfCheckFailed
from .cooling import (
    _step_hamiltonian,
    build_schedule,
    clock_block,
    clock_setup,
    extension_gap,
    extension_rabi,
    grover_setup,
    run_deterministic,
    run_probabilistic,
    run_reduced,
)
from .linalg import PROJ1, DensityMatrix, StateVector, partial_trace
from .models import (
    KET_DOWN,
    ClockModel,
    GroverModel,
    band_profile,
    build_clock,
    build_grover,
    clock_band_structure,
    grover_band_structure,
    load_circuit,
    overlap_coefficients,
    pad_with_identities,
    parse_circuit,
    random_state,
    register_history,
    shift_factors,
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

# Each experiment's config keys: key -> (JSON type, default).  A type is
# int, float (an int is accepted and kept as given), bool or str; a list
# [t] is a JSON list of t; a tuple accepts any of its members, and a string
# member is a literal value.  A None default leaves the key absent unless
# it is given, and its absence selects a derived value.
_CLOCK_MODEL = {
    "n": (int, 1), "circuit": ([str], ["G I 1", "G I 1"]), "gates_file": (str, None),
    "padding": (int, 0), "omega": (float, 1.0), "h": (float, config.DEFAULT_PENALTY_FACTOR),
    "eps": (float, 0.1), "r": (float, None),
}
_LADDER = {"tau_mode": (str, "exact"), "mode": (str, "density"), "shots": (int, 2000)}
CONFIG_KEYS = {
    "fig1": {
        "n_min": (int, 4), "n_max": (int, 9), "omega0_rel": (float, 0.05), "points": (int, 400),
        "scan_factor": (float, 8.0), "inset_n": (int, 7), "seed": (int, 0),
    },
    "grover": {
        "n": (int, 6), "marked": ([(int, str)], [0]), "omega1": (float, 1.0), "r": (float, 0.02),
        "omega0": (float, None), "detuning": (("corrected", "naive"), "corrected"), **_LADDER,
        "fiducial": (str, "uniform"), "ensemble_draws": (int, 0), "seed": (int, 0),
    },
    "clock": {**_CLOCK_MODEL, "omega0": (float, None), "eta": (float, None), **_LADDER,
              "seed": (int, 0)},
    "prob": {
        **_CLOCK_MODEL, "r_scale": (float, 1.0), "trials": (int, 2000),
        "omega_star_rel": (float, 0.9), "f1_lower": (float, None), "max_rounds": (int, 10 ** 6),
        "seed": (int, 0),
    },
    "bounds": {
        "suites": (("all", [str]), "all"), "instances": (int, 100), "protocol": (bool, True),
        "r_grid": ([float], [0.04, 0.02, 0.01]), "replay": ([str], []), "seed": (int, 0),
    },
    "spectrum": {
        "n": (int, 1), "L_min": (int, 2), "L_max": (int, 6),
        "h": (float, config.DEFAULT_PENALTY_FACTOR), "h_grid": ([float], None),
        "omega": (float, 1.0), "seed": (int, 0),
    },
}

# The least value of an integer config key, in every experiment that has
# the key: `cli.resolve_config` refuses a smaller one before the run.
CONFIG_MINIMUMS = {"seed": 0, "n": 1, "n_min": 1, "L_min": 1, "padding": 0, "instances": 1}


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
    """Write `payload` as strict JSON; a non-finite number in it is a bug
    of the experiment that built it."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise SelfCheckFailed(f"{path.name}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _summary(cfg: dict, body: dict) -> dict:
    return {"version": __version__, "config": cfg, **body}


def _report_dict(report) -> dict:
    """A run report's fields as JSON values: tuples become lists (nested
    ones too), a non-finite float (a trajectory run's error budget, the
    time per success of a run that accepted nothing) becomes None, and a
    run's final state is left out, so the summary equals its own strict
    JSON round trip."""
    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    return {name: plain(getattr(report, name)) for name in report.__slots__
            if name != "final_state"}


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
    ns = list(range(cfg["n_min"], cfg["n_max"] + 1))
    if not ns:
        raise ConfigError("empty n grid: need n_min <= n_max")
    if cfg["points"] < 10:
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
    inset = next((p for p in per_n if p["n"] == cfg["inset_n"]), per_n[-1])
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

def _parse_marked(raw) -> frozenset[int]:
    out = frozenset(int(m, 2) if isinstance(m, str) else m for m in raw)
    if not out:
        raise ConfigError("marked set must be nonempty")
    return out


def run_grover(cfg: dict, out_dir: Path) -> dict:
    """End-to-end search-model cooling run, on the model's two-band block
    (`grover_setup`)."""
    n = cfg["n"]
    model = GroverModel(
        n=n,
        marked=_parse_marked(cfg["marked"]),
        omega1=cfg["omega1"],
        omega0_coupling=cfg.get("omega0", cfg["r"] * cfg["omega1"]),
    )
    seed = cfg["seed"]
    draws = cfg["ensemble_draws"]
    if draws < 0:
        raise ConfigError(f"ensemble_draws must be >= 0, got {draws}")
    setup = grover_setup(model, kind=cfg["fiducial"], seed=seed)
    schedule = build_schedule(setup, omega0=model.omega0_coupling, tau_mode=cfg["tau_mode"])
    if cfg["detuning"] == "naive":
        steps = tuple(s._replace(omega_b=model.omega1) for s in schedule.steps)
        schedule = schedule._replace(steps=steps, eps_target=None)
    report = run_deterministic(setup, schedule, mode=cfg["mode"], shots=cfg["shots"], seed=seed)
    body = {"report": _report_dict(report), "r": schedule.r,
            "xs": [float(x) for x in setup.xs]}

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
    """A clock-model config's gates file, else its inline circuit, padded
    with identity gates."""
    if "gates_file" in cfg:
        try:
            circuit = load_circuit(cfg["gates_file"], cfg["n"])
        except OSError as exc:
            raise ConfigError(f"config key 'gates_file' cannot be read: {exc}") from exc
    else:
        circuit = parse_circuit("\n".join(cfg["circuit"]), cfg["n"])
    if cfg["padding"]:
        circuit = pad_with_identities(circuit, cfg["padding"])
    return circuit


def run_clock(cfg: dict, out_dir: Path) -> dict:
    """Cool a clock model, then read out the ground fidelity and the
    probability of the final clock site.

    The ladder (schedule, density or trajectory run, eta reduction) runs on
    the clock's exact (L+1)-band block (`clock_block`); Delta, the band
    vectors and the step norm come from the dense setup it was cut from,
    whose largest matrix is H_S: the step norm is read off the connected
    blocks of H* + V (`cooling._step_norm`), and the readout off the final
    band state (`_clock_readout`), so no composite-size matrix is formed.
    The eta reduction is a density-mode run, so `eta` with any other
    `mode` is a ConfigError.
    """
    eta = cfg.get("eta")
    if eta is not None and cfg["mode"] != "density":
        raise ConfigError(f"'eta' and 'mode' {cfg['mode']!r} do not go together: the eta "
                          "reduction runs the density ladder")
    model = ClockModel(circuit=_load_model_circuit(cfg), omega=cfg["omega"], h=cfg["h"])
    setup = clock_block(model)
    eps = cfg["eps"]
    omega0 = cfg.get("omega0")
    if omega0 is None and cfg.get("r") is not None:
        omega0 = cfg["r"] * setup.band.delta
    if omega0 is not None:
        eps = None  # an explicit coupling overrides the defaulted target
    schedule = build_schedule(setup, omega0=omega0, eps=eps, tau_mode=cfg["tau_mode"])
    if eta is not None:
        report = run_reduced(setup, schedule, eta=eta)
    else:
        report = run_deterministic(setup, schedule, mode=cfg["mode"], shots=cfg["shots"],
                                   seed=cfg["seed"])
    body = {
        "report": _report_dict(report),
        "r": schedule.r,
        "omega0": schedule.omega0,
        "delta": setup.band.delta,
        # the cost of the ladder that ran, priced with its largest step norm
        "cost": {name: getattr(report, name) for name in ("total_time", "h_norm", "cost")},
    }
    if report.final_state is not None:  # a density or an eta run
        body["readout"] = _clock_readout(model, report.final_state)
    summary = _summary(cfg, body)
    _write_json(out_dir / "clock_report.json", summary)
    return summary


def _clock_readout(model: ClockModel, final_state: DensityMatrix) -> dict:
    """Measure the clock register of the cooled band state: the ground
    fidelity and the probability of the final clock site.

    `final_state` is the block state, band (x) bath; its partial trace over
    the bath is the band density matrix rho_b.  Band vector k is sum_l
    c[k, l] |psi_l> (x) |l> (`band_profile`), with psi_l = U_l ... U_1 |0>
    the register history, so
      * the ground fidelity is rho_b[0, 0] (the same number as the run's);
      * band vector k puts c_k psi_L on the final site, c_k = c[k, L], so
        the site's probability is (c^T rho_b c) |psi_L|^2.
    Given that site the register is psi_L/|psi_L| whatever rho_b is, so its
    fidelity with the ideal output psi_L is |psi_L|^2 whatever the ladder
    did: a constant of the circuit, not reported.
    """
    length = model.length
    rho_b = partial_trace(final_state, [length + 1, 2], keep=[0]).entries
    c = band_profile(length)[:, length]
    psi_l = register_history(model.circuit)[-1]
    p_site = float((c @ rho_b @ c).real) * float(np.vdot(psi_l, psi_l).real)
    return {
        "ground_fidelity": float(rho_b[0, 0].real),
        "final_site_probability": p_site,
        "expected_site_weight": 1.0 / (length + 1),
    }


def run_prob(cfg: dict, out_dir: Path) -> dict:
    """Probabilistic qutrit-bath scheme on a clock model's setup, addressing
    its band 1."""
    model = ClockModel(circuit=_load_model_circuit(cfg), omega=cfg["omega"], h=cfg["h"])
    setup = clock_setup(model)
    f1 = float(setup.xs[1])
    delta = extension_gap(setup)
    if not cfg["eps"] > 0:
        raise ConfigError(f"eps must be > 0, got {cfg['eps']}")
    r = cfg.get("r", cfg["r_scale"] * f1 * cfg["eps"] ** 1.5)
    omega0 = r * delta
    rabi = extension_rabi(setup, omega0)
    report = run_probabilistic(
        setup,
        omega0=omega0,
        omega_star=cfg["omega_star_rel"] * rabi,
        f1_lower=cfg.get("f1_lower", f1),
        trials=cfg["trials"],
        seed=cfg["seed"],
        max_rounds=cfg["max_rounds"],
    )
    summary = _summary(
        cfg,
        {
            "report": _report_dict(report),
            "r": r,
            "omega0": omega0,
            "rabi": rabi,
            "delta": delta,
            "f1": f1,
            "acceptance_ratio_vs_analytic": (
                report.acceptance_rate / report.analytic_acceptance
                if report.analytic_acceptance > 0
                else None
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
    the exit status.  The bounds lab is imported here, so no other command
    loads it."""
    from .bounds import SUITES, check_protocol_lemmas, dump_violation, replay_instance, run_suite

    names = list(SUITES) if cfg["suites"] == "all" else cfg["suites"]
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ConfigError(f"bounds config key 'suites' names unknown suite(s): "
                          f"{', '.join(map(repr, unknown))}")
    suites = {}
    any_violation = False
    for name in names:
        rep = run_suite(name, cfg["instances"], master_seed=cfg["seed"], out_dir=out_dir)
        suites[name] = {
            "instances": rep.instances,
            "passes": rep.passes,
            "vacuous": rep.vacuous,
            "violations": list(rep.violations),
        }
        any_violation = any_violation or bool(rep.violations)
    replays = []
    for path in cfg["replay"]:
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
    if cfg["protocol"]:
        gm = GroverModel(n=4, marked=frozenset({3}), omega0_coupling=0.02)
        cm = ClockModel(circuit=parse_circuit("G I 1\nG I 1\n", 1))
        body["protocol_scaling"] = check_protocol_lemmas(
            gm, cm, r_grid=tuple(cfg["r_grid"]))
    summary = _summary(cfg, body)
    _write_json(out_dir / "bounds_summary.json", summary)
    return summary


def run_spectrum(cfg: dict, out_dir: Path) -> dict:
    """Dump closed-form band data and measured gaps for clock models over
    an L range (identity circuits), optionally across penalty factors."""
    if cfg["L_max"] < cfg["L_min"]:
        raise ConfigError(f"spectrum config key 'L_max' must be >= L_min = {cfg['L_min']}, "
                          f"got {cfg['L_max']}")
    l_values = list(range(cfg["L_min"], cfg["L_max"] + 1))
    h_values = cfg.get("h_grid", [cfg["h"]])
    if not h_values:
        raise ConfigError("empty penalty-factor grid")
    rows = []
    norms = {}
    for length in l_values:
        text = "\n".join("G I 1" for _ in range(length))
        circuit = parse_circuit(text, cfg["n"])
        xs, hs = overlap_coefficients(length), shift_factors(length)
        for h in h_values:
            model = ClockModel(circuit=circuit, omega=cfg["omega"], h=h)
            h_s = build_clock(model)
            band = clock_band_structure(model, h_s)
            # |H_S|, read off the ends of the spectrum the band measured
            norm = float(max(-band.spectrum[0], band.spectrum[-1]))
            norms[(length, h)] = norm
            for j in range(length + 1):
                rows.append(
                    (length, h, j, float(band.omegas[j]), float(xs[j]),
                     float(hs[j]), float(band.delta), norm)
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
            "norm_by_L": {str(length): norms[(length, h_values[0])] for length in l_values},
            "rows": len(rows),
        },
    )
    _write_json(out_dir / "spectrum_summary.json", summary)
    return summary
