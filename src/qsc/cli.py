"""Command-line interface.

    qsc fig1|grover|clock|prob|bounds|spectrum --config FILE [--seed S] [--out DIR]

Configuration files are JSON; the per-experiment schemas are documented in
the README.  A --seed on the command line overrides the config's seed.
Exit codes: 0 success, 1 bound or acceptance violation or a failed
self-check, 2 configuration error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    CouplingTooLarge,
    DimensionTooLarge,
    ParseError,
    QscError,
)
from . import experiments

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

_DEFAULTS: dict[str, dict] = {
    "fig1": {
        "n_min": 4, "n_max": 9, "omega0_rel": 0.05, "points": 400,
        "scan_factor": 8.0, "inset_n": 7, "seed": 0,
    },
    "grover": {
        "n": 6, "marked": [0], "r": 0.02, "detuning": "corrected",
        "tau_mode": "exact", "mode": "density", "shots": 2000, "seed": 0,
        "fiducial": "uniform", "ensemble_draws": 0,
    },
    "clock": {
        "n": 1, "circuit": ["G I 1", "G I 1"], "eps": 0.1,
        "tau_mode": "exact", "mode": "density", "shots": 2000, "seed": 0,
    },
    "prob": {
        "n": 1, "circuit": ["G I 1", "G I 1"], "eps": 0.1, "trials": 2000,
        "omega_star_rel": 0.9, "seed": 0, "max_rounds": 1000000,
    },
    "bounds": {"suites": "all", "instances": 100, "seed": 0, "protocol": True},
    "spectrum": {"n": 1, "L_min": 2, "L_max": 6, "h": 0.1, "seed": 0},
}

_RUNNERS = {
    "fig1": experiments.run_fig1,
    "grover": experiments.run_grover,
    "clock": experiments.run_clock,
    "prob": experiments.run_prob,
    "bounds": experiments.run_bounds,
    "spectrum": experiments.run_spectrum,
}


def load_config(path: str | None, experiment: str) -> dict:
    cfg = dict(_DEFAULTS[experiment])
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        declared = user.pop("experiment", experiment)
        if declared != experiment:
            raise ConfigError(
                f"config declares experiment {declared!r}, command is {experiment!r}"
            )
        cfg.update(user)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsc",
        description="Simulated-cooling numerical laboratory",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default="qsc_out", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.experiment)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out)
        summary = _RUNNERS[args.experiment](cfg, out_dir)
    except (ConfigError, ParseError, CouplingTooLarge, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionTooLarge as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except QscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION

    if args.experiment == "bounds" and summary.get("violations_found"):
        print("bound violations found; dumps written", file=sys.stderr)
        return EXIT_VIOLATION
    print(json.dumps({k: summary[k] for k in summary if k != "config"}, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
