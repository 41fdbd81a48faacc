"""Command-line interface.

    qsc fig1|grover|clock|prob|bounds|spectrum --config FILE [--seed S] [--out DIR]

Configuration files are JSON; each experiment's keys, value types and
defaults are declared in `experiments.CONFIG_KEYS` and listed in the
README.  A --seed on the command line overrides the config's seed.  The
error's type sets the exit code (`errors`): 0 success, 1 a violation or a
failed self-check, 2 a config error, 3 the resource cap, 4 a program fault
(any other exception, printed with its traceback).
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, DimensionTooLarge, QscError
from . import experiments

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_RUNNERS = {
    "fig1": experiments.run_fig1,
    "grover": experiments.run_grover,
    "clock": experiments.run_clock,
    "prob": experiments.run_prob,
    "bounds": experiments.run_bounds,
    "spectrum": experiments.run_spectrum,
}


def load_config(path: str | None, experiment: str, seed: int | None = None) -> dict:
    """The experiment's resolved config: the JSON object in the file at
    `path` (no file: all defaults), with `seed` (the --seed option), when
    given, in place of its seed, checked by `resolve_config`."""
    user = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
    if seed is not None:
        user["seed"] = seed
    return resolve_config(user, experiment)


def resolve_config(user: dict, experiment: str) -> dict:
    """`user` checked against `experiments.CONFIG_KEYS[experiment]` (an
    unknown key, a value of the wrong type, a non-positive value of an
    `experiments.CONFIG_POSITIVE` key or a number outside its
    `experiments.CONFIG_MINIMUMS` or `CONFIG_MAXIMUMS` entry is a
    ConfigError that names the key),
    then completed with the defaults of the keys it leaves out."""
    keys = experiments.CONFIG_KEYS[experiment]
    user = dict(user)
    declared = user.pop("experiment", experiment)
    if declared != experiment:
        raise ConfigError(f"config declares experiment {declared!r}, command is {experiment!r}")
    unknown = sorted(set(user) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {experiment} config key(s): {', '.join(unknown)}")
    for key, value in user.items():
        kind = keys[key][0]
        if not _fits(value, kind):
            raise ConfigError(f"{experiment} config key {key!r} must be {_describe(kind)}, "
                              f"got {json.dumps(value)}")
    for key in experiments.CONFIG_POSITIVE:
        if key in user and not user[key] > 0:
            raise ConfigError(f"{experiment} config key {key!r} must be > 0, got {user[key]}")
    for key, least in experiments.CONFIG_MINIMUMS.items():
        if key in user and user[key] < least:
            raise ConfigError(f"{experiment} config key {key!r} must be >= {least}, "
                              f"got {user[key]}")
    for key, most in experiments.CONFIG_MAXIMUMS.items():
        if key in user and user[key] > most:
            raise ConfigError(f"{experiment} config key {key!r} must be <= {most}, "
                              f"got {user[key]}")
    cfg = {key: copy.deepcopy(default) for key, (_, default) in keys.items()
           if default is not None}
    if "gates_file" in user:
        # a gates file replaces the default circuit, so the echo shows the
        # circuit that ran
        if "circuit" in user:
            raise ConfigError("give 'gates_file' or 'circuit', not both")
        del cfg["circuit"]
    cfg.update(user)
    return cfg


def _fits(value, kind) -> bool:
    """Whether a JSON value has a `CONFIG_KEYS` type (a float is finite)."""
    if isinstance(kind, tuple):
        return any(_fits(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0]) for v in value)
    if isinstance(kind, str):
        return value == kind
    if kind is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is kind


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_describe(k) for k in kind)
    if isinstance(kind, list):
        return f"a list of {_describe(kind[0])}"
    return json.dumps(kind) if isinstance(kind, str) else kind.__name__


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
    # Move the import-time heap (~22k objects of numpy and qsc) to the
    # permanent generation: no collection during the run walks it, nor do
    # the collections at interpreter shutdown (exit after `import qsc.cli`
    # takes ~15 ms instead of ~45 ms on 2 vCPUs).
    gc.freeze()

    try:
        cfg = load_config(args.config, args.experiment, args.seed)
        out_dir = Path(args.out)
        summary = _RUNNERS[args.experiment](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionTooLarge as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except QscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except Exception:
        import traceback  # only a fault loads it

        traceback.print_exc()
        return EXIT_INTERNAL

    if args.experiment == "bounds" and summary.get("violations_found"):
        print("bound violations found; dumps written", file=sys.stderr)
        return EXIT_VIOLATION
    print(json.dumps({k: summary[k] for k in summary if k != "config"}, sort_keys=True,
                     allow_nan=False))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
