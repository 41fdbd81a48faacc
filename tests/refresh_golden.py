"""Golden outputs of the shipped configs, and the script that writes them.

    python tests/refresh_golden.py

runs every `configs/*.json` from the repository root (their `gates_file`
paths are relative to it) and rewrites `tests/golden/`:

* `<config>/<file>.json`: each JSON output, byte for byte;
* `manifest.json`: the SHA-256 of each CSV output and the environment the
  outputs were made in (Python, numpy, BLAS and its thread count, and the
  CPU model, whose instruction set picks OpenBLAS's kernels).

This script is the only writer of `tests/golden/`; `test_golden.py` reruns
the configs with `run_config` and compares them with `mismatches`.  A
refresh that moves an output is a change of the program's numbers, so the
script prints every JSON field it moves (path, old value, new value and,
for a float, |delta|) and every CSV whose hash it changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "manifest.json"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def environment() -> dict:
    """What the outputs' last digits depend on: the Python and numpy
    versions, the BLAS numpy was built with, the number of threads
    OpenBLAS starts with (its environment variables, else the usable
    cores) and the CPU model."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next((int(os.environ[v]) for v in _THREAD_VARS if os.environ.get(v)),
                   len(os.sched_getaffinity(0)))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_config(config: Path, out_dir: Path) -> dict[str, bytes]:
    """Run one shipped config through `cli.main` from the repository root
    and return its output files, name -> bytes."""
    from qsc import cli

    experiment = json.loads(config.read_text())["experiment"]
    cwd = Path.cwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([experiment, "--config", str(config.relative_to(ROOT)),
                             "--out", str(out_dir)])
    finally:
        os.chdir(cwd)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"{config.name} exited with {code}")
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatches(golden, fresh, rtol: float = 0.0, atol: dict | None = None,
               path: str = "") -> list[str]:
    """Where `fresh` differs from `golden`, one line each: a float by more
    than `rtol` relative, or by more than `atol[field]` absolute for a
    field named in `atol`; any other value unless it has the same type and
    value.  A float's line reads "path: old -> new |delta| d".  With no
    tolerance it lists every field that moved."""
    atol = atol or {}
    if isinstance(golden, dict):
        if not isinstance(fresh, dict) or golden.keys() != fresh.keys():
            return [f"{path}: keys {sorted(golden)} -> {sorted(fresh or {})}"]
        return [m for key in golden
                for m in mismatches(golden[key], fresh[key], rtol, atol, f"{path}.{key}")]
    if isinstance(golden, list):
        if not isinstance(fresh, list) or len(golden) != len(fresh):
            return [f"{path}: {golden!r} -> {fresh!r}"]
        return [m for i, (g, f) in enumerate(zip(golden, fresh))
                for m in mismatches(g, f, rtol, atol, f"{path}[{i}]")]
    if type(golden) is float and type(fresh) is float:
        field = path.rsplit(".", 1)[-1].split("[", 1)[0]
        if field in atol:
            close = abs(golden - fresh) <= atol[field]
        else:
            close = math.isclose(golden, fresh, rel_tol=rtol, abs_tol=0.0)
        return [] if close else [f"{path}: {golden!r} -> {fresh!r} "
                                 f"|delta| {abs(golden - fresh):.2e}"]
    if type(golden) is not type(fresh) or golden != fresh:
        return [f"{path}: {golden!r} -> {fresh!r}"]
    return []


def _written() -> tuple[dict[str, bytes], dict[str, str]]:
    """The goldens on disk: each JSON output by "config/file", and the
    manifest's CSV hashes."""
    outputs = {f"{path.parent.name}/{path.name}": path.read_bytes()
               for path in GOLDEN.glob("*/*.json")}
    hashes = json.loads(MANIFEST.read_text())["csv_sha256"] if MANIFEST.exists() else {}
    return outputs, hashes


def refresh(scratch: Path) -> list[str]:
    """Rewrite `tests/golden/` from fresh runs of every shipped config, and
    return what moved: every changed JSON field (`mismatches`) and every
    CSV, JSON file or config that is new, gone or rehashed."""
    old_json, old_csv = _written()
    shutil.rmtree(GOLDEN, ignore_errors=True)
    csv_hashes = {}
    for config in CONFIGS:
        outputs = run_config(config, scratch / config.stem)
        (GOLDEN / config.stem).mkdir(parents=True)
        for name, data in outputs.items():
            if name.endswith(".csv"):
                csv_hashes[f"{config.stem}/{name}"] = sha256(data)
            else:
                (GOLDEN / config.stem / name).write_bytes(data)
    manifest = {"environment": environment(), "csv_sha256": csv_hashes}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    new_json, _ = _written()
    moved = [f"{key}: sha256 {old_csv.get(key)} -> {csv_hashes.get(key)}"
             for key in sorted(old_csv.keys() | csv_hashes.keys())
             if old_csv.get(key) != csv_hashes.get(key)]
    for key in sorted(old_json.keys() | new_json.keys()):
        if key not in old_json or key not in new_json:
            moved.append(f"{key}: {'new' if key in new_json else 'gone'}")
        elif old_json[key] != new_json[key]:
            moved += [f"{key} {line}" for line in mismatches(json.loads(old_json[key]),
                                                             json.loads(new_json[key]))]
    return moved


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        moved = refresh(Path(tmp))
    print(f"wrote {GOLDEN.relative_to(ROOT)} for {len(CONFIGS)} configs; "
          f"{len(moved)} moved{':' if moved else ''}")
    for line in moved:
        print(f"  {line}")
