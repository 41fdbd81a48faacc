"""Golden outputs of the shipped configs, and the script that writes them.

    python tests/refresh_golden.py

runs every `configs/*.json` from the repository root (their `gates_file`
paths are relative to it) and rewrites `tests/golden/`:

* `<config>/<file>.json`: each JSON output, byte for byte;
* `manifest.json`: the SHA-256 of each CSV output and the environment the
  outputs were made in (Python, numpy, BLAS and its thread count, and the
  CPU model, whose instruction set picks OpenBLAS's kernels).

This script is the only writer of `tests/golden/`; `test_golden.py` reruns
the configs with `run_config` and compares.  A refresh that moves an
output is a change of the program's numbers: list every moved field.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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


def refresh(scratch: Path) -> None:
    """Rewrite `tests/golden/` from fresh runs of every shipped config."""
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


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        refresh(Path(tmp))
    print(f"wrote {GOLDEN.relative_to(ROOT)} for {len(CONFIGS)} configs")
