"""Every shipped config reproduces its golden outputs (`tests/golden/`,
written only by `refresh_golden.py`).

In the environment the goldens were made in, every JSON output must be
byte-identical and every CSV must have the recorded SHA-256.  Elsewhere
(another Python, numpy, BLAS or thread count) the last digits may move, so
the JSON outputs are compared field by field: ints, bools, strings and
nulls exactly, floats to 1e-9 relative, and the roundoff-natured
`trace_residual` and `min_eigenvalue` to 1e-12 absolute; the CSVs are
then not checked.

The goldens' environment records two OpenBLAS threads; rerun with one
thread, every output must still be byte-identical, since the lab's numbers
come from the band block, whose digits do not depend on the thread count.
"""

import json
import os
import subprocess
import sys

import pytest

from refresh_golden import (CONFIGS, GOLDEN, MANIFEST, ROOT, environment, mismatches,
                            run_config, sha256)

MANIFEST_DATA = json.loads(MANIFEST.read_text())
# fields whose value is roundoff, not physics: compared to an absolute bound
ROUNDOFF_ATOL = {"trace_residual": 1e-12, "min_eigenvalue": 1e-12}
FLOAT_RTOL = 1e-9


def test_the_goldens_cover_every_shipped_config():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == [c.stem for c in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shipped_config_reproduces_its_golden_outputs(tmp_path, config):
    outputs = run_config(config, tmp_path / "out")
    exact = environment() == MANIFEST_DATA["environment"]
    csvs = {name for name in outputs if name.endswith(".csv")}
    assert {f"{config.stem}/{name}" for name in csvs} == {
        key for key in MANIFEST_DATA["csv_sha256"] if key.startswith(f"{config.stem}/")}
    assert sorted(p.name for p in (GOLDEN / config.stem).iterdir()) == sorted(
        set(outputs) - csvs)
    for name, data in outputs.items():
        if name in csvs:
            if exact:
                assert sha256(data) == MANIFEST_DATA["csv_sha256"][f"{config.stem}/{name}"], name
            continue
        golden = (GOLDEN / config.stem / name).read_bytes()
        if exact:
            assert data == golden, f"{config.stem}/{name} is not byte-identical"
        else:
            diffs = mismatches(json.loads(golden), json.loads(data), FLOAT_RTOL, ROUNDOFF_ATOL)
            assert not diffs, f"{config.stem}/{name}: {diffs[:5]}"


def test_mismatches_applies_each_fields_tolerance():
    golden = {"a": 1.0, "n": 3, "ok": True, "s": "x", "none": None,
              "trace_residual": 1e-15, "xs": [1.0, 2.0]}

    def check(fresh):
        return mismatches(golden, fresh, FLOAT_RTOL, ROUNDOFF_ATOL)

    assert check(dict(golden, a=1.0 + 1e-12, trace_residual=5e-13)) == []
    assert check(dict(golden, a=1.0 + 1e-8)) == [".a: 1.0 -> 1.00000001 |delta| 1.00e-08"]
    assert check(dict(golden, trace_residual=2e-12))
    assert check(dict(golden, n=3.0))  # an int stays an int
    assert check(dict(golden, ok=1))
    assert check(dict(golden, xs=[1.0]))
    assert check(dict(golden, none=0.0))
    assert check({k: v for k, v in golden.items() if k != "s"})


def test_mismatches_with_no_tolerance_lists_every_moved_field():
    # the refresh's report: every field that moved at all, with its |delta|
    golden = {"r": {"f": 0.5, "xs": [1.0, 2.0], "n": 1}, "trace_residual": 1e-15}
    fresh = {"r": {"f": 0.5 + 2 ** -53, "xs": [1.0, 2.0], "n": 2}, "trace_residual": 2e-15}
    assert mismatches(golden, fresh) == [
        ".r.f: 0.5 -> 0.5000000000000001 |delta| 1.11e-16",
        ".r.n: 1 -> 2",
        ".trace_residual: 1e-15 -> 2e-15 |delta| 1.00e-15",
    ]
    assert mismatches(golden, golden) == []


# Runs every shipped config in one process and prints its environment and
# the SHA-256 of every output file.
_HASH_EVERY_OUTPUT = """
import json, sys
from pathlib import Path
from refresh_golden import CONFIGS, environment, run_config, sha256
out = Path(sys.argv[1])
hashes = {f"{c.stem}/{name}": sha256(data)
          for c in CONFIGS for name, data in run_config(c, out / c.stem).items()}
print(json.dumps({"environment": environment(), "sha256": hashes}))
"""


def test_goldens_are_byte_identical_at_one_blas_thread(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", _HASH_EVERY_OUTPUT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout.splitlines()[-1])
    assert fresh["environment"]["blas_threads"] == 1
    recorded = MANIFEST_DATA["environment"]
    differ = sorted(key for key in recorded.keys() | fresh["environment"].keys()
                    if key != "blas_threads"
                    and recorded.get(key) != fresh["environment"].get(key))
    if differ:
        pytest.skip(f"the goldens were made with another {', '.join(differ)} "
                    f"({recorded} against {fresh['environment']}), so their last "
                    f"digits may move")
    expected = dict(MANIFEST_DATA["csv_sha256"])
    for config in CONFIGS:
        for path in (GOLDEN / config.stem).iterdir():
            expected[f"{config.stem}/{path.name}"] = sha256(path.read_bytes())
    moved = sorted(name for name in expected.keys() | fresh["sha256"].keys()
                   if expected.get(name) != fresh["sha256"].get(name))
    assert not moved, f"not byte-identical at one BLAS thread: {moved}"
