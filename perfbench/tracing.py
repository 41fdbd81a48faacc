"""Outside-in tracing of qsc: spans around its public functions, recorded
from the benchmark's own files, with no change to qsc.

`Tracer.install()` wraps

* every public function defined in the qsc layer modules (cli,
  experiments, models, levelshift, cooling, bounds, linalg);
* the validating constructors `Operator.__post_init__` and
  `DensityMatrix.__post_init__`;
* the `numpy.linalg` entry points qsc calls (a 2-D `norm(., 2)` and `cond`
  each cost one SVD and are counted together as `linalg.lapack.svd2norm`).

qsc binds names with `from .x import f`, so a wrapper is installed under
every name and in every module-level dict of every qsc module that holds
the original function, not only in the module that defines it.

Spans are kept in memory as flat arrays (name, parent, start, end, matrix
size) and summarized once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYER_MODULES = ("cli", "experiments", "models", "levelshift", "cooling", "bounds", "linalg")

# Span names that group several functions under one layer metric.
SPAN_GROUPS = {
    "cooling.clock_setup": "cooling.setup",
    "cooling.grover_setup": "cooling.setup",
}

VALIDATORS = {"Operator": "linalg.Operator.validate",
              "DensityMatrix": "linalg.DensityMatrix.validate"}

LAPACK = {
    "eigh": "linalg.lapack.eigh",
    "eigvalsh": "linalg.lapack.eigvalsh",
    "solve": "linalg.lapack.solve",
    "cond": "linalg.lapack.svd2norm",
    "svd": "linalg.lapack.svd",
    "inv": "linalg.lapack.inv",
    "qr": "linalg.lapack.qr",
}
SVD_NORM = "linalg.lapack.svd2norm"


def span_name(module: str, func: str) -> str:
    name = f"{module}.{func}"
    if module == "experiments" and func.startswith("run_"):
        return "experiments.run"
    return SPAN_GROUPS.get(name, name)


def _matrix_size(args, kwargs) -> int:
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(a, "shape", ())
    return int(shape[-1]) if shape else 0


class Tracer:
    """Records one span per call of each function it wraps."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack: list[int] = []
        self._undo: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, size_of=None):
        """`fn` with a span named `name` around every call."""
        nid = self._intern(name)
        clock, stack = self._clock, self._stack
        name_id, parent, start, end, size = (
            self.name_id, self.parent, self.start, self.end, self.size)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            size.append(size_of(args, kwargs) if size_of else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, package: str = "qsc") -> None:
        """Wrap qsc's layers and the numpy.linalg entry points."""
        import numpy.linalg as la

        wrappers: dict[int, object] = {}
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(span_name(layer, attr), obj)
        linalg = importlib.import_module(f"{package}.linalg")
        for cls, name in VALIDATORS.items():
            klass = getattr(linalg, cls)
            self._set(klass, "__post_init__", self.wrap(name, klass.__post_init__))

        pkg_modules = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == package or key.startswith(package + "."))]
        for mod in pkg_modules:
            space = vars(mod)
            for attr, obj in list(space.items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)])

        for attr, name in LAPACK.items():
            self._set(la, attr, self.wrap(name, getattr(la, attr), _matrix_size))
        self._set(la, "norm", self._wrap_norm(la.norm))

    def _wrap_norm(self, norm):
        svd_norm = self.wrap(SVD_NORM, norm, _matrix_size)

        @functools.wraps(norm)
        def traced_norm(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and getattr(x, "ndim", 0) == 2:
                return svd_norm(x, ord, axis, keepdims)
            return norm(x, ord, axis, keepdims)

        return traced_norm

    def uninstall(self) -> None:
        """Put back every original the last `install` replaced."""
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def spans(self) -> dict:
        return {"names": self.names, "name_id": self.name_id, "parent": self.parent,
                "start": self.start, "end": self.end, "size": self.size}

    def save(self, path) -> None:
        """Write all spans: a JSON header line, then the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start)}
            fh.write(json.dumps(header).encode() + b"\n")
            for key in _ARRAY_KEYS:
                getattr(self, key).tofile(fh)


_ARRAY_KEYS = ("name_id", "parent", "start", "end", "size")


def load(path) -> dict:
    """Spans written by `Tracer.save`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = {"names": header["names"]}
        for key, code in zip(_ARRAY_KEYS, "iiddq"):
            a = array(code)
            a.fromfile(fh, header["count"])
            spans[key] = a
    return spans


def layer_of(span: str) -> str:
    """The layer a span name belongs to: its qsc module, or `lapack` for the
    numpy.linalg entry points."""
    return "lapack" if span.startswith("linalg.lapack.") else span.split(".", 1)[0]


def summarize(spans: dict, group=None) -> dict[str, dict]:
    """Per span name, or per `group(name)` when given: calls, inclusive
    seconds `s`, self seconds `self_s`, largest matrix size `max_n` and the
    sum of cubed sizes `n3`.

    A span's self time is its duration minus the durations of its direct
    children (which, in one thread, never overlap).  Inclusive time counts
    only spans with no ancestor in the same group, so a group nested in
    itself is not counted twice.
    """
    names, name_id, parent = spans["names"], spans["name_id"], spans["parent"]
    start, end, size = spans["start"], spans["end"], spans["size"]
    keys = [group(name) if group else name for name in names]
    count = len(name_id)
    child_time = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    out = {key: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_n": 0, "n3": 0}
           for key in keys}
    open_spans: list[int] = []
    open_keys: Counter = Counter()
    for i in range(count):
        while open_spans and open_spans[-1] != parent[i]:
            open_keys[keys[name_id[open_spans.pop()]]] -= 1
        key = keys[name_id[i]]
        dur = end[i] - start[i]
        row = out[key]
        row["calls"] += 1
        row["self_s"] += dur - child_time[i]
        if open_keys[key] == 0:
            row["s"] += dur
        n = size[i]
        row["max_n"] = max(row["max_n"], n)
        row["n3"] += n ** 3
        open_spans.append(i)
        open_keys[key] += 1
    return out
