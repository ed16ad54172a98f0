"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces every public function of rexosc's layers with a
wrapper that records one span per call: name, start, end, parent span and
job id, plus a work count where one is defined (points or operations). Spans
stay in memory; ``save`` writes them once, when the run ends. Calls between
functions of one module resolve through the module's globals, so the
wrappers also see calls made inside a layer.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("transform", "poly", "numerics", "_kernels", "model", "verify", "cli")

# span record fields
NAME, START, END, PARENT, JOB, COUNT, ERROR, NESTED = range(8)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _mesh_points(grids) -> tuple:
    if hasattr(grids, "n_points"):
        grids = [grids]
    return int(np.prod([g.n_points for g in grids])), len(grids)


def _public_functions(layer: str, module) -> dict:
    """The functions a layer exposes: its public names (``__all__`` for the
    kernel selector, whose functions live in the backend module)."""
    if layer == "_kernels":
        return {n: getattr(module, n) for n in module.__all__
                if callable(getattr(module, n))}
    return {n: f for n, f in vars(module).items()
            if not n.startswith("_") and inspect.isfunction(f)
            and f.__module__ == module.__name__}


class Tracer:
    """Records spans of the wrapped rexosc functions, in memory."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.jobs = []          # (pass index, job label) per job id
        self.passes = []        # (first span, end span) per traced pass
        self.meshes = []        # (span index, mesh points, dimension)
        self.job = -1
        self._stack = []
        self._active = []
        self._saved = []

    # -------------------------------------------------------------- wrapping
    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"rexosc.{layer}")
            for name, fn in _public_functions(layer, module).items():
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _counter(self, name: str):
        """Work count of one call, from its arguments."""
        if name == "_kernels.horner":
            return lambda a, k: (len(_arg(a, k, 0, "coefficients")) - 1) * np.size(
                _arg(a, k, 1, "points"))
        if name == "model.eigenfunction":
            def points(a, k):
                p = np.shape(_arg(a, k, 3, "point"))
                return int(np.prod(p[1:])) if len(p) > 1 else 1
            return points
        grids_at = {"verify.residual_scan": 3, "verify.pt_parity_eigenvalue": 4}
        if name in grids_at:
            def mesh(a, k, at=grids_at[name]):
                pts, dim = _mesh_points(_arg(a, k, at, "grids"))
                self.meshes.append((len(self.spans), pts, dim))
                return pts
            return mesh
        return None

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        counter = self._counter(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = counter(args, kwargs) if counter else 0
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.job, count, 0,
                   int(active[nid] > 0)]
            stack.append(len(spans))
            spans.append(rec)
            active[nid] += 1
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = 1
                raise
            finally:
                rec[END] = clock()
                active[nid] -= 1
                stack.pop()

        return wrapper

    # ---------------------------------------------------------- bookkeeping
    def begin_pass(self) -> None:
        self.passes.append((len(self.spans), None))

    def end_pass(self) -> None:
        self.passes[-1] = (self.passes[-1][0], len(self.spans))

    def begin_job(self, label: str) -> None:
        self.job = len(self.jobs)
        self.jobs.append((len(self.passes) - 1, label))

    # -------------------------------------------------------------- output
    def save(self, path, header: dict) -> None:
        """Write every span once, with the names, jobs and pass boundaries."""
        doc = dict(header, names=self.names, jobs=self.jobs, passes=self.passes,
                   fields=["name", "start", "end", "parent", "job", "count",
                           "error", "nested"], spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def summarize(names, spans, bounds) -> list:
    """Per span name and per (first, end) slice of ``spans``: calls, errors,
    total and self seconds, and summed work count.

    A span's self time is its duration minus that of its child spans. The
    total counts only the outermost span of a name, so a call nested in a
    call of the same name is not counted twice.
    """
    arr = np.array(spans, dtype=float).reshape(-1, 8)
    dur = arr[:, END] - arr[:, START]
    parent = arr[:, PARENT].astype(int)
    inner = parent >= 0
    own = dur - np.bincount(parent[inner], weights=dur[inner], minlength=len(arr))
    tables = []
    for first, end in bounds:
        sl = slice(first, end)
        nid = arr[sl, NAME].astype(int)
        outer = arr[sl, NESTED] == 0

        def per_name(weights, nid=nid):
            return np.bincount(nid, weights=weights, minlength=len(names))

        calls = per_name(None)
        cols = {"calls": calls, "errors": per_name(arr[sl, ERROR]),
                "total_s": per_name(np.where(outer, dur[sl], 0.0)),
                "self_s": per_name(own[sl]), "count": per_name(arr[sl, COUNT])}
        tables.append({name: {k: float(v[i]) for k, v in cols.items()}
                       for i, name in enumerate(names) if calls[i]})
    return tables
