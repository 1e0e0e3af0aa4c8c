"""In-memory span recorder for the traced run, and the wrappers that feed it.

The traced run replaces public lpseq names at the module where their caller
looks them up (``lpseq.simulate.estimate``, ``lpseq.estimators.project``,
``lpseq.projection.psi_many`` and so on).  Each replacement opens a span with
its layer name, start, end, parent span, and the cell id and trial index of
the observation being processed, then calls the original.  Spans are kept in
flat columns so a whole run fits in memory; they are written out once, at the
end.  Nothing inside ``src/`` is edited: the layers are measured from outside.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass

import numpy as np

# Root span the benchmark opens around each traced pass; not a layer.
PASS_SPAN = "bench.pass"


def _size(*arrays) -> int:
    return int(np.broadcast(*arrays).size)


# (module, attribute, span name, elements of the call or None).  Names whose
# caller looks them up in two modules are replaced in both.
TARGETS = (
    ("lpseq.simulate", "run_experiment", "simulate.run_experiment", None),
    ("lpseq.simulate", "estimate_risk", "simulate.estimate_risk", None),
    ("lpseq.simulate", "sample_observation", "simulate.sample_observation", None),
    ("lpseq.simulate", "keyed_generator", "rng.keyed_generator", None),
    ("lpseq.simulate", "estimate", "estimators.estimate", None),
    ("lpseq.simulate", "control_function", "rates.control_function", None),
    ("lpseq.estimators", "project", "projection.project", None),
    ("lpseq.projection", "project", "projection.project", None),
    ("lpseq.estimators", "soft_threshold", "shrinkage.soft_threshold",
     lambda y, *rest: _size(y)),
    ("lpseq.projection", "psi_many", "shrinkage.psi_many",
     lambda p, lam, t, *rest: _size(lam, t)),
    ("lpseq.shrinkage", "psi_many", "shrinkage.psi_many",
     lambda p, lam, t, *rest: _size(lam, t)),
    ("lpseq.projection", "prox_power_many", "shrinkage.prox_power_many",
     lambda p, lam, t, *rest: _size(lam, t)),
    ("lpseq.projection", "branch_roots", "shrinkage.branch_roots",
     lambda p, lam, t, upper, *rest: _size(lam, t, upper)),
    ("lpseq.shrinkage", "branch_roots", "shrinkage.branch_roots",
     lambda p, lam, t, upper, *rest: _size(lam, t, upper)),
)

LAYER_SPANS = tuple(dict.fromkeys(t[2] for t in TARGETS))


@dataclass(frozen=True)
class ProjectionRecord:
    """What one ``project`` call returned, as the checks and counters need it."""

    span: int
    p: float
    iterations: int
    kkt_residual: float
    duality_gap: float | None
    unchanged: bool  # the input was already inside the ball


class Tracer:
    """Append-only span table with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.cells: list[str] = []
        self._cell_ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.cell = array("i")
        self.trial = array("q")
        self.elements = array("q")
        self.start = array("d")
        self.end = array("d")
        self.projections: list[ProjectionRecord] = []
        self._stack: list[int] = []
        self._context = (-1, -1)

    def set_context(self, cell_id: str, trial: int) -> None:
        """Tag the spans that follow with this (cell, trial)."""
        ix = self._cell_ix.get(cell_id)
        if ix is None:
            ix = self._cell_ix[cell_id] = len(self.cells)
            self.cells.append(cell_id)
        self._context = (ix, trial)

    def context(self, span: int) -> tuple[str | None, int]:
        c = self.cell[span]
        return (self.cells[c] if c >= 0 else None), self.trial[span]

    def open(self, name: str, elements: int = 0) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self._context[0])
        self.trial.append(self._context[1])
        self.elements.append(elements)
        self.end.append(float("nan"))
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "cell": np.array(self.cell, dtype=np.int32),
            "trial": np.array(self.trial, dtype=np.int64),
            "elements": np.array(self.elements, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Write every span, with the name and cell tables, to an ``.npz``."""
        np.savez(path, names=np.array(self.names), cells=np.array(self.cells),
                 **self.columns())


def _wrap(tracer: Tracer, name: str, fn, elements):
    if name == "simulate.sample_observation":
        @functools.wraps(fn)
        def traced(theta_star, sigma, trial_key):
            tracer.set_context(trial_key.cell_id, trial_key.trial)
            span = tracer.open(name)
            try:
                return fn(theta_star, sigma, trial_key)
            finally:
                tracer.close(span)
        return traced

    if name == "simulate.estimate_risk":
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.set_context(signature.bind(*args, **kwargs).arguments.get("cell_id"), -1)
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
        return traced

    if name == "projection.project":
        @functools.wraps(fn)
        def traced(ball, y, *args, **kwargs):
            span = tracer.open(name, int(np.size(y)))
            try:
                res = fn(ball, y, *args, **kwargs)
            finally:
                tracer.close(span)
            tracer.projections.append(ProjectionRecord(
                span, ball.p, res.iterations, res.kkt_residual, res.duality_gap,
                bool(np.array_equal(res.point, y))))
            return res
        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, elements(*args, **kwargs) if elements else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every target with its traced wrapper; restore on exit.

    Yields the targets that no longer exist in the program, which the run
    reports instead of failing.
    """
    saved, missing = [], []
    try:
        for module_name, attr, name, elements in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, name, fn, elements))
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def per_pass(tracer: Tracer) -> list[dict]:
    """Per-layer aggregates of each pass the benchmark opened.

    Each entry maps a layer name to its ``calls``, ``elements``,
    ``max_elements``, ``busy_s`` and ``self_s``; self time is busy time minus
    the time of the span's direct children.  The pass entry also carries
    ``pass_s``, the wall time of the pass, and ``projections``, the records
    of the ``project`` calls made in it.  A pass's spans are the ones between
    its root and the next root, since spans are appended in call order.
    """
    col = tracer.columns()
    dur = col["end"] - col["start"]
    parent = col["parent"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=dur.size)
    roots = np.flatnonzero(col["name"] == tracer.names.index(PASS_SPAN))
    bounds = list(zip(roots, list(roots[1:]) + [dur.size]))
    rec_spans = [r.span for r in tracer.projections]
    n_names = len(tracer.names)

    out = []
    for lo, hi in bounds:
        name = col["name"][lo:hi]
        elems = col["elements"][lo:hi]
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=elems, minlength=n_names)
        busy = np.bincount(name, weights=dur[lo:hi], minlength=n_names)
        own = np.bincount(name, weights=self_time[lo:hi], minlength=n_names)
        biggest = np.zeros(n_names, dtype=np.int64)
        np.maximum.at(biggest, name, elems)
        entry = {"pass_s": float(dur[lo]),
                 "projections": tracer.projections[bisect.bisect_left(rec_spans, lo):
                                                   bisect.bisect_left(rec_spans, hi)]}
        for layer in LAYER_SPANS:
            k = tracer.names.index(layer) if layer in tracer.names else None
            entry[layer] = {
                "calls": int(calls[k]) if k is not None else 0,
                "elements": int(total[k]) if k is not None else 0,
                "max_elements": int(biggest[k]) if k is not None else 0,
                "busy_s": float(busy[k]) if k is not None else 0.0,
                "self_s": float(own[k]) if k is not None else 0.0,
            }
        out.append(entry)
    return out
