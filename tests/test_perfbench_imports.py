"""The benchmark under ``perfbench/`` still finds every lpseq name it uses.

The benchmark imports lpseq names at module level, reads attributes of the
``estimators``, ``projection`` and ``simulate`` modules at run time, and
wraps the names listed in ``spans.TARGETS`` for its traced run, where a
missing target only zeroes that layer's metrics.  A removal from lpseq that
breaks any of these shows here, not only when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import lpseq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Targets already gone from the program: projection.py no longer imports
# prox_power_many, so the traced run reports it as unwrapped.
KNOWN_STALE_TARGETS = {"lpseq.projection.prox_power_many"}


def test_benchmark_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")  # imports spans and hostspeed too
    spans = importlib.import_module("spans")

    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {"estimators", "projection", "simulate"}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used  # the scan sees the run-time lookups
    missing = [f"lpseq.{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(getattr(workloads, module), attr)]
    assert missing == []

    unresolved = {f"{module}.{attr}" for module, attr, _, _ in spans.TARGETS
                  if not hasattr(importlib.import_module(module), attr)}
    assert unresolved <= KNOWN_STALE_TARGETS

    assert [name for name in lpseq.__all__ if not hasattr(lpseq, name)] == []


def test_benchmark_cells_are_the_configs_cells(monkeypatch):
    # the benchmark's reference pass keeps its own copy of the cell loop, so a
    # divergence from run_experiment's cells would first show there as wrong mse
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name in ("fig2a", "fig2b_p13"):
        inputs = workloads.build_inputs(name, workloads.DEFAULT_SEED)
        cells = list(inputs.config.cells())
        assert len(cells) == len(inputs.cells) > 0
        for bench, (cell_id, spec, theta, sigma, _) in zip(inputs.cells, cells):
            assert (bench.cell_id, bench.spec) == (cell_id, spec)
            assert np.float64(bench.sigma).tobytes() == np.float64(sigma).tobytes()
            assert bench.theta.tobytes() == theta.tobytes()
