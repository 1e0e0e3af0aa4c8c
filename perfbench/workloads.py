"""The benchmark's workloads: their inputs, timed and traced loops, and checks.

Every workload drives lpseq only through public functions, from one thread:
``run_experiment(config, threads=1)`` for the two risk-curve workloads and
``project`` for the nonconvex one.  Inputs come from the workload seed alone.
"""

from __future__ import annotations

import json
import math
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lpseq import estimators, projection, simulate
from lpseq.estimators import EstimatorSpec
from lpseq.projection import LpBall, lp_norm
from lpseq.rng import keyed_generator
from lpseq.simulate import ExperimentConfig, TrialKey

import spans
from hostspeed import HostClock

DEFAULT_SEED = 0

# Sizes: one fig2a repeat (a whole run_experiment call) takes about 0.12 s,
# fig2b_p13 about 0.6 s and one nonconvex_p05 call about 0.3 s when the
# benchmark was defined.
FIG2A_REPS = 16
FIG2B_REPS = 4  # 40 mle calls, enough for a tail with 10 beyond it
P05_DIM = 1000
P05_INPUTS = 24  # distinct inputs, visited in turn; a tail needs > 20
P05_TRACE_CALLS = 4  # inputs per traced pass
MIN_VISITS = 2  # each timed project call is timed at least this often
REF_EVERY = 3  # run_experiment repeats per timed reference pass
MIN_PASSES = 2  # traced passes at least, so counters can be compared

# Output checks.  The mse tolerance sits above the projection's own accuracy
# (dual-sum gap 1e-10), so a re-ordered but equally accurate solver passes;
# at the time the benchmark was defined the deviation is exactly 0.
MSE_REL_TOL = 1e-8
KKT_TOL = 1e-9  # the CLI's 10 * tol rule at the default tol 1e-10
FEAS_TOL = 1e-9  # ||x||_p <= r (1 + FEAS_TOL)
OBJ_REL_TOL = 1e-9  # objective may not exceed the reference by more
REFERENCE = Path(__file__).with_name("reference_nonconvex_p05.json")


@dataclass(frozen=True)
class Cell:
    cell_id: str
    d: int
    kind: str
    spec: EstimatorSpec
    theta: np.ndarray
    sigma: float


@dataclass(frozen=True)
class ExperimentInputs:
    config: ExperimentConfig
    cells: tuple[Cell, ...]

    @property
    def estimates(self) -> int:
        return len(self.cells) * self.config.reps


@dataclass(frozen=True)
class ProjectInputs:
    seed: int
    ball: LpBall
    ys: np.ndarray  # (P05_INPUTS, P05_DIM)


@dataclass
class Outcome:
    """What a run did: operations, failures, timings, checks."""

    attempted: int = 0
    failed: int = 0
    # per timed repeat: wall_s, cpu_s, host slowdown, estimates
    samples: list = field(default_factory=list)
    # per distinct project call: its (wall_s, host slowdown) timings
    calls: dict = field(default_factory=dict)
    peak_rss_mb: float = math.nan
    checks: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # traced run: spans.per_pass()

    def problem(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    def repeat_timed(self, wall: float, cpu: float, slowdown: float, estimates: int) -> None:
        self.samples.append({"wall_s": wall, "cpu_s": cpu, "slowdown": slowdown,
                             "estimates": estimates})


def build_inputs(workload: str, seed: int):
    """The inputs of one workload; the same seed gives the same inputs."""
    if workload == "nonconvex_p05":
        d = P05_DIM
        e1 = np.zeros(d)
        e1[0] = 1.0
        ys = np.stack([e1 + d**-0.5 * keyed_generator(seed, workload, i).standard_normal(d)
                       for i in range(P05_INPUTS)])
        return ProjectInputs(seed, LpBall(p=0.5, dim=d, radius=1.0), ys)
    if workload == "fig2a":
        config = ExperimentConfig(regime="fig2a", p=1.5, sigma_rule="spike",
                                  reps=FIG2A_REPS, estimators=("mle", "soft_threshold"),
                                  seed=seed)
    elif workload == "fig2b_p13":
        config = ExperimentConfig(regime="fig2b", p=1.3, sigma_rule="flat",
                                  reps=FIG2B_REPS, estimators=("mle", "soft_threshold"),
                                  seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cells = []
    for d in config.d_grid:
        sigma = config.sigma_for(d)
        ball = LpBall(p=config.p, dim=d, radius=config.radius)
        for kind in config.estimators:
            cells.append(Cell(simulate.cell_id_for(config, d, kind), d, kind,
                              EstimatorSpec(kind=kind, ball=ball, noise_level=sigma),
                              config.theta_for(d), sigma))
    return ExperimentInputs(config, tuple(cells))


def measure(inputs, seconds: float, between=None) -> Outcome:
    """Untraced run for ``seconds``, checking every output as it goes.

    Every timed block of work is followed by a host-speed probe, so each
    timing carries the host's slowdown over it.  ``between(elapsed_s)`` is
    called between blocks, so the caller can spread its own work over the
    run; it returns True if it did any.
    """
    out = Outcome()
    between = between or (lambda elapsed: False)
    if isinstance(inputs, ProjectInputs):
        _measure_projections(inputs, seconds, between, out)
    else:
        _measure_experiment(inputs, seconds, between, out)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB
    return out


def trace(inputs, seconds: float, tracer: spans.Tracer) -> Outcome:
    """Traced run: the same operations, with every layer call recorded."""
    out = Outcome()
    if isinstance(inputs, ProjectInputs):
        _trace_projections(inputs, seconds, tracer, out)
    else:
        _trace_experiment(inputs, seconds, tracer, out)
    return out


def _timed(fn, *args):
    """Call ``fn``; return (result or None if it raised, wall s, cpu s)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = fn(*args)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        result = None
    return result, time.perf_counter() - t0, time.process_time() - c0


def _rel_dev(value: float, ref: float) -> float:
    dev = abs(value - ref) / abs(ref) if ref != 0 else abs(value)
    return dev if math.isfinite(dev) else math.inf


# --- run_experiment workloads ------------------------------------------------


def _run_rows(config: ExperimentConfig):
    # looked up on the module at each call, so the traced run sees its wrapper
    return simulate.run_experiment(config, threads=1).rows


def reference_pass(inputs: ExperimentInputs, out: Outcome | None = None,
                   clock: HostClock | None = None) -> dict:
    """Per-cell mse from the spec of ``estimate_risk``: a per-trial loop.

    Uses only the public ``sample_observation`` and ``estimate``.  With
    ``out`` and ``clock`` given, each ``estimate`` call of an ``mle`` cell (one
    projection) is timed under the key (cell id, trial), and the host is
    probed after each cell.
    """
    seed, reps = inputs.config.seed, inputs.config.reps
    mse = {}
    for cell in inputs.cells:
        errors = np.empty(reps)
        walls = []
        try:
            for trial in range(reps):
                y = simulate.sample_observation(cell.theta, cell.sigma,
                                                TrialKey(seed, cell.cell_id, trial))
                t0 = time.perf_counter()
                fitted = estimators.estimate(cell.spec, y)
                walls.append(time.perf_counter() - t0)
                errors[trial] = float(np.sum((fitted - cell.theta) ** 2))
        except Exception:  # the cell's check fails; the run goes on
            traceback.print_exc()
            errors[:] = math.nan
        mse[cell.cell_id] = float(np.mean(errors))
        if clock is not None:
            slowdown = clock.tick()
            if cell.kind == "mle":
                for trial, wall in enumerate(walls):
                    out.calls.setdefault((cell.cell_id, trial), []).append((wall, slowdown))
    return mse


def _bad_cells(inputs: ExperimentInputs, mse: dict, ref_mse: dict, what: str,
               out: Outcome) -> set:
    """Cells whose mse deviates from the first reference pass."""
    bad = set()
    for cell in inputs.cells:
        dev = _rel_dev(mse.get(cell.cell_id, math.nan), ref_mse[cell.cell_id])
        out.checks["mse_max_rel_dev"] = max(out.checks.get("mse_max_rel_dev", 0.0), dev)
        if not dev <= MSE_REL_TOL:
            out.problem(f"{what} {cell.cell_id}: mse {mse.get(cell.cell_id)!r}"
                        f" vs reference {ref_mse[cell.cell_id]!r}")
            bad.add(cell.cell_id)
    return bad


def _rows_mse(inputs: ExperimentInputs, rows, out: Outcome) -> dict:
    """run_experiment's mse per cell id; empty if it raised or rows are off."""
    expected = [(c.d, c.kind, inputs.config.reps) for c in inputs.cells]
    if rows is None or [(r.d, r.estimator, r.reps) for r in rows] != expected:
        out.problem("run_experiment raised or returned rows for other cells")
        return {}
    return {cell.cell_id: row.mse_mean for cell, row in zip(inputs.cells, rows)}


def _measure_experiment(inputs: ExperimentInputs, seconds: float, between,
                        out: Outcome) -> None:
    """Timed run_experiment repeats, with a timed reference pass every few."""
    config = inputs.config
    _timed(_run_rows, config)  # warm-up: lazy imports and allocator pools
    out.checks["mse_max_rel_dev"] = 0.0
    ref_mse = None
    clock = HostClock()
    start = time.perf_counter()
    while len(out.samples) < MIN_VISITS * REF_EVERY or time.perf_counter() - start < seconds:
        rows, wall, cpu = _timed(_run_rows, config)
        out.repeat_timed(wall, cpu, clock.tick(), inputs.estimates)
        out.attempted += inputs.estimates
        if len(out.samples) % REF_EVERY == 1:
            mse = reference_pass(inputs, out, clock)
            if ref_mse is None:
                ref_mse = mse
            out.attempted += inputs.estimates
            out.failed += config.reps * len(
                _bad_cells(inputs, mse, ref_mse, "reference pass", out))
        out.failed += config.reps * len(
            _bad_cells(inputs, _rows_mse(inputs, rows, out), ref_mse, "row", out))
        if between(time.perf_counter() - start):
            clock = HostClock()


def _trace_experiment(inputs: ExperimentInputs, seconds: float, tracer: spans.Tracer,
                      out: Outcome) -> None:
    config = inputs.config
    ref_mse = reference_pass(inputs)  # untraced; also the warm-up
    out.checks["mse_max_rel_dev"] = 0.0
    results = []
    with spans.installed(tracer) as missing:
        out.checks["unwrapped"] = missing
        start = time.perf_counter()
        while len(results) < MIN_PASSES or time.perf_counter() - start < seconds:
            root = tracer.open(spans.PASS_SPAN)
            rows, _, _ = _timed(_run_rows, config)
            tracer.close(root)
            results.append(rows)

    # a pass's failed operations: every trial of a cell that disagrees with the
    # reference pass, plus each trial whose p > 1 projection misses the KKT rule
    out.passes = spans.per_pass(tracer)
    out.checks["kkt_residual_max"] = 0.0
    for rows, entry in zip(results, out.passes):
        bad = _bad_cells(inputs, _rows_mse(inputs, rows, out), ref_mse, "row", out)
        failed_trials = set()
        for rec in entry["projections"]:
            if rec.p <= 1:
                continue
            out.checks["kkt_residual_max"] = max(out.checks["kkt_residual_max"],
                                                 rec.kkt_residual)
            cell_id, trial = tracer.context(rec.span)
            if not rec.kkt_residual <= KKT_TOL and cell_id not in bad:
                out.problem(f"{cell_id} trial {trial}: kkt_residual {rec.kkt_residual!r}")
                failed_trials.add((cell_id, trial))
        out.attempted += inputs.estimates
        out.failed += len(bad) * config.reps + len(failed_trials)


# --- nonconvex_p05: direct project calls -------------------------------------


def _reference_objectives(inputs: ProjectInputs):
    """Recorded objectives for the default seed's inputs, else None."""
    ref = json.loads(REFERENCE.read_text())
    if inputs.seed != ref["seed"]:
        return None
    if (ref["p"], ref["dim"], ref["radius"]) != (inputs.ball.p, inputs.ball.dim,
                                                  inputs.ball.radius) \
            or len(ref["objectives"]) != len(inputs.ys):
        raise ValueError(f"{REFERENCE.name} was recorded for other inputs")
    return ref["objectives"]


def objective(x: np.ndarray, y: np.ndarray) -> float:
    return float(0.5 * np.sum((x - y) ** 2))


def _check_projection(inputs: ProjectInputs, i: int, res, ref_objs, out: Outcome) -> bool:
    """Feasible point, finite nonnegative gap, objective within the reference."""
    if res is None:
        out.problem(f"input {i}: project raised")
        return False
    ball, y = inputs.ball, inputs.ys[i]
    problems = []
    norm = lp_norm(res.point, ball.p)
    if not norm <= ball.radius * (1.0 + FEAS_TOL):
        problems.append(f"||x||_p = {norm!r}")
    gap = res.duality_gap
    if gap is None or not (math.isfinite(gap) and gap >= 0.0):
        problems.append(f"duality_gap = {gap!r}")
    if ref_objs is not None:
        obj = objective(res.point, y)
        if not obj <= ref_objs[i] * (1.0 + OBJ_REL_TOL):
            problems.append(f"objective {obj!r} above reference {ref_objs[i]!r}")
    for message in problems:
        out.problem(f"input {i}: {message}")
    return not problems


def _measure_projections(inputs: ProjectInputs, seconds: float, between,
                         out: Outcome) -> None:
    """Timed project calls, visiting the inputs in turn."""
    ball, ys = inputs.ball, inputs.ys
    ref_objs = _reference_objectives(inputs)
    out.checks["reference_objectives"] = ref_objs is not None
    _timed(projection.project, ball, ys[0])  # warm-up
    clock = HostClock()
    start = time.perf_counter()
    while len(out.samples) < MIN_VISITS * len(ys) or time.perf_counter() - start < seconds:
        i = len(out.samples) % len(ys)
        res, wall, cpu = _timed(projection.project, ball, ys[i])
        slowdown = clock.tick()
        out.repeat_timed(wall, cpu, slowdown, 1)
        out.calls.setdefault(i, []).append((wall, slowdown))
        out.attempted += 1
        out.failed += not _check_projection(inputs, i, res, ref_objs, out)
        if between(time.perf_counter() - start):
            clock = HostClock()


def _trace_projections(inputs: ProjectInputs, seconds: float, tracer: spans.Tracer,
                       out: Outcome) -> None:
    ball, ys = inputs.ball, inputs.ys
    ref_objs = _reference_objectives(inputs)
    out.checks["reference_objectives"] = ref_objs is not None
    _timed(projection.project, ball, ys[0])  # warm-up, untraced
    results = []
    with spans.installed(tracer) as missing:
        out.checks["unwrapped"] = missing
        start = time.perf_counter()
        while len(results) < MIN_PASSES * P05_TRACE_CALLS \
                or time.perf_counter() - start < seconds:
            root = tracer.open(spans.PASS_SPAN)
            for i in range(P05_TRACE_CALLS):
                tracer.set_context("nonconvex_p05", i)
                res, _, _ = _timed(projection.project, ball, ys[i])
                results.append((i, res))
            tracer.close(root)
    out.passes = spans.per_pass(tracer)
    for i, res in results:
        out.attempted += 1
        out.failed += not _check_projection(inputs, i, res, ref_objs, out)
