"""Seeded Monte Carlo risk estimation and the two-figure experiment runner.

A run is a grid of cells, one per (dimension, estimator) pair.  Each cell
draws ``reps`` observations ``Y = theta_star + sigma * xi``, trial ``k`` from
the counter-based stream keyed on (seed, cell, k), all of a cell's trials from
one generator rewound to each trial's counter, applies the estimator, and
records the empirical mean squared error with its standard error.  The
``fig2a`` regime pairs the spike signal with ``sigma = d**(1/p - 1)``;
``fig2b`` pairs a flat k-sparse
boundary signal with ``sigma = d**(-1/2)``, where k follows the order-level
sparsity balance (about sqrt(d) at that noise rule) -- the choice that
reproduces the reference risk curves -- clamped away from the trivial
extremes.  Cells are independent, so a run may be resumed cell by cell
without affecting the numbers.  Within a cell the draws are stacked into
blocks of at most ``BLOCK_ELEMENTS`` elements, each estimated in one call, so
an ``mle`` cell makes one batched projection per block; the numbers equal
those of one ``sample_observation`` and one ``estimate`` call per trial, bit
for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, inf_past_range, is_integer
from .estimators import EstimatorSpec, estimate
from .instances import sparsity_scaling, spike_instance
from .projection import LpBall, project_many
from .rates import RateQuery, control_function
from .rng import check_seed, keyed_generator, trial_streams

REGIMES = ("fig2a", "fig2b", "custom")

DEFAULT_MAX_D = 10_000

# Most elements (trials x d) a cell estimates in one call; a 2**13 block adds
# about 0.1 MB to a fig2a run's peak RSS, 2**15 about 3 MB.
BLOCK_ELEMENTS = 2**13


def default_d_grid(max_d: int = DEFAULT_MAX_D) -> tuple[int, ...]:
    """Dimension grid ``floor(10**(2 + 8k/39))`` for k = 0, 1, ... up to ``max_d``."""
    grid = []
    while (v := int(math.floor(10 ** (2.0 + 8.0 * len(grid) / 39.0)))) <= max_d:
        grid.append(v)
    return tuple(grid)


@dataclass(frozen=True)
class ExperimentConfig:
    """Run description; serializable as a flat JSON object.

    ``sigma_rule`` is ``"spike"`` (``sigma = d**(1/p-1)``), ``"flat"``
    (``sigma = d**(-1/2)``), or an explicit list of positive finite sigmas
    aligned with ``d_grid``.  The ``custom`` regime requires an explicit list
    and uses the spike signal.  ``estimators`` names distinct kinds, at least
    one, since each (d, kind) pair is one cell with its own id.
    """

    regime: str = "fig2a"
    p: float = 1.5
    radius: float = 1.0
    d_grid: tuple[int, ...] = field(default_factory=default_d_grid)
    sigma_rule: str | tuple[float, ...] = "spike"
    reps: int = 100
    estimators: tuple[str, ...] = ("mle", "soft_threshold")
    seed: int = 0

    def __post_init__(self):
        # the objects a run builds check the rest: LpBall each d, p and the
        # radius, RateQuery a finite radius, EstimatorSpec each kind and the
        # soft threshold's domain
        if self.regime not in REGIMES:
            raise InvalidParameterError(f"unknown regime {self.regime!r}")
        if not (is_integer(self.reps) and self.reps >= 1):
            raise InvalidParameterError(f"reps must be an integer >= 1, got {self.reps!r}")
        check_seed(self.seed)
        if len(self.d_grid) == 0:
            raise InvalidParameterError("d_grid must be nonempty")
        if not self.estimators or len(set(self.estimators)) != len(self.estimators):
            raise InvalidParameterError(
                f"estimators must be nonempty and distinct, got {list(self.estimators)}")
        if isinstance(self.sigma_rule, str):
            if self.sigma_rule not in ("spike", "flat"):
                raise InvalidParameterError(f"unknown sigma_rule {self.sigma_rule!r}")
            if self.regime == "custom":
                raise InvalidParameterError("custom regime requires an explicit sigma list")
        elif len(self.sigma_rule) != len(self.d_grid):
            raise InvalidParameterError("explicit sigma list must align with d_grid")
        elif not all(0.0 < sigma < math.inf for sigma in self.sigma_rule):
            raise InvalidParameterError(
                f"explicit sigmas must be positive and finite, got {list(self.sigma_rule)}")
        if self.regime == "fig2b" and not (1.0 < self.p < 2.0):
            raise InvalidParameterError("fig2b requires a norm index in (1, 2)")
        for d in self.d_grid:
            ball = LpBall(self.p, d, self.radius)
            if not math.isfinite(sigma := self.sigma_for(d)):
                raise InvalidParameterError(f"sigma_rule {self.sigma_rule!r} gives a sigma past "
                                            f"double range at d = {d}, p = {self.p}")
            RateQuery(self.p, d, sigma, self.radius)  # the control value's query
            for kind in self.estimators:
                EstimatorSpec(kind, ball, sigma)
        if any(b <= a for a, b in zip(self.d_grid, self.d_grid[1:])):
            raise InvalidParameterError("d_grid must be strictly increasing")
        if self.regime == "fig2b" and self.d_grid[0] < 2:
            raise InvalidParameterError("fig2b requires every d >= 2")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        payload = dict(payload)
        for key in ("d_grid", "estimators"):
            if key in payload and payload[key] is not None:
                payload[key] = tuple(payload[key])
        if isinstance(payload.get("sigma_rule"), list):
            payload["sigma_rule"] = tuple(float(v) for v in payload["sigma_rule"])
        if payload.get("d_grid") is None:
            payload.pop("d_grid", None)
        return cls(**payload)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def sigma_for(self, d: int) -> float:
        if self.sigma_rule == "spike":
            return inf_past_range(pow, float(d), 1.0 / self.p - 1.0)
        if self.sigma_rule == "flat":
            return float(d) ** (-0.5)
        return float(self.sigma_rule[self.d_grid.index(d)])

    def theta_for(self, d: int) -> np.ndarray:
        # general radius via the unit-ball construction at noise sigma/r
        if self.regime == "fig2b":
            k = math.ceil(sparsity_scaling(self.sigma_for(d) / self.radius, self.p, d))
            k = min(max(k, 1), d // 2)
            unit = np.zeros(d)
            unit[:k] = k ** (-1.0 / self.p)
        else:
            unit = spike_instance(d)
        return self.radius * unit

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=6).hexdigest()


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean squared error of one estimator in one cell.

    ``kkt_residual_max`` and ``iterations_max`` are the solver health of an
    ``mle`` cell: the largest KKT residual and iteration count over its
    projections (0 for other estimators).  They are not CSV columns.
    """

    mse_mean: float
    mse_stderr: float
    reps: int
    d: int
    sigma: float
    p: float
    estimator: str
    seed: int
    kkt_residual_max: float = 0.0
    iterations_max: int = 0


@dataclass(frozen=True)
class TrialKey:
    seed: int
    cell_id: str
    trial: int


def sample_observation(theta_star: np.ndarray, sigma: float, trial_key: TrialKey) -> np.ndarray:
    """One draw ``theta_star + sigma * xi`` from the trial's own stream."""
    if not (sigma > 0):
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.ndim != 1:
        raise DimensionMismatchError(f"theta_star must be a vector, got shape {theta_star.shape}")
    rng = keyed_generator(trial_key.seed, trial_key.cell_id, trial_key.trial)
    return theta_star + sigma * rng.standard_normal(theta_star.size)


def estimate_risk(spec: EstimatorSpec, theta_star: np.ndarray, sigma: float,
                  reps: int, seed: int, cell_id: str = "cell") -> RiskEstimate:
    """Empirical mean and standard error of the squared estimation error.

    Each trial draws from its own keyed stream, the cell's one generator
    rewound to the trial (:func:`rng.trial_streams`), into a row of a block
    of at most ``BLOCK_ELEMENTS`` elements, which is scaled by ``sigma`` and
    shifted by ``theta_star`` in place: the doubles of
    :func:`sample_observation`.  Each block is estimated in one call and the
    errors are taken row by row, so the result equals a loop of
    single-trial ``sample_observation`` and ``estimate`` calls bit for bit.
    """
    if not (is_integer(reps) and reps >= 1):
        raise InvalidParameterError(f"reps must be an integer >= 1, got {reps!r}")
    if not (sigma > 0):
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    theta_star = np.asarray(theta_star, dtype=float)
    dim = theta_star.size if spec.ball is None else spec.ball.dim
    if theta_star.shape != (dim,) or dim == 0:
        raise DimensionMismatchError(f"theta_star must be a nonempty vector of length {dim},"
                                     f" got shape {theta_star.shape}")
    errors = np.empty(reps)
    kkt, iterations = 0.0, 0
    rows = max(1, BLOCK_ELEMENTS // theta_star.size)
    stream = trial_streams(seed, cell_id)
    for start in range(0, reps, rows):
        trials = range(start, min(start + rows, reps))
        Y = np.empty((len(trials), theta_star.size))
        for k, trial in enumerate(trials):
            stream(trial).standard_normal(out=Y[k])
        Y *= sigma
        Y += theta_star
        try:
            if spec.kind == "mle":
                results = project_many(spec.ball, Y)
                fitted = np.array([res.point for res in results])
                kkt = max(kkt, max(res.kkt_residual for res in results))
                iterations = max(iterations, max(res.iterations for res in results))
            else:
                fitted = estimate(spec, Y)
        except Exception as exc:
            raise RuntimeError(f"estimator {spec.kind!r} failed in cell {cell_id!r}"
                               f" at trials {trials.start}-{trials.stop - 1}") from exc
        errors[start:trials.stop] = np.sum((fitted - theta_star) ** 2, axis=1)
    stderr = float(np.std(errors, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return RiskEstimate(
        mse_mean=float(np.mean(errors)),
        mse_stderr=stderr,
        reps=reps,
        d=theta_star.size,
        sigma=sigma,
        p=spec.ball.p if spec.ball is not None else math.nan,
        estimator=spec.kind,
        seed=seed,
        kkt_residual_max=kkt,
        iterations_max=iterations,
    )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    experiment_id: str
    rows: tuple[RiskEstimate, ...]
    control: dict[int, float]


def cell_id_for(config: ExperimentConfig, d: int, kind: str) -> str:
    return f"{config.regime}|p={config.p!r}|r={config.radius!r}|d={d}|est={kind}"


def run_experiment(config: ExperimentConfig, threads: int = 1,
                   completed: Mapping[str, RiskEstimate] | None = None,
                   on_cell_done=None) -> ExperimentResult:
    """Run every (d, estimator) cell serially and return all rows in cell order.

    ``completed`` maps cell ids to rows finished earlier (resumption); those
    cells are not rerun.  ``on_cell_done`` is called with
    ``(cell_id, RiskEstimate)`` as each newly run cell finishes.  ``threads``
    is kept for existing callers and must be 1.
    """
    if threads != 1:
        raise InvalidParameterError(f"cells run serially; threads must be 1, got {threads}")
    completed = completed or {}
    rows = []
    for d in config.d_grid:
        for kind in config.estimators:
            cid = cell_id_for(config, d, kind)
            row = completed.get(cid)
            if row is None:
                sigma = config.sigma_for(d)
                spec = EstimatorSpec(kind, LpBall(config.p, d, config.radius), sigma)
                row = estimate_risk(spec, config.theta_for(d), sigma, config.reps,
                                    config.seed, cid)
                if on_cell_done is not None:
                    on_cell_done(cid, row)
            rows.append(row)
    control = {
        d: control_function(RateQuery(p=config.p, d=d, sigma=config.sigma_for(d),
                                      radius=config.radius))
        for d in config.d_grid
    }
    return ExperimentResult(config, config.fingerprint(), tuple(rows), control)


CSV_COLUMNS = ("experiment_id", "regime", "p", "d", "sigma", "estimator",
               "reps", "mse_mean", "mse_stderr", "seed")


def rows_to_csv(result: ExperimentResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in result.rows:
        writer.writerow([
            result.experiment_id, result.config.regime, repr(row.p), row.d,
            repr(row.sigma), row.estimator, row.reps, repr(row.mse_mean),
            repr(row.mse_stderr), row.seed,
        ])
    return buf.getvalue()


def write_csv(result: ExperimentResult, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rows_to_csv(result), encoding="utf-8")


def fit_log_slope(points) -> float:
    """Least-squares slope of log(mse) against log(d)."""
    pts = [(float(d), float(v)) for d, v in points]
    if len(pts) < 2:
        raise InvalidParameterError("need at least two points to fit a slope")
    if any(d <= 0 or v <= 0 for d, v in pts):
        raise InvalidParameterError("slope fit requires positive coordinates")
    xs = np.log([d for d, _ in pts])
    ys = np.log([v for _, v in pts])
    if np.all(xs == xs[0]):
        raise InvalidParameterError("slope fit requires at least two distinct d values")
    return float(np.polyfit(xs, ys, 1)[0])


def summarize_figure(result: ExperimentResult) -> dict:
    """Fitted slopes plus the anchored minimax reference curve.

    The reference curve is the control function normalized so that it meets
    the first MLE point (anchor 1.0 when no MLE series is present); the
    anchoring constant is part of the returned metadata.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for row in result.rows:
        series.setdefault(row.estimator, []).append((row.d, row.mse_mean))
    slopes = {kind: fit_log_slope(pts) for kind, pts in series.items() if len(pts) >= 2}

    ds = sorted(result.control)
    anchor = 1.0
    if "mle" in series and series["mle"]:
        d0, v0 = sorted(series["mle"])[0]
        if result.control[d0] > 0:
            anchor = v0 / result.control[d0]
    reference = {d: anchor * result.control[d] for d in ds}
    if len(reference) >= 2:
        slopes["minimax_reference"] = fit_log_slope(list(reference.items()))
    return {
        "experiment_id": result.experiment_id,
        "regime": result.config.regime,
        "slopes": slopes,
        "minimax_anchor": anchor,
        "minimax_reference": {str(d): reference[d] for d in ds},
    }


def plot_specification(result: ExperimentResult, csv_name: str, summary: dict) -> dict:
    """Declarative chart description; rendering is left to external tools."""
    return {
        "title": f"empirical risk, regime {result.config.regime}",
        "data": csv_name,
        "x": {"field": "d", "scale": "log", "label": "dimension"},
        "y": {"field": "mse_mean", "scale": "log", "label": "MSE"},
        "series_field": "estimator",
        "error_field": "mse_stderr",
        "reference_curve": {
            "label": "minimax",
            "anchor": summary["minimax_anchor"],
            "points": summary["minimax_reference"],
        },
    }
