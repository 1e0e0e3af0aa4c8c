"""Estimation over lp balls in the Gaussian sequence model.

Projection estimators for every norm index p in [0, inf], soft thresholding
with its noise-adapted level, closed-form minimax rate control functions
with explicit constants, generators for the signals on which the projection
estimator provably loses, and a reproducible Monte Carlo risk harness.
"""

from .estimators import EstimatorSpec, SampleReduction, estimate, reduce_samples, st_lambda
from .instances import HardInstanceParams, flat_sparse_instance, sparsity_scaling, spike_instance
from .oracles import CheckReport, brute_force_projection, run_suite
from .projection import (
    LpBall,
    ProjectionResult,
    lp_norm,
    project,
    project_clip,
    project_many,
    project_top_s,
)
from .rates import (
    RateBounds,
    RateQuery,
    RegimeLabel,
    RegimeReport,
    classify_regime,
    control_function,
    example_scalings,
    rate_bounds,
)
from .simulate import (
    ExperimentConfig,
    ExperimentResult,
    RiskEstimate,
    TrialKey,
    default_d_grid,
    estimate_risk,
    fit_log_slope,
    run_experiment,
    sample_observation,
)

__all__ = [
    "CheckReport",
    "EstimatorSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "HardInstanceParams",
    "LpBall",
    "ProjectionResult",
    "RateBounds",
    "RateQuery",
    "RegimeLabel",
    "RegimeReport",
    "RiskEstimate",
    "SampleReduction",
    "TrialKey",
    "brute_force_projection",
    "classify_regime",
    "control_function",
    "default_d_grid",
    "estimate",
    "estimate_risk",
    "example_scalings",
    "fit_log_slope",
    "flat_sparse_instance",
    "lp_norm",
    "project",
    "project_clip",
    "project_many",
    "project_top_s",
    "rate_bounds",
    "reduce_samples",
    "run_experiment",
    "run_suite",
    "sample_observation",
    "sparsity_scaling",
    "spike_instance",
    "st_lambda",
]

__version__ = "0.1.0"
