"""The estimators whose risks the harness compares.

* ``mle``: constrained least squares, i.e. Euclidean projection of the
  observation onto the constraint ball.
* ``soft_threshold``: coordinatewise soft thresholding at the noise-adapted
  level ``sqrt(2 sigma^2 log(e d sigma^p))``.
* ``zero`` and ``identity``: the trivial estimators that are order-optimal in
  the extreme noise regimes.

Several i.i.d. observations reduce to the single-observation problem through
the sample mean, with the per-sample noise shrunk by ``sqrt(n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, is_integer
from .projection import LpBall, project
from .shrinkage import soft_threshold

EstimatorKind = Literal["mle", "soft_threshold", "zero", "identity"]

ESTIMATOR_KINDS = get_args(EstimatorKind)


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run, plus the context it needs.

    ``ball`` supplies the constraint for ``mle`` and the norm index for the
    soft threshold level; ``noise_level`` is required by ``soft_threshold``.
    """

    kind: EstimatorKind
    ball: LpBall | None = None
    noise_level: float | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise InvalidParameterError(f"unknown estimator kind {self.kind!r}")
        if self.kind in ("mle", "soft_threshold") and self.ball is None:
            raise InvalidParameterError(f"{self.kind} requires a ball")
        if self.kind == "soft_threshold":
            if self.noise_level is None or not (self.noise_level > 0):
                raise InvalidParameterError("soft_threshold requires noise_level > 0")


def st_lambda(sigma: float, d: int, p: float) -> float:
    """Soft-threshold level ``sqrt(2 sigma^2 log(e d sigma^p))``.

    The level is clamped at zero once the logarithm's argument falls below
    one, which is the regime where no shrinkage is called for.
    """
    if not (sigma > 0):
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    if not (is_integer(d) and d >= 1):
        raise InvalidParameterError(f"d must be an integer >= 1, got {d!r}")
    if not (0 < p < 2):
        raise InvalidParameterError(f"st_lambda requires p in (0, 2), got {p}")
    arg = d * sigma**p * math.e
    if arg <= 1.0:
        return 0.0
    return math.sqrt(2.0 * sigma**2 * math.log(arg))


def estimate(spec: EstimatorSpec, y: np.ndarray) -> np.ndarray:
    """Apply the estimator to one observation vector; every kind but ``mle`` also
    takes an (n, d) block, row by row (``project_many`` projects a block)."""
    y = np.asarray(y, dtype=float)
    if spec.kind == "zero":
        return np.zeros_like(y)
    if spec.kind == "identity":
        return y.copy()
    if spec.kind == "mle":
        return project(spec.ball, y).point
    lam = st_lambda(spec.noise_level, y.shape[-1], spec.ball.p)
    return soft_threshold(y, lam)


@dataclass(frozen=True)
class SampleReduction:
    """Sufficient statistic of n i.i.d. Gaussian observations."""

    mean: np.ndarray
    n: int

    @property
    def noise_scale(self) -> float:
        """Multiplier taking the per-sample noise to the effective noise."""
        return 1.0 / math.sqrt(self.n)

    def effective_noise(self, tau: float) -> float:
        return tau * self.noise_scale


def reduce_samples(samples) -> SampleReduction:
    """Collapse n observations to their mean and the noise rescaling.

    Estimating from the n samples is equivalent to running the
    single-observation path on the mean at noise level ``tau / sqrt(n)``.
    """
    if len(samples) == 0:
        raise InvalidParameterError("reduce_samples requires at least one sample")
    arrays = [np.asarray(s, dtype=float) for s in samples]
    d = arrays[0].size
    for a in arrays:
        if a.shape != (d,):
            raise DimensionMismatchError("samples must share a common length")
    return SampleReduction(mean=np.mean(arrays, axis=0), n=len(arrays))
