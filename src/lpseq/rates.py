"""Minimax rate control functions and the optimality/suboptimality classifier.

The control function is the closed-form expression that matches the minimax
mean squared error over the lp ball up to the explicit constants
``C_LOWER = 1/868`` and ``C_UPPER = 6``.  General radii enter through the
rescaling ``r**2 * m(sigma / r)``, taken so that neither ``r**2`` nor
``(sigma/r)**2`` leaves double range on the way, and n i.i.d. samples
through the effective noise ``tau / sqrt(n)``.

The classifier reports, for a parameter point ``(sigma, p, d, r)``, whether
constrained least squares is known to be order-optimal (four regimes) or
rate-suboptimal (the intermediate band of norm indices and noise levels),
with points landing exactly on a published case boundary labeled as such
rather than resolved by precedence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import InvalidParameterError, inf_past_range, is_integer
from .projection import LpBall

C_LOWER = 1.0 / 868.0
C_UPPER = 6.0

# One-sided upper-bound constants available below p = 1, where the sandwich
# constants above are not certified.
C_UPPER_WEAK_SPARSE = 540.0
C_UPPER_HARD_SPARSE = 48.0


class RegimeLabel(str, Enum):
    OPTIMAL_HIGH_P = "optimal_thm2.1(i)"          # p >= 2, every noise level
    OPTIMAL_NEAR_ONE = "optimal_thm2.1(ii)"       # p <= threshold index, every noise level
    OPTIMAL_EXTREME_NOISE = "optimal_thm2.1(iii)" # intermediate p, noise outside the band
    OPTIMAL_SPARSE = "optimal_thm2.1(iv)"         # p = 0, every noise level
    SUBOPTIMAL = "suboptimal_thm2.2"              # intermediate p, noise inside the band
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class RateQuery:
    """Point in parameter space: norm index, dimension, noise, radius, samples.

    For ``n > 1`` supply the per-sample noise ``tau`` instead of ``sigma``;
    the effective noise is ``tau / sqrt(n)``.  For ``p = 0`` supply
    ``sparsity`` and no radius; at ``p > 0`` the radius defaults to 1, as in
    ``lpseq project``.  The constraint set is checked as
    :class:`~lpseq.projection.LpBall` checks it, with a finite radius.
    """

    p: float
    d: int
    sigma: float | None = None
    radius: float | None = None
    sparsity: int | None = None
    n: int = 1
    tau: float | None = None

    def __post_init__(self):
        if self.radius is None and self.p != 0:
            object.__setattr__(self, "radius", 1.0)
        LpBall(self.p, self.d, self.radius, self.sparsity)
        if self.p > 0 and self.radius == math.inf:
            raise InvalidParameterError(f"radius must be positive and finite, got {self.radius}")
        if not (is_integer(self.n) and self.n >= 1):
            raise InvalidParameterError(f"n must be an integer >= 1, got {self.n!r}")
        if self.n > 1:
            if self.tau is None or not (self.tau > 0) or self.sigma is not None:
                raise InvalidParameterError("n > 1 requires per-sample noise tau > 0 and no sigma")
        elif self.sigma is None or not (self.sigma > 0) or self.tau is not None:
            raise InvalidParameterError("n = 1 requires sigma > 0 and no tau")

    @property
    def effective_sigma(self) -> float:
        if self.n > 1:
            return self.tau / math.sqrt(self.n)
        return self.sigma


def p_threshold(d: int) -> float:
    """Norm index below which the projection estimator is always optimal."""
    return 1.0 + 1.0 / (1.0 + math.log(d))


def _unit_control(p: float, d: int, s: float) -> float:
    """Control function on the unit ball at noise level s."""
    if p >= 2:
        return min(d ** (1.0 - 2.0 / p), s * s * d)
    high = 1.0 / (1.0 + math.log(d))
    low = d ** (-2.0 / p)
    if s * s >= high:
        return 1.0
    if s * s <= low:
        return s * s * d
    return (s * s * math.log(math.e * d * s**p)) ** (1.0 - p / 2.0)


def control_function(q: RateQuery) -> float:
    """Closed-form minimax-rate control value for the query.

    At p > 0 it is ``r**2 * m(sigma/r)``, ``m`` the control function on the
    unit ball.  Where ``(sigma/r)**2`` underflows, ``m`` is on its
    ``(sigma/r)**2 * d`` branch, taken as ``sigma**2 * d`` directly.
    Elsewhere ``r`` is scaled by the power of 2 that brings it into [0.5, 1)
    and the product is scaled back, so ``r**2`` cannot overflow; scaling by
    a power of 2 is exact, so the value is ``r*r*m`` bit for bit wherever
    that is a normal number.  A value past double range is inf.
    """
    s = q.effective_sigma
    if q.p == 0:
        return s * s * q.sparsity * math.log(math.e * q.d / q.sparsity)
    u = s / q.radius
    if u * u < sys.float_info.min:
        return s * s * q.d
    k = math.frexp(q.radius)[1]
    r = math.ldexp(q.radius, -k)
    return inf_past_range(math.ldexp, r * r * _unit_control(q.p, q.d, u), 2 * k)


class RateBounds(NamedTuple):
    lower: float
    upper: float
    lower_certified: bool


def rate_bounds(q: RateQuery) -> RateBounds:
    """Explicit-constant sandwich around the minimax risk.

    For ``p >= 1`` both constants are certified; below that only the upper
    constant is (``lower_certified`` is False and the lower number is the
    same heuristic multiple).
    """
    m = control_function(q)
    if q.p >= 1:
        return RateBounds(C_LOWER * m, C_UPPER * m, True)
    if q.p == 0:
        return RateBounds(C_LOWER * m, C_UPPER_HARD_SPARSE * m, False)
    return RateBounds(C_LOWER * m, C_UPPER_WEAK_SPARSE * m, False)


@dataclass(frozen=True)
class RegimeReport:
    label: RegimeLabel
    p_threshold: float
    sigma_interval: tuple[float, float]
    subinterval: str  # "sigma1", "sigma2", or "none"
    control_value: float
    lower_bound: float
    upper_bound: float


def classify_regime(q: RateQuery) -> RegimeReport:
    """Label the query per the published optimality/suboptimality cases."""
    m = control_function(q)
    lower, upper, _ = rate_bounds(q)
    p, d = q.p, q.d
    pthr = p_threshold(d)
    s = q.effective_sigma / (q.radius if q.p > 0 else 1.0)

    sig_lo = d ** (-1.0 / p) if 0 < p < math.inf else 0.0
    sig_hi = 1.0 / math.sqrt(1.0 + math.log(d))
    interval = (sig_lo, sig_hi)

    def report(label, sub="none"):
        return RegimeReport(label, pthr, interval, sub, m, lower, upper)

    if p == 0:
        return report(RegimeLabel.OPTIMAL_SPARSE)
    if p == 2 or p == pthr:
        # closed endpoints of the optimal cases; flagged instead of resolved
        return report(RegimeLabel.BOUNDARY)
    if p > 2:
        return report(RegimeLabel.OPTIMAL_HIGH_P)
    if p < pthr:
        return report(RegimeLabel.OPTIMAL_NEAR_ONE)
    # intermediate norm index: the noise level decides
    if s == sig_lo or s == sig_hi:
        return report(RegimeLabel.BOUNDARY)
    if s < sig_lo or s > sig_hi:
        return report(RegimeLabel.OPTIMAL_EXTREME_NOISE)
    # Here sig_lo < s < sig_hi.  sigma1 = (d**(-1/q)/sqrt(q), sig_hi) takes
    # precedence; an s at or below its start lies below d**(-1/q), since
    # q > 2, so in sigma2 = (sig_lo, d**(-1/q)).
    q_conj = p / (p - 1.0)
    in_sigma1 = s > 1.0 / (math.sqrt(q_conj) * d ** (1.0 / q_conj))
    return report(RegimeLabel.SUBOPTIMAL, "sigma1" if in_sigma1 else "sigma2")


@dataclass(frozen=True)
class ScalingExample:
    """Predicted rates for one of the two n-sample suboptimality scenarios."""

    scenario: str
    n: int
    delta: float
    d: float
    p: float
    predicted_minimax: float
    predicted_mle_risk: float

    @property
    def predicted_ratio(self) -> float:
        return self.predicted_mle_risk / self.predicted_minimax


def example_scalings(scenario: str, n: int, delta: float = 0.5) -> ScalingExample:
    """Dimension choice and predicted rates for the named scenario.

    ``log_subopt`` grows the dimension polynomially in the sample count and
    produces a polylogarithmic optimality gap; ``poly_subopt`` grows it
    exponentially and produces a polynomial gap ``n**((1-delta)/4)``.
    """
    if not (0 < delta < 1):
        raise InvalidParameterError(f"delta must lie in (0, 1), got {delta}")
    if not (is_integer(n) and n >= 3):
        raise InvalidParameterError(f"n must be an integer >= 3, got {n!r}")
    p = 1.0 + delta
    log_n = math.log(n)  # also for an integer past double range
    if scenario == "log_subopt":
        d = inf_past_range(math.exp, p / 2.0 * log_n) * log_n
        minimax = math.exp((1.0 - delta) / 2.0 * (math.log(math.log(log_n)) - log_n))
        mle = math.exp(delta / (1.0 + delta) * math.log(log_n) - (1.0 - delta) / 2.0 * log_n)
    elif scenario == "poly_subopt":
        d = inf_past_range(math.exp, inf_past_range(math.exp, log_n / 2.0))
        minimax = math.exp(-(1.0 - delta) / 4.0 * log_n)
        mle = 1.0
    else:
        raise InvalidParameterError(f"unknown scenario {scenario!r}")
    return ScalingExample(scenario, n, delta, d, p, minimax, mle)
