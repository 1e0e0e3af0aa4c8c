"""Signals on which constrained least squares provably loses.

Two constructions: the single spike ``e_1`` (large-noise band) and the flat
k-sparse boundary vector ``k**(-1/p) * (1_k, 0_{d-k})`` whose sparsity level
balances the noise magnitude against the constraint.  Both sit exactly on
the boundary of the unit ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, inf_past_range, is_integer


@dataclass(frozen=True)
class HardInstanceParams:
    """Flat k-sparse instance and the quantities that define it.

    ``m`` is the largest multiple of 4 not exceeding d; ``lambda_floor`` is
    the multiplier level the noise forces with constant probability, and
    ``k = ceil(lambda_floor**(-p/(2-p)))`` clamped to [1, d//2] (``clamped``
    records whether the clamp was active).  ``theta_star`` has unit lp norm
    by construction.
    """

    delta: float
    m: int
    lambda_floor: float
    k: int
    theta_star: np.ndarray
    clamped: bool


def spike_instance(d: int) -> np.ndarray:
    """First canonical basis vector; unit lp norm for every p."""
    if not (is_integer(d) and d >= 1):
        raise InvalidParameterError(f"d must be an integer >= 1, got {d!r}")
    out = np.zeros(d)
    out[0] = 1.0
    return out


def default_delta(q: float) -> float:
    """Noise-floor probability parameter instantiated at t = 1/2."""
    return 0.5 * (3.0 / 20.0) ** q


def _flat_args(caller: str, sigma: float, p: float, d: int, least_d: int):
    """``(sigma, p, d)`` as Python numbers, in which a power past range raises,
    once ``caller``'s rules hold: p in (1, 2), an integer d >= ``least_d`` and
    sigma > 0."""
    if not (1.0 < p < 2.0):
        raise InvalidParameterError(f"{caller} requires p in (1, 2), got {p}")
    if not (is_integer(d) and d >= least_d):
        raise InvalidParameterError(f"{caller} requires an integer d >= {least_d}, got {d!r}")
    if not (sigma > 0):
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    return float(sigma), float(p), int(d)


def flat_sparse_instance(sigma: float, p: float, d: int) -> HardInstanceParams:
    """Flat k-sparse boundary signal for intermediate norm indices.

    Requires ``p in (1, 2)`` and ``d >= 4``.  With ``delta = default_delta(q)``
    the construction matches the explicit lower-bound recipe; the clamp keeps
    ``k`` away from the trivial all-zero and full-support extremes.
    """
    sigma, p, d = _flat_args("flat instance", sigma, p, d, 4)
    q = p / (p - 1.0)
    delta = default_delta(q)
    m = d - d % 4
    lam_floor = (sigma * m ** (1.0 / q) / 2.0) * (delta / 4.0) ** (1.0 / q)
    # a power past double range is inf, far beyond the clamp
    k_unclamped = inf_past_range(lambda: max(math.ceil(lam_floor ** (-p / (2.0 - p))), 1))
    k = min(k_unclamped, d // 2)
    theta = np.zeros(d)
    theta[:k] = k ** (-1.0 / p)
    return HardInstanceParams(
        delta=delta,
        m=m,
        lambda_floor=lam_floor,
        k=k,
        theta_star=theta,
        clamped=(k != k_unclamped),
    )


def sparsity_scaling(sigma: float, p: float, d: int) -> float:
    """Order-level sparsity ``max((1/(sigma^q d))**((p-1)/(2-p)), 1)``.

    Diagnostic companion of :func:`flat_sparse_instance`: it tracks the same
    k up to an explicit constant, hitting order 1 as ``sigma`` approaches
    ``d**(-1/q)`` and order d as it approaches ``d**(-1/p)``.
    """
    sigma, p, d = _flat_args("sparsity_scaling", sigma, p, d, 1)
    q = p / (p - 1.0)
    try:  # not errors.inf_past_range: the fallback is 0 or inf, as sigma sets
        val = (1.0 / (sigma**q * d)) ** ((p - 1.0) / (2.0 - p))
    except (OverflowError, ZeroDivisionError):
        # sigma**q overflows only at a huge sigma (order 1); at a tiny one the
        # power overflows, or sigma**q * d underflows to 0 (order d)
        val = 0.0 if sigma > 1.0 else math.inf
    return float(d) if val == math.inf else max(val, 1.0)  # also 1/(sigma**q * d) = inf
