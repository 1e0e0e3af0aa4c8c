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
    ``theta_star`` is :func:`flat_signal` at the size
    ``lambda_floor**(-p/(2-p))``, with ``k`` nonzeros (``clamped`` records
    whether the clamp at d//2 was active).  ``theta_star`` has unit lp norm
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


def flat_signal(size: float, p: float, d: int) -> tuple[np.ndarray, bool]:
    """The flat vector ``k**(-1/p)`` on the first k of d coordinates, zero on
    the rest, and whether the clamp at d//2 was active.

    k is the ceiling of the real ``size`` clamped to [1, d//2].  A size within
    1e-12 relative above an integer counts as that integer: the sizes the
    package builds are powers that are integers in exact arithmetic at the
    figures' noise rules (1 at the spike rule, sqrt(d) at the flat one), and
    rounding lands on either side of them.
    """
    want = max(math.ceil(min(size / (1.0 + 1e-12), d)), 1)  # an inf size is clamped
    k = min(want, d // 2)
    theta = np.zeros(d)
    theta[:k] = k ** (-1.0 / p)
    return theta, k < want


def flat_sparse_instance(sigma: float, p: float, d: int) -> HardInstanceParams:
    """Flat k-sparse boundary signal for intermediate norm indices.

    Requires ``p in (1, 2)`` and ``d >= 4``.  With ``delta = default_delta(q)``
    the construction matches the explicit lower-bound recipe; the clamp keeps
    ``k`` away from the trivial all-zero and full-support extremes.
    ``(delta/4)**(1/q)`` is taken as ``0.15 * 0.125**(1/q)``, its exact value,
    since ``delta`` underflows once q passes about 372 (p below 1.0027).
    """
    sigma, p, d = _flat_args("flat instance", sigma, p, d, 4)
    q = p / (p - 1.0)
    m = d - d % 4
    lam_floor = (sigma * m ** (1.0 / q) / 2.0) * (0.15 * 0.125 ** (1.0 / q))
    theta, clamped = flat_signal(inf_past_range(pow, lam_floor, -p / (2.0 - p)), p, d)
    return HardInstanceParams(
        delta=default_delta(q),
        m=m,
        lambda_floor=lam_floor,
        k=int(np.count_nonzero(theta)),
        theta_star=theta,
        clamped=clamped,
    )


def sparsity_scaling(sigma: float, p: float, d: int) -> float:
    """Order-level sparsity ``max((1/(sigma^q d))**((p-1)/(2-p)), 1)``, or d
    where that passes double range.

    Diagnostic companion of :func:`flat_sparse_instance`: it tracks the same
    k up to an explicit constant, hitting order 1 as ``sigma`` approaches
    ``d**(-1/q)`` and order d as it approaches ``d**(-1/p)``.  It is taken as
    ``exp(-(p log sigma + (p-1) log d)/(2-p))``, in which q drops out and no
    power leaves double range on the way.
    """
    sigma, p, d = _flat_args("sparsity_scaling", sigma, p, d, 1)
    val = inf_past_range(math.exp, -(p * math.log(sigma) + (p - 1.0) * math.log(d)) / (2.0 - p))
    return float(d) if val == math.inf else max(val, 1.0)
