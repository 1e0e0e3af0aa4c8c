"""Scalar shrinkage kernels.

The inner problem everywhere in this package is the one-dimensional fixed
point ``psi + lam * psi**(p-1) = t`` for a magnitude ``t >= 0``.  Its solution
is the proximal operator of ``x -> (lam/p) * x**p`` evaluated at ``t``: a
nonlinear shrinkage of ``t`` toward zero.  For ``p >= 1`` the positive
solution is unique; for ``p in (0, 1)`` the equation can have two positive
roots and the prox is chosen by comparing objective values, with ties broken
toward zero so that sparsity patterns are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Magnitudes below this are flushed to exact zeros (testable sparsity).
FLUSH_TOL = 1e-300

# Default absolute residual tolerance of the scalar root solves.
DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class ShrinkageQuery:
    """One shrinkage problem: solve ``psi + lam * psi**(p-1) = t``.

    Parameters
    ----------
    p : float
        Norm index, ``p > 0``.
    lam : float
        Multiplier, ``lam >= 0`` (dimensionless).
    t : float
        Target magnitude, ``t >= 0``.
    tol : float
        Absolute residual tolerance, ``tol > 0``.
    """

    p: float
    lam: float
    t: float
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not (self.p > 0):
            raise InvalidParameterError(f"p must be positive, got {self.p}")
        if not (self.lam >= 0):
            raise InvalidParameterError(f"lam must be nonnegative, got {self.lam}")
        if not (self.t >= 0):
            raise InvalidParameterError(f"t must be nonnegative, got {self.t}")
        if not (self.tol > 0):
            raise InvalidParameterError(f"tol must be positive, got {self.tol}")


def soft_threshold_scalar(t: float, lam: float) -> float:
    """Shrink ``t`` toward zero by ``lam``: ``sign(t) * max(|t| - lam, 0)``."""
    if lam < 0:
        raise InvalidParameterError(f"lam must be nonnegative, got {lam}")
    return float(np.sign(t) * max(abs(t) - lam, 0.0))


def soft_threshold(y: np.ndarray, lam: float) -> np.ndarray:
    """Coordinatewise soft threshold of an array."""
    if lam < 0:
        raise InvalidParameterError(f"lam must be nonnegative, got {lam}")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def _flush(x: np.ndarray) -> np.ndarray:
    x[np.abs(x) < FLUSH_TOL] = 0.0
    return x


def psi_many(p: float, lam, t, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Elementwise positive solution of ``psi + lam*psi**(p-1) = t``, p >= 1.

    ``lam`` may be a scalar or an array broadcastable against ``t``.  The
    returned psi satisfies ``|psi + lam*psi**(p-1) - t| <= tol`` and lies in
    ``[0, t]``.  Closed forms are used for ``p in {1, 1.5, 2, 3}``; other
    indices go through a bracketed log-domain bisection with a Newton polish.
    """
    lam_arr, t = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(t, dtype=float))
    if p == 1.0:
        return _flush(np.maximum(t - lam_arr, 0.0))
    if p == 2.0:
        return _flush(t / (1.0 + lam_arr))
    if p == 1.5:
        # quadratic in sqrt(psi); conjugate form avoids cancellation
        u = 2.0 * t / (lam_arr + np.sqrt(lam_arr * lam_arr + 4.0 * t))
        return _flush(u * u)
    if p == 3.0:
        return _flush(2.0 * t / (1.0 + np.sqrt(1.0 + 4.0 * lam_arr * t)))
    if p < 1.0:
        raise InvalidParameterError("psi_many requires p >= 1; use prox for p < 1")
    return _psi_root_generic(p, lam_arr, t, tol)


def _psi_root_generic(p: float, lam: np.ndarray, t: np.ndarray, tol: float) -> np.ndarray:
    out = np.array(t, dtype=float, copy=True)
    active = (t > 0) & (lam > 0)
    if not np.any(active):
        return _flush(out)
    tv = t[active]
    lv = lam[active]

    # psi* >= min(t/2, (t/(2 lam))**(1/(p-1))): one of the two terms of the
    # fixed point must carry at least t/2.
    log_t = np.log(tv)
    s_lo = np.minimum(log_t - np.log(2.0), (log_t - np.log(2.0 * lv)) / (p - 1.0)) - 1.0
    s_hi = log_t.copy()

    def residual(s):
        return np.exp(s) + lv * np.exp((p - 1.0) * s) - tv

    mid = 0.5 * (s_lo + s_hi)
    for _ in range(60):
        r = residual(mid)
        high = r > 0
        s_hi = np.where(high, mid, s_hi)
        s_lo = np.where(high, s_lo, mid)
        mid = 0.5 * (s_lo + s_hi)
        if np.max(np.abs(r)) <= tol:
            break

    x = np.exp(mid)
    lo_lin, hi_lin = np.exp(s_lo), np.exp(s_hi)
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(8):
            f = x + lv * x ** (p - 1.0) - tv
            if np.max(np.abs(f)) <= tol:
                break
            fp = 1.0 + lv * (p - 1.0) * x ** (p - 2.0)
            x = np.clip(x - f / fp, lo_lin, hi_lin)

    out[active] = x
    return _flush(out)


def psi_solve(query: ShrinkageQuery) -> float:
    """Solve ``psi + lam*psi**(p-1) = t`` for the unique ``psi`` in [0, t].

    Requires ``p >= 1`` (the uniqueness regime; ``p = 1`` is the soft
    threshold, ``p = 2`` the linear shrinkage ``t/(1+lam)``).  Returns ``psi``
    with residual at most ``query.tol``; ``psi = t`` when ``lam = 0``.
    """
    if query.p < 1.0:
        raise InvalidParameterError(
            f"psi_solve requires p >= 1, got p={query.p}; use prox_power"
        )
    return float(psi_many(query.p, query.lam, np.array([query.t]), query.tol)[0])


# --- p < 1: branch structure of x + lam * x**(p-1) = t -----------------------
#
# For p in (0, 1) the map g(x) = x + lam*x**(p-1) decreases from +inf to a
# minimum at x_argmin = (lam*(1-p))**(1/(2-p)) and increases afterwards, so
# g(x) = t has zero, one, or two positive roots.  Only the larger root (the
# increasing branch) is a local minimum of the prox objective.


def branch_vanish_lambda(p: float, t) -> np.ndarray:
    """Largest multiplier at which ``x + lam*x**(p-1) = t`` still has roots."""
    t = np.asarray(t, dtype=float)
    return ((1.0 - p) * t / (2.0 - p)) ** (2.0 - p) / (1.0 - p)


def prox_jump_lambda(p: float, t) -> np.ndarray:
    """Multiplier at which the prox jumps from the upper root to zero.

    At this level the objective at the upper root ties with the objective at
    zero; ties are resolved toward zero.
    """
    t = np.asarray(t, dtype=float)
    x = 2.0 * (1.0 - p) / (2.0 - p) * t
    with np.errstate(invalid="ignore"):
        return (t - x) * x ** (1.0 - p)


def branch_roots(p: float, lam, t, upper, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Roots of ``x + lam*x**(p-1) = t`` on the chosen branch, p < 1.

    ``lam``, ``t``, and the boolean ``upper`` broadcast together; True picks
    the larger root (on the increasing part of the map), False the smaller.
    NaN marks branch points that do not exist at that multiplier.
    """
    lam, t, upper = np.broadcast_arrays(
        np.asarray(lam, dtype=float), np.asarray(t, dtype=float),
        np.asarray(upper, dtype=bool))
    out = np.full(t.shape, np.nan)
    zero_lam = lam == 0
    sel = zero_lam & upper
    out[sel] = t[sel]
    work = ~zero_lam & (t > 0)
    if not np.any(work):
        return out
    lv, tv, uv = lam[work], t[work], upper[work]
    x_arg = (lv * (1.0 - p)) ** (1.0 / (2.0 - p))
    with np.errstate(over="ignore"):
        exists = x_arg + lv * x_arg ** (p - 1.0) <= tv
    s_arg = np.log(x_arg)
    # lower roots satisfy x >= (lam/t)**(1/(1-p))
    s_lo = np.where(uv, s_arg, (np.log(lv) - np.log(tv)) / (1.0 - p) - 1.0)
    s_hi = np.where(uv, np.log(tv), s_arg)
    if not np.any(exists):
        out[work] = np.nan
        return out
    mid = 0.5 * (s_lo + s_hi)
    for _ in range(90):
        r = np.exp(mid) + lv * np.exp((p - 1.0) * mid) - tv
        go_hi = (r > 0) == uv  # increasing branch moves hi on excess, decreasing lo
        s_hi = np.where(go_hi, mid, s_hi)
        s_lo = np.where(go_hi, s_lo, mid)
        mid = 0.5 * (s_lo + s_hi)
        if np.max(np.abs(r[exists])) <= tol:
            break
    out[work] = np.where(exists, np.exp(mid), np.nan)
    return out


def power_objective(p: float, lam, t, x) -> np.ndarray:
    """Prox objective ``(x-t)**2/2 + (lam/p) * x**p`` at magnitude ``x >= 0``."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(invalid="ignore"):
        pen = np.where(x > 0, (lam / p) * x ** p, 0.0)
    return 0.5 * (x - t) ** 2 + pen


def prox_power_many(p: float, lam, t, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Elementwise prox of ``x -> (lam/p)*x**p`` at magnitudes ``t >= 0``.

    ``lam`` broadcasts against ``t``, so a whole multiplier grid can be
    evaluated in one call.
    """
    if p >= 1.0:
        return psi_many(p, lam, t, tol)
    lam_b, t_b = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(t, dtype=float))
    # the objective's slope g(x) - t is positive on (0, lower root), so the
    # lower root never beats zero; only the upper root competes with it
    upper = branch_roots(p, lam_b, t_b, True, tol)
    take = power_objective(p, lam_b, t_b, upper) < power_objective(p, lam_b, t_b, 0.0)
    return _flush(np.where(take, upper, 0.0))  # strict: ties stay at zero; NaN never wins


def prox_power(query: ShrinkageQuery) -> float:
    """Global minimizer of ``(x - t)**2/2 + (lam/p) * x**p`` over ``x >= 0``.

    Identical to :func:`psi_solve` for ``p >= 1``.  For ``p in (0, 1)`` zero
    and the upper root of the fixed point are compared; ties go to zero.
    """
    return float(prox_power_many(query.p, query.lam, np.array([query.t]), query.tol)[0])
