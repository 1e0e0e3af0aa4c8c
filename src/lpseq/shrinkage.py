"""Scalar shrinkage: roots of ``psi + lam*psi**(p-1) = t`` at magnitudes ``t >= 0``.

- ``soft_threshold``: the p = 1 shrinkage of signed entries.
- ``psi_many``: the root for p >= 1, which is unique.
- ``_branch_root``, ``_root_floor``: Newton steps in ``log psi`` at p != 1,
  and the rounding floor of their residual.
- ``branch_roots``, ``_branch_vanish_lambda``: the two roots for p < 1.

The kernels use IEEE infinities, NaNs and zero divisions on purpose, and
run under their caller's error state: ``psi_many`` and ``branch_roots``, like
``projection.project_many``, ignore numpy's floating-point warnings for the
whole call.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

# Magnitudes below this are flushed to exact zeros (testable sparsity).
FLUSH_TOL = 1e-300

# Default absolute residual tolerance of the scalar root solves.
DEFAULT_TOL = 1e-12

# Newton steps at most per root; next to the p < 1 turning point, where the
# roots merge, each step only halves the distance and up to ~24 are used.
ROOT_STEPS = 60

# Rounding floor of a root's residual, in units of eps*t*(1 + |log t|): t's
# own rounding, and that of x = exp(s) with s resolved to |log x| ulps.  On
# 180,000 seeded roots (p from 0.1 to 10, t from 1e-4 to 1e12) the least
# residual Newton reached was at most 7.5 of these units.  Up to t = 100 the
# floor stays below the default tol, so only larger magnitudes stop earlier.
# The scalar roots apply it from step ROOT_FLOOR_STEP on: ordinary roots have
# stopped by then, so their calls never pay for computing it.
ROOT_FLOOR = 8.0
ROOT_FLOOR_STEP = 8
EPS = float(np.finfo(float).eps)
LOG2 = float(np.log(2.0))


def soft_threshold(y: np.ndarray, lam: float) -> np.ndarray:
    """Coordinatewise soft threshold of an array."""
    if not lam >= 0:  # also NaN
        raise InvalidParameterError(f"lam must be nonnegative, got {lam}")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def _flush(x: np.ndarray) -> np.ndarray:
    """Zero the magnitudes ``x >= 0`` below ``FLUSH_TOL``, in place."""
    x[x < FLUSH_TOL] = 0.0
    return x


def _root_floor(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """Rounding floor of the residual of a root at magnitude ``t``,
    ``ROOT_FLOOR*eps*t*(1 + |log t|)``; ``log_t`` is ``np.log(t)``."""
    return ROOT_FLOOR * EPS * t * (1.0 + np.abs(log_t))


@np.errstate(all="ignore")
def psi_many(p: float, lam, t) -> np.ndarray:
    """Elementwise positive solution of ``psi + lam*psi**(p-1) = t``, p >= 1.

    ``lam`` and ``t`` broadcast together and must be at least 0, or
    ``InvalidParameterError`` is raised (also for NaN); scalars give a 0-d
    array.  The returned psi lies in ``[0, t]``.  At p = 1 it is the soft
    threshold; at every other p it is :func:`_branch_root`'s, clamped to t,
    whose residual, as its last Newton pass evaluates it, is at most
    ``max(DEFAULT_TOL, ROOT_FLOOR*eps*t*(1 + |log t|))``; on the returned psi
    the residual also carries psi's rounding, which the power moves
    (p-1)-fold.  A root below ``FLUSH_TOL`` is returned as 0.
    """
    lam_arr, t = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(t, dtype=float))
    if not ((lam_arr >= 0).all() and (t >= 0).all()):  # also NaN
        raise InvalidParameterError("psi_many requires lam >= 0 and t >= 0")
    if p == 1.0:  # np.where gives an array also for 0-d arguments, which _flush indexes
        return _flush(np.where(t > lam_arr, t - lam_arr, 0.0))
    if p < 1.0:
        raise InvalidParameterError("psi_many requires p >= 1; use branch_roots for p < 1")
    # lam is left unbroadcast, so a column of multipliers costs one log each;
    # where t or lam is 0, psi = t
    lam = np.asarray(lam, dtype=float)
    return _flush(np.where((t > 0) & (lam > 0), np.minimum(_branch_root(p, lam, t, True), t), t))


def _branch_root(p: float, lam: np.ndarray, t: np.ndarray, upper) -> np.ndarray:
    """Root ``x`` of ``x + lam*x**(p-1) = t`` on one branch, for ``lam, t > 0``.

    Newton's method in ``s = log x`` from a cold start that puts one term at
    ``t``: ``f(s) = e**s + lam*e**((p-1)*s) - t`` is convex, so steps from a
    start with ``f >= 0`` move monotonically to the root on that side and
    never overshoot.  For p > 1 (``upper`` True) ``f`` also rises with ``s``,
    so the steps come down from the cold start; they are clamped at the
    floor where the larger term is ``t/2`` (``f <= 0``).  Where some ``t``
    of a p > 1 call passes ``2**1022``, ``x + lam*x**(p-1)`` can overflow,
    and the call takes ``f`` and its slope in units of ``t``.  For p < 1
    the root must exist, and iterates stay on their branch's side of the
    turning point ``x_arg``, so a root lost to rounding there comes back as
    ``x_arg``.  An element stops once ``|f| <= DEFAULT_TOL``, or from step
    ``ROOT_FLOOR_STEP`` on once ``|f|`` is within its rounding floor,
    :func:`_root_floor`, whatever its batch.  Returns the ``x = exp(s)`` of
    the last Newton pass.
    """
    log_t, log_lam = np.log(t), np.log(lam)
    s_pow = (log_lam - log_t) / (1.0 - p)  # where lam*x**(p-1) = t
    if p > 1:
        lo, hi = np.minimum(log_t - LOG2, s_pow - LOG2 / (p - 1.0)), np.minimum(log_t, s_pow)
    else:
        s_arg = np.log(lam * (1.0 - p)) / (2.0 - p)
        lo, hi = np.where(upper, s_arg, s_pow), np.where(upper, log_t, s_arg)
    s = np.where(upper, hi, lo)  # the cold start
    # where exp((p-1)*s) can pass double range before a tiny lam scales it
    # back, the power is one exp of the summed logs
    wide = (p - 1.0) * (hi if p > 1 else lo) > 700.0
    guard, tol = wide.any(), DEFAULT_TOL
    scaled = p > 1 and bool((t > 2.0**1022).any())
    for step in range(ROOT_STEPS):
        x = np.exp(s)
        pw = lam * np.exp((p - 1.0) * s)
        if guard:
            pw = np.where(wide, np.exp(log_lam + (p - 1.0) * s), pw)
        xu, pwu = (x / t, pw / t) if scaled else (x, pw)
        f = xu + pwu - (1.0 if scaled else t)
        if step == ROOT_FLOOR_STEP:
            tol = np.maximum(tol, _root_floor(t, log_t))
        open_ = np.abs(f * t if scaled else f) > tol
        if not open_.any():
            break
        # minimum(maximum()) is np.clip's arithmetic without its wrapper's overhead
        s = np.where(open_, np.minimum(np.maximum(s - f / (xu + (p - 1.0) * pwu), lo), hi), s)
    return x


# --- p < 1: branch structure of x + lam * x**(p-1) = t -----------------------
#
# For p in (0, 1) the map g(x) = x + lam*x**(p-1) decreases from +inf to a
# minimum at x_argmin = (lam*(1-p))**(1/(2-p)) and increases afterwards, so
# g(x) = t has zero, one, or two positive roots.  Only the larger root (the
# increasing branch) is a local minimum of the prox objective.


def _branch_vanish_lambda(p: float, t) -> np.ndarray:
    """Largest multiplier at which ``x + lam*x**(p-1) = t`` still has roots."""
    t = np.asarray(t, dtype=float)
    return ((1.0 - p) * t / (2.0 - p)) ** (2.0 - p) / (1.0 - p)


@np.errstate(all="ignore")
def branch_roots(p: float, lam, t, upper) -> np.ndarray:
    """Roots of ``x + lam*x**(p-1) = t`` on the chosen branch, p < 1, for ``lam >= 0``.

    ``lam``, ``t``, and the boolean ``upper`` broadcast together; True picks
    the larger root (on the increasing part of the map), False the smaller.
    At ``lam = 0`` the upper root is ``t`` and the lower root 0.  The upper
    root falls and the lower root rises with ``lam`` until both meet at
    ``(1-p)/(2-p)*t`` at ``_branch_vanish_lambda(p, t)``; from there on both
    are held at that meeting point, so both are monotone and never NaN.
    Live roots have residual at most ``max(DEFAULT_TOL, ROOT_FLOOR*eps*t*(1 + |log t|))``,
    as in :func:`psi_many`.
    """
    if not 0.0 < p < 1.0:  # also NaN
        raise InvalidParameterError("branch_roots requires p in (0, 1); use psi_many for p >= 1")
    lam, t = np.asarray(lam, dtype=float), np.asarray(t, dtype=float)
    upper = np.asarray(upper, dtype=bool)
    vanish = _branch_vanish_lambda(p, t)  # on t before broadcasting: once per magnitude
    positive = lam > 0
    out = np.where(positive, (1.0 - p) / (2.0 - p) * t, np.where(upper, t, 0.0))
    live = positive & (lam < vanish)
    # the live elements of each argument, broadcast only where its shape is not the block's
    shape = out.shape
    live = live if live.shape == shape else np.broadcast_to(live, shape)
    lam, t, upper = (v[live] if v.shape == shape else np.broadcast_to(v, shape)[live]
                     for v in (lam, t, upper))
    out[live] = _branch_root(p, lam, t, upper)
    return out
