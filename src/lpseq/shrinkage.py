"""Scalar shrinkage: roots of ``psi + lam*psi**(p-1) = t`` at magnitudes ``t >= 0``.

- ``soft_threshold``: the p = 1 shrinkage of signed entries.
- ``psi_many``: the root for p >= 1, which is unique.
- ``_closed_terms``, ``_closed_psi``, ``_closed_falls``: the closed forms at
  p in {1.5, 2, 3}, whose intermediates the p > 1 multiplier search sums.
- ``_root_terms``, ``_branch_root``: Newton steps in ``log psi`` at other p.
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
# It applies from step ROOT_FLOOR_STEP on: ordinary roots have stopped by
# then, so their calls never pay for computing it.
ROOT_FLOOR = 8.0
ROOT_FLOOR_STEP = 8
EPS = float(np.finfo(float).eps)
LOG2 = float(np.log(2.0))

# Indices at which psi_many has a closed form, whose intermediates the p > 1
# multiplier search sums; at the others both take Newton steps.
CLOSED_FORMS = frozenset({1.0, 1.5, 2.0, 3.0})


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


@np.errstate(all="ignore")
def psi_many(p: float, lam, t) -> np.ndarray:
    """Elementwise positive solution of ``psi + lam*psi**(p-1) = t``, p >= 1.

    ``lam`` and ``t`` broadcast together and must be at least 0, or
    ``InvalidParameterError`` is raised (also for NaN); scalars give a 0-d
    array.  The returned psi lies in ``[0, t]`` with residual at most
    ``max(DEFAULT_TOL, ROOT_FLOOR*eps*t*(1 + |log t|))``.  At p in
    ``CLOSED_FORMS`` it is a closed form; elsewhere :func:`_root_terms`.
    """
    lam_arr, t = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(t, dtype=float))
    if not ((lam_arr >= 0).all() and (t >= 0).all()):  # also NaN
        raise InvalidParameterError("psi_many requires lam >= 0 and t >= 0")
    if t.ndim == 0:  # solved as a block of one, so the kernels below index an array
        return psi_many(p, lam_arr[None], t[None]).reshape(())
    if p not in CLOSED_FORMS:
        if p < 1.0:
            raise InvalidParameterError("psi_many requires p >= 1; use branch_roots for p < 1")
        log_t = np.log(t)  # log 0 = -inf, where psi = t = 0
        return _root_terms(p, np.asarray(lam, dtype=float), t, log_t, DEFAULT_TOL)[0]
    if p == 1.0:
        return _flush(np.maximum(t - lam_arr, 0.0))
    # 0/0 at p = 1.5, lam = t = 0
    return _flush(np.where(lam_arr == 0, t, _closed_psi(p, _closed_terms(p, lam, t)[0])))


def _closed_terms(p: float, lam, t):
    """``(v, root)``, the intermediates of the closed form at p in {1.5, 2, 3}.

    ``lam > 0`` broadcasts against ``t >= 0``; multipliers are scaled and
    squared before they are broadcast, so a column of them costs one operation
    per row.  psi is ``v*v`` at p = 1.5 and ``v`` at p = 2 and 3, flushed by
    :func:`_closed_psi`.  A block's rows of ``psi**p`` sum as ``v**2`` at p =
    2 and ``v**3`` otherwise, and :func:`_closed_falls` sums those of
    ``-d(psi**p)/dlam`` from ``v`` and ``root``, as products in one pass with
    no power or slope array.  With ``-d psi/dlam = psi**(p-1)/(1 +
    lam*(p-1)*psi**(p-2))``: at p = 1.5, ``u = sqrt(psi)`` solves ``u*u +
    lam*u = t``: with ``h = lam/2`` and ``root = sqrt(h*h + t) = u + h``,
    ``v = u = t/(h + root)`` (the conjugate
    form, free of cancellation), the sum is ``sum(u**3)`` and the slope sum
    ``1.5*sum(u*u*(u/root))``.  At p = 2 ``v = t/(1 + lam)``, ``root`` is None
    and the slope sum is ``2*sum/(1 + lam)``; at p = 3, with ``root = sqrt(1 +
    4*lam*t) = 1 + 2*lam*psi``, ``v = 2*t/(1 + root)`` and the slope sum is
    ``3*sum(psi*psi*(psi**2/root))``.  A flushed psi adds 0 to both sums.
    """
    lam, t = np.asarray(lam, dtype=float), np.asarray(t, dtype=float)
    if p == 2.0:
        return t / (1.0 + lam), None
    if p == 1.5:
        # h*h overflows once lam passes 2.6e154, where hypot takes over (chosen
        # per element, so a result does not depend on the other lams of its call)
        h = 0.5 * lam
        root = np.sqrt(h * h + t)
        if lam.max() >= 1e150:
            root = np.where(lam < 1e150, root, np.hypot(h, np.sqrt(t)))
        return t / (h + root), root
    root = np.sqrt(1.0 + 4.0 * lam * t)  # p == 3
    if np.isinf(root).any():  # where 4*lam*t overflows, the 1 beside it is below rounding
        root = np.where(np.isinf(root), 2.0 * np.sqrt(lam) * np.sqrt(t), root)
    return 2.0 * t / (1.0 + root), root


def _closed_psi(p: float, v: np.ndarray, rows=...) -> np.ndarray:
    """psi on ``rows`` of ``v`` from :func:`_closed_terms` (all rows by default).

    At p = 2 and 3 psi on all rows is ``v`` itself, flushed in place."""
    return _flush(np.square(v[rows]) if p == 1.5 else v[rows])


def _closed_falls(p: float, lam, v: np.ndarray, root, sums: np.ndarray) -> np.ndarray:
    """Each row's sum of ``-d(psi**p)/dlam`` over a block ``(v, root)`` from
    :func:`_closed_terms` at the multipliers ``lam`` it was taken at; ``sums``
    are the rows' sums of ``psi**p``, which it scales at p = 2."""
    if p == 2.0:
        return np.ravel(2.0 / (1.0 + lam)) * sums
    # 0/0 at p = 1.5 and t = 0 where h*h underflows; v*v past double range
    ratio = v / root if p == 1.5 else np.square(v) / root
    if p == 1.5:  # zero where psi = u*u is flushed, t = 0 too; at p = 3 v*v underflows there
        least = float(v.min())
        if least * least < FLUSH_TOL:
            ratio[np.square(v) < FLUSH_TOL] = 0.0
    return p * np.einsum("ij,ij,ij->i", v, v, ratio)


def _root_terms(p: float, lam, t: np.ndarray, log_t: np.ndarray, tol: float, start=None):
    """``psi``, ``log psi`` and ``psi**(p-1)`` of :func:`psi_many` at a generic p > 1.

    ``lam >= 0`` is a scalar or an array broadcastable against ``t >= 0``, left
    unbroadcast so a column of multipliers costs one log each, and ``log_t`` is
    ``np.log(t)``, which a caller that solves against the same ``t`` many times
    takes once.  ``tol`` and ``start``, guesses of ``log psi`` such as the
    log-roots at a nearby ``lam``, go to :func:`_branch_root`; at
    ``DEFAULT_TOL`` and no ``start`` this is :func:`psi_many`'s ``psi`` bit
    for bit.  The logarithm and the power are those of the last
    Newton pass, ``s`` and ``exp((p-1)*s)``; only where ``psi`` is not that
    pass's ``exp(s)`` (flushed to 0, clamped to ``t``, or ``t`` itself at a
    zero ``t`` or ``lam``) are they taken from ``psi`` by ``log`` and ``pow``.
    """
    # where t or lam is 0, psi = t; a power past double range is inf
    x, log_psi, power = _branch_root(p, lam, t, log_t, True, tol, start)
    psi = _flush(np.where((t > 0) & (lam > 0), np.minimum(x, t), t))
    redo = (psi != x) | (psi == 0)  # x may have underflowed to psi = 0
    if redo.any():
        log_psi, power = np.asarray(log_psi), np.asarray(power)  # arrays also at 0-d
        log_psi[redo] = np.log(psi[redo])
        power[redo] = psi[redo] ** (p - 1.0)
    return psi, log_psi, power


def _branch_root(p: float, lam: np.ndarray, t: np.ndarray, log_t: np.ndarray, upper,
                 tol: float, start=None):
    """Root of ``x + lam*x**(p-1) = t`` on one branch, for ``lam, t > 0``.

    Returns ``(x, s, exp((p-1)*s))`` of the last Newton pass, ``x = exp(s)``;
    ``log_t`` is ``np.log(t)``.

    Newton's method in ``s = log x``: ``f(s) = e**s + lam*e**((p-1)*s) - t``
    is convex, so steps from a start with ``f >= 0`` move monotonically to the
    root on that side and never overshoot.  Each cold start puts one term at
    ``t``.  For p > 1 the root lies between that cold start and the floor
    where the larger term is ``t/2`` (``f <= 0``); ``start`` is clamped into
    them (NaN to the cold start), and a step from below the root overshoots
    once, onto the monotone side, clipped to the cold start.  For p < 1 the
    root must exist, ``start`` is not used, and iterates stay on their
    branch's side of the turning point ``x_arg``, so a root lost to rounding
    there comes back as ``x_arg``.  An element stops once ``|f| <= tol``, or from step
    ``ROOT_FLOOR_STEP`` on once ``|f|`` is within the rounding floor
    ``ROOT_FLOOR*eps*t*(1 + |log t|)``, whatever its batch.
    """
    log_lam = np.log(lam)
    s_pow = (log_lam - log_t) / (1.0 - p)  # where lam*x**(p-1) = t
    if p > 1:
        lo, hi = np.minimum(log_t - LOG2, s_pow - LOG2 / (p - 1.0)), np.minimum(log_t, s_pow)
        s = hi if start is None else np.fmax(np.fmin(start, hi), lo)  # NaN: hi
    else:
        s_arg = np.log(lam * (1.0 - p)) / (2.0 - p)
        s = np.where(upper, log_t, s_pow)
        lo, hi = np.where(upper, s_arg, s_pow), np.where(upper, log_t, s_arg)
    # where exp((p-1)*s) can pass double range before a tiny lam scales it
    # back, the power is one exp of the summed logs
    wide = (p - 1.0) * (hi if p > 1 else lo) > 700.0
    guard = wide.any()
    for step in range(ROOT_STEPS):
        x, at = np.exp(s), s  # s moves past x when the last step leaves it open
        power = np.exp((p - 1.0) * s)
        pw = lam * power
        if guard:
            pw = np.where(wide, np.exp(log_lam + (p - 1.0) * s), pw)
        f = x + pw - t
        if step == ROOT_FLOOR_STEP:
            tol = np.maximum(tol, ROOT_FLOOR * EPS * t * (1.0 + np.abs(log_t)))
        open_ = np.abs(f) > tol
        if not open_.any():
            break
        # minimum(maximum()) is np.clip's arithmetic without its wrapper's overhead
        s = np.where(open_, np.minimum(np.maximum(s - f / (x + (p - 1.0) * pw), lo), hi), s)
    return x, at, power


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
    out[live] = _branch_root(p, lam, t, np.log(t), upper, DEFAULT_TOL)[0]
    return out
