"""The tests' references: the power-penalty prox and weak dual for the p < 1
solver, and a bisection projection for p > 1.

The package solves p < 1 through ``branch_roots`` and certifies its point
from the enumeration's own bounds; it never needs the prox or the dual.  The
tests use them as independent checks: the weak dual on a dense multiplier
grid and at its exact maximum, which the returned objective must not be
below, and the prox's global optimality against a grid search.  For p > 1,
:func:`project_reference` finds the multiplier by plain bisection on exact
roots, with none of the package's multiplier search.
"""

import math

import numpy as np

from lpseq.shrinkage import FLUSH_TOL, branch_roots, psi_many


def power_objective(p: float, lam, t, x) -> np.ndarray:
    """Prox objective ``(x-t)**2/2 + (lam/p) * x**p`` at magnitude ``x >= 0``."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(invalid="ignore"):
        pen = np.where(x > 0, (lam / p) * x ** p, 0.0)
    return 0.5 * (x - t) ** 2 + pen


def prox_power_many(p: float, lam, t) -> np.ndarray:
    """Elementwise prox of ``x -> (lam/p)*x**p`` at magnitudes ``t >= 0``.

    Each element is the global minimizer of ``(x - t)**2/2 + (lam/p)*x**p``
    over ``x >= 0``: the ``psi_many`` root for ``p >= 1``; for ``p in
    (0, 1)`` the better of zero and the upper root, ties going to zero.
    ``lam`` broadcasts against ``t``, so a whole multiplier grid can be
    evaluated in one call.  Magnitudes below ``FLUSH_TOL`` come out as 0.
    """
    if p >= 1.0:
        return psi_many(p, lam, t)
    # the objective's slope g(x) - t is positive on (0, lower root), and
    # everywhere past the branch point, so there neither the lower root nor
    # the meeting point beats zero; only the upper root competes with it
    upper = branch_roots(p, lam, t, True)
    take = power_objective(p, lam, t, upper) < power_objective(p, lam, t, 0.0)
    x = np.where(take, upper, 0.0)  # strict: ties stay at zero
    x[x < FLUSH_TOL] = 0.0
    return x


def prox_jump_lambda(p: float, t) -> np.ndarray:
    """Multiplier at which the prox jumps from the upper root to zero.

    At this level the objective at the upper root ties with the objective at
    zero; ties are resolved toward zero.
    """
    t = np.asarray(t, dtype=float)
    x = 2.0 * (1.0 - p) / (2.0 - p) * t
    with np.errstate(invalid="ignore"):
        return (t - x) * x ** (1.0 - p)


def weak_dual_max(p: float, ts: np.ndarray, budget: float, primal=None):
    """``(max D, evaluations)`` of the weak dual for magnitudes ``ts`` sorted descending.

    ``D(lam) = sum_i min(phi_i, 0) - lam*budget/p`` is concave, ``phi_i`` the
    objective ``U*(U/2 - t_i) + (lam/p)*U**p`` at the upper root ``U_i``.
    Coordinate i is live (``phi_i < 0``) below ``prox_jump_lambda(p, t_i)``,
    which falls along ``ts``, so the live set is a prefix, and on a piece
    between jumps ``p*D' = sum_live U**p - budget`` is smooth and falling.
    The first probe is at the primal multiplier ``lam`` of ``primal = (lam,
    x)`` where the point ``x`` (units of ``ts``) may minimize the Lagrangian,
    as a zero gap needs: its support is the prefix live there, its last entry
    on the upper root.  Where the stop rule below holds there, that is the
    maximum; else the slope's sign makes ``lam`` one end of the search.  A
    bisection over the jumps, galloping away from that end (else up from the
    largest jump), finds the piece where the slope changes sign: the maximum
    is at its lower end if the slope is negative just past it, else at the
    slope's root, found by Newton steps (``dU/dlam = -U**(p-1) / (1 +
    lam*(p-1)*U**(p-2))``) from the secant point of the piece's ends, with
    bisection where one leaves the bracket.  They stop once ``|D'|`` times
    the bracket width, which by concavity bounds how far ``D`` is below its
    maximum, or times the Newton step, which estimates it, is 1e-16 of
    ``|D|``.  Every ``D`` is a weak dual value, so an inexact root only
    loosens the gap; the largest one probed is returned.
    """
    jumps = prox_jump_lambda(p, ts)
    n = int(np.count_nonzero(jumps > 0))
    evals, dual = 0, -math.inf

    def probe(lam, k):  # p*D' on the live prefix k, D, and the roots
        nonlocal evals, dual
        evals += 1
        U = branch_roots(p, lam, ts[:k], True)
        Up = U**p
        phi = np.minimum(U * (0.5 * U - ts[:k]) + (lam / p) * Up, 0.0)
        value = float(np.sum(phi)) - lam / p * budget
        dual = max(dual, value)
        return float(np.sum(Up)) - budget, value, U, Up

    def newton(lam, at):  # the Newton step on p*D', and whether the stop rule holds at lam
        h, value, U, Up = at
        step = lam - h / (-p * float(np.sum(Up * Up / (U * U + lam * (p - 1.0) * Up))))
        return step, abs(h) * abs(step - lam) <= 1e-16 * p * abs(value)

    # at jumps[m] the slope from the left, over prefix m + 1, rises with m;
    # find bad + 1 = good with it negative at bad (+inf at -1), >= 0 at good
    # (lam = 0 at n, where every coordinate counts); a and b are their multipliers
    bad, good, at_bad, at_good, base = -1, n, None, None, -1
    lam, x = primal or (0.0, ())
    kept = len(x)
    if 0 < kept == np.count_nonzero(jumps > lam) and x[-1] >= (1 - p) / (2 - p) * ts[kept - 1]:
        at = probe(lam, kept)
        if newton(lam, at)[1]:
            return dual, evals
        if at[0] >= 0:  # the maximum is past lam, at or below jumps[kept - 1]
            good, at_good, a, base = kept, at, lam, kept
        else:
            bad, at_bad, b, base = kept - 1, at, lam, kept - 1
    m = base - 1 if good == base else base + 1
    while good - bad > 1:
        at = probe(float(jumps[m]), m + 1)
        if at[0] >= 0:
            good, at_good, a = m, at, float(jumps[m])
        else:
            bad, at_bad, b = m, at, float(jumps[m])
        gallop = 2 * m - base  # twice as far from base, while the far end is open
        m = gallop if (good == n or bad == -1) and bad < gallop < good else (bad + good) // 2
    if at_good is None:
        a, at_good = 0.0, probe(0.0, ts.size)
    h_a = float(np.sum(at_good[3][:good])) - budget  # the slope just past a, over prefix good
    if good == 0 or h_a <= 0:  # falls just past the jump: a kink
        return dual, evals

    lam = a + h_a * (b - a) / (h_a - at_bad[0])  # the secant of the piece's ends
    for _ in range(100):
        lam = lam if a < lam < b else 0.5 * (a + b)
        at = probe(lam, good)
        a, b = (lam, b) if at[0] > 0 else (a, lam)
        step, done = newton(lam, at)
        if done or abs(at[0]) * (b - a) <= 1e-16 * p * abs(at[1]) or b - a <= 1e-15 * b:
            break
        lam = step
    return dual, evals


def project_reference(p: float, t: np.ndarray) -> np.ndarray:
    """Magnitudes of the projection of ``t >= 0`` onto the unit lp ball, p > 1, ``||t||_p > 1``.

    Bisection on the multiplier: at each trial ``lam`` the roots are
    ``psi_many(p, lam, t)``, and the dual sum ``sum(psi**p)`` falls with
    ``lam`` from ``||t||_p**p > 1`` at 0 to at most 1 at ``||t||_q``.  The
    bracket halves in ``log lam`` while its ends differ by more than a factor
    2, then arithmetically, until the midpoint is one of its ends.  Slow and
    plain on purpose.
    """
    q = p / (p - 1.0)
    top = float(np.max(t))
    hi = top * float(np.sum((t / top) ** q)) ** (1.0 / q)
    lo = hi

    def above(lam):  # the dual sum at lam is above 1
        psi = psi_many(p, lam, t)
        return float(np.sum(psi ** p)) > 1.0

    while above(hi):  # rounding of the norm
        hi *= 1.0 + 1e-12
    while not above(lo):
        lo *= 1e-100
    for _ in range(5000):
        mid = math.sqrt(lo) * math.sqrt(hi) if 0.0 < 2.0 * lo < hi else 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return psi_many(p, hi, t)
