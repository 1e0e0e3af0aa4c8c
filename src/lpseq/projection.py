"""Euclidean projection onto lp balls, for every norm index p in [0, inf].

For p > 1 the projection is computed from its coordinatewise dual
characterization: each output magnitude solves ``psi + lam*psi**(p-1) = |y_i|``
at the common multiplier ``lam*`` that makes the shrunk vector exactly
feasible.  Newton steps on the log of the strictly decreasing dual sum start at
the dual norm ``||y/r||_q`` (``q = p/(p-1)``), an upper bound on ``lam*``, with
bisection where a step leaves the bracket.  ``p = 1`` uses exact sort-and-threshold
water filling, ``p = 0`` keeps the largest magnitudes, ``p = inf`` clips.
For p in (0, 1) the problem is nonconvex; its global minimizer keeps a prefix of
the sorted magnitudes, at most the last kept one on the lower root of the fixed
point, and one solver enumerates every prefix size under both branch patterns:
a multiplier grid brackets each size's roots, Newton steps solve the cells
where the power sum is monotone, and only cells where it may turn are split.
Its weak-duality gap is to the exact maximum of the concave dual: the prox
jump multipliers split the dual into smooth pieces, a bisection over them finds
the piece where the slope changes sign, and Newton steps find its root there.

General radii are handled by solving on the unit ball after rescaling
``y / r`` and mapping the solution back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailureError,
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteInputError,
)
from .shrinkage import (
    DEFAULT_TOL,
    FLUSH_TOL,
    branch_roots,
    branch_vanish_lambda,
    prox_jump_lambda,
    psi_many,
)

# Feasibility slack on the p-th power sum; keeps ||x||_p <= r*(1 + 1e-9).
SUM_FEAS_TOL = 1e-10

# Outer multiplier search stops at this dual-sum gap (also on the KKT slackness
# it implies) or at relative bracket width 1e-14*(1 + lam), whichever is first.
LAMBDA_GAP_TOL = 1e-10

# The p < 1 primal search's multiplier grid, and its refinement: QUASI_ROUNDS
# rounds of splitting each cell that may hold the optimum and where the power
# sum may turn in QUASI_SPLIT (16**14 ~ 7e16).
QUASI_GRID = 48
QUASI_SPLIT = 16
QUASI_ROUNDS = 14

# Smallest multiplier, in units of max|y|**(2-p), the p < 1 solver resolves;
# magnitudes whose roots vanish below it are dropped.
TINY_LAMBDA = 1e-290


@dataclass(frozen=True)
class LpBall:
    """Constraint set: the lp ball of the given radius, or the sparsity set.

    ``p = 0`` encodes the sparsity constraint ``||x||_0 <= sparsity`` (the
    radius must be omitted); any ``p > 0`` including ``inf`` takes a radius.
    """

    p: float
    dim: int
    radius: float | None = None
    sparsity: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameterError(f"dim must be >= 1, got {self.dim}")
        if self.p < 0 or math.isnan(self.p):
            raise InvalidParameterError(f"p must lie in [0, inf], got {self.p}")
        if self.p == 0:
            if self.sparsity is None or self.radius is not None:
                raise InvalidParameterError("p = 0 requires sparsity and no radius")
            if not (1 <= self.sparsity <= self.dim):
                raise InvalidParameterError(
                    f"sparsity must lie in [1, {self.dim}], got {self.sparsity}"
                )
        else:
            if self.radius is None or self.sparsity is not None:
                raise InvalidParameterError("p > 0 requires radius and no sparsity")
            if not (self.radius > 0):
                raise InvalidParameterError(f"radius must be positive, got {self.radius}")

    @property
    def conjugate(self) -> float:
        """Holder conjugate q with 1/p + 1/q = 1; pairs (1, inf) and (inf, 1)."""
        if self.p == 1:
            return math.inf
        if self.p == math.inf:
            return 1.0
        if self.p > 1:
            return self.p / (self.p - 1.0)
        raise InvalidParameterError(f"conjugate undefined for p = {self.p}")

    def contains(self, y: np.ndarray, feas_tol: float = 1e-9) -> bool:
        y = np.asarray(y, dtype=float)
        if self.p == 0:
            return int(np.count_nonzero(y)) <= self.sparsity
        return lp_norm(y, self.p) <= self.radius * (1.0 + feas_tol)


def lp_norm(x: np.ndarray, p: float) -> float:
    """(Quasi)norm ||x||_p; number of nonzeros when p = 0."""
    x = np.asarray(x, dtype=float)
    if p == 0:
        return float(np.count_nonzero(x))
    if p == math.inf:
        return float(np.max(np.abs(x))) if x.size else 0.0
    a = np.abs(x)
    pos = a[a > 0]
    if pos.size == 0:
        return 0.0
    # scale by the largest magnitude first, as hypot does, so powers stay finite
    top = float(np.max(pos))
    return top * float(np.sum((pos / top) ** p) ** (1.0 / p))


@dataclass
class ProjectionResult:
    """Projection output together with its optimality certificate.

    ``multiplier`` is the Lagrange-type multiplier of the coordinatewise
    fixed point in the original (unrescaled) coordinates; it is 0 for
    feasible inputs and, degenerately, for the direct ``p = 0`` and
    ``p = inf`` routines, which have no scalar multiplier.  At large p it is
    ``inf`` (r < 1) or 0 (r > 1) where ``r**(2-p)`` leaves double range.  ``kkt_residual``
    is scale-free: on the unit ball (``t = |y|/r``, ``m = |x|/r``, multiplier
    ``lam``) it is the maximum of each coordinate's stationarity residual
    ``|t_i - m_i - lam*m_i**(p-1)|`` over ``max(1, t_i)`` (over nonzero
    coordinates only when p < 1) and the two-sided complementary slackness
    ``lam*|sum(m**p) - 1|`` over ``max(1, max(t))``.
    ``duality_gap`` is reported only for p in (0, 1): the point is a global
    minimizer of a nonconvex problem, whose weak dual gap is positive in general.
    ``iterations`` counts multiplier evaluations: for p > 1 those of the dual
    sum, for p in (0, 1) those of the primal search plus those of the weak
    dual; it is 0 for p in {0, 1, inf} and for inputs inside the ball.
    """

    point: np.ndarray
    multiplier: float
    kkt_residual: float
    iterations: int
    duality_gap: float | None = None


def project_top_s(s: int, y: np.ndarray) -> np.ndarray:
    """Keep the s largest-magnitude entries, zero the rest (ties: lowest index)."""
    y = np.asarray(y, dtype=float)
    if not (1 <= s <= y.size):
        raise InvalidParameterError(f"sparsity must lie in [1, {y.size}], got {s}")
    order = np.argsort(-np.abs(y), kind="stable")
    out = np.zeros_like(y)
    keep = order[:s]
    out[keep] = y[keep]
    return out


def project_clip(r: float, y: np.ndarray) -> np.ndarray:
    """Coordinatewise clip to [-r, r]."""
    if not (r > 0):
        raise InvalidParameterError(f"radius must be positive, got {r}")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.minimum(np.abs(y), r)


def dual_sum(lam: float, y: np.ndarray, p: float, radius: float = 1.0,
             tol: float = DEFAULT_TOL) -> float:
    """Sum of shrunk magnitudes to the p-th power at multiplier ``lam``.

    Continuous and strictly decreasing in ``lam``; equals ``||y/r||_p**p`` at
    ``lam = 0`` and tends to 0 as ``lam`` grows.
    """
    if not (p > 1):
        raise InvalidParameterError(f"dual_sum requires p > 1, got {p}")
    if lam < 0:
        raise InvalidParameterError(f"lam must be nonnegative, got {lam}")
    t = np.abs(np.asarray(y, dtype=float)) / radius
    return _dual_sum_and_slope(p, lam, t, tol)[0]


def _dual_sum_and_slope(p: float, lam: float, t: np.ndarray, tol: float):
    psi = psi_many(p, lam, t, tol)
    pos = psi > 0
    value = float(np.sum(psi[pos] ** p))
    with np.errstate(over="ignore", divide="ignore"):
        pw = psi[pos] ** (p - 1.0)
        denom = 1.0 + lam * (p - 1.0) * psi[pos] ** (p - 2.0)
        slope = -float(np.sum(p * pw * pw / denom))
    return value, slope, psi


def _find_lambda_star(p: float, t: np.ndarray, gap_tol: float):
    """``(lam, psi, evaluations)`` with dual sum 1 at ``lam``, given ||t||_p > 1.

    ``psi <= (t/lam)**(1/(p-1))`` bounds the dual sum by ``(||t||_q/lam)**q``,
    so ``[0, ||t||_q]`` brackets the root.  Newton steps on its log start at the
    top, against ``lam`` (near linear for a barely infeasible ``t``); one that
    passes ``lo`` is redone against ``log lam`` (near slope ``-q`` far out).
    """
    if not np.all(np.isfinite(t)):
        raise BracketFailureError("non-finite magnitudes in multiplier search")
    inner_tol = min(gap_tol / (10 * p), DEFAULT_TOL)  # psi's error moves the sum p-fold
    slack_unit = max(1.0, float(np.max(t)))  # the KKT slackness is lam*|f|/slack_unit
    lo, hi = 0.0, lp_norm(t, p / (p - 1.0))
    lam = hi
    for iterations in range(1, 201):
        value, slope, psi = _dual_sum_and_slope(p, lam, t, inner_tol)
        f = value - 1.0
        if (abs(f) * max(1.0, lam / slack_unit) <= gap_tol
                or (hi - lo) <= 1e-14 * (1.0 + lam) or iterations == 200):
            return lam, psi, iterations
        lo, hi = (lam, hi) if f > 0 else (lo, lam)
        step = -math.log(value) * value / (lam * slope) if value > 0 > lam * slope else math.nan
        newton = lam * (1.0 + step)
        if newton <= lo:  # past lo against lam: redo against log lam
            newton = lam * math.exp(step)
        lam = newton if lo < newton < hi else 0.5 * (lo + hi)


def find_lambda_star(y: np.ndarray, p: float, radius: float = 1.0,
                     tol: float = LAMBDA_GAP_TOL) -> float:
    """Multiplier at which the dual sum hits 1, searched below the dual norm.

    ``||y/r||_q`` (``q`` the conjugate index) bounds the root from above.
    Newton steps on ``log dual_sum`` start there, against ``lam`` or, where
    that leaves the bracket, ``log lam``; bisection where both would.

    Requires ``p > 1`` and an infeasible input (``||y/r||_p > 1``); feasible
    inputs never reach this search (the projection returns them with a zero
    multiplier).  The result satisfies ``|f| * max(1, lam / max(1, max|y|/r)) <= tol``,
    ``f = dual_sum(lam) - 1``, unless the bracket collapses to relative width 1e-14.
    """
    if not (p > 1):
        raise InvalidParameterError(f"find_lambda_star requires p > 1, got {p}")
    t = np.abs(np.asarray(y, dtype=float)) / radius
    if lp_norm(t, p) <= 1.0:
        raise InvalidParameterError("input lies inside the ball; multiplier is 0")
    lam, _, _ = _find_lambda_star(p, t, tol)
    return lam


def _kkt_pieces(t: np.ndarray, mags: np.ndarray, lam: float, p: float):
    """KKT residual in unit-ball coordinates: ``t = |y|/r``, ``mags = |x|/r``."""
    nz = mags > 0
    with np.errstate(all="ignore"):
        # a zero output needs a zero input, up to what a magnitude below the
        # flush threshold s explains: s + lam*s**(p-1); for p < 1 it needs none
        floor = FLUSH_TOL + lam * FLUSH_TOL ** (p - 1.0) if p >= 1 else np.inf
        stat = np.where(nz, np.abs(t - mags - lam * mags ** (p - 1.0)),
                        np.maximum(t - floor, 0.0))
    slack = abs(lam * (float(np.sum(mags[nz] ** p)) - 1.0)) / max(1.0, float(np.max(t)))
    return max(float(np.max(stat / np.maximum(1.0, t))), slack)


def kkt_residual(y: np.ndarray, result: ProjectionResult, p: float,
                 radius: float = 1.0) -> float:
    """Scale-free KKT residual of ``result``, as ``ProjectionResult`` defines it.

    On the unit ball, stationarity is relative to ``max(1, |y_i|/r)`` for each
    coordinate and the two-sided slackness to ``max(1, max|y|/r)``.  Raises
    ``InvalidParameterError`` where the multiplier has no finite unit-ball value:
    where it is infinite, or zero for an input outside the ball, which only an
    underflowed ``r**(2-p)`` gives.
    """
    if not (p > 1):
        raise InvalidParameterError(f"kkt_residual requires p > 1, got {p}")
    t = np.abs(np.asarray(y, float)) / radius
    lam = _rescaled(result.multiplier, radius, p - 2.0)
    if not math.isfinite(lam) or (lam == 0 and not _inside_unit(t, p)):
        raise InvalidParameterError("multiplier outside double range; see result.kkt_residual")
    return _kkt_pieces(t, np.abs(result.point) / radius, lam, p)


def _inside_unit(t: np.ndarray, p: float) -> bool:
    """Whether magnitudes ``t`` lie in the unit ball, up to ``SUM_FEAS_TOL`` on the power sum."""
    return lp_norm(t, p) <= (1.0 + SUM_FEAS_TOL) ** (1.0 / p)


def _rescaled(lam: float, radius: float, power: float) -> float:
    """``lam * radius**power``, inf where that passes double range."""
    try:
        return lam * radius**power if lam else 0.0
    except OverflowError:
        return math.inf


def _project_l1_unit(t: np.ndarray):
    """Water-filling threshold for the unit l1 ball; t = |y|, sum(t) > 1."""
    u = np.sort(t)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, t.size + 1)
    rho = int(np.max(np.nonzero(u > (css - 1.0) / j)[0])) + 1
    tau = (css[rho - 1] - 1.0) / rho
    return np.maximum(t - tau, 0.0), float(tau)


def _prefix_points(p: float, lam: np.ndarray, ts: np.ndarray, js: np.ndarray,
                   low: np.ndarray, budget: float):
    """Points keeping the ``js[r, k]`` largest ``ts`` at multiplier ``lam[r]``.

    The last kept one is on the lower root where ``low[r, k]``.  ``pts``
    records ``lam``, the p-th power sums and objectives ``sum(x**2/2 - x*t)``
    of the head and of the last coordinate, ``js``, ``low``, and the slopes in
    ``lam`` of the two power sums; ``cand`` is the objective scaled onto the
    boundary, ``dev`` the power sum's distance.
    """
    U = branch_roots(p, lam[:, None], ts[:int(js.max())], True)
    last_t = ts[js - 1]
    last = np.where(low, branch_roots(p, lam[:, None], last_t, False),
                    np.take_along_axis(U, js - 1, axis=1))
    zero = np.zeros((lam.size, 1))

    def head(v):  # sums over the first j - 1 columns
        return np.take_along_axis(np.hstack([zero, np.cumsum(v, axis=1)]), js - 1, axis=1)

    half_sq, cross = head(0.5 * U * U), head(U * ts[:U.shape[1]])
    last_half_sq, last_cross = 0.5 * last * last, last * last_t
    h, l = head(U**p), last**p
    pts = np.stack(np.broadcast_arrays(
        lam[:, None], h, l, half_sq - cross, last_half_sq - last_cross, js, low,
        head(_power_slope(p, U, ts[:U.shape[1]])), _power_slope(p, last, last_t)), axis=-1)
    kappa = (budget / (h + l)) ** (1.0 / p)
    cand = kappa * kappa * (half_sq + last_half_sq) - kappa * (cross + last_cross)
    return pts, cand, np.abs((h + l) / budget - 1.0), U, last


def _power_slope(p: float, x, t):
    """``d(x**p)/dlam`` along a root ``x`` of ``x + lam*x**(p-1) = t``, on either branch."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -p * x ** (2.0 * p - 1.0) / ((2.0 - p) * x - (1.0 - p) * t)


def _cell_shapes(p: float, ts: np.ndarray, vanish: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Masks of the cells ``[a, b]`` with a monotone power sum, and with no local minimizer.

    With every root upper the sum falls.  With the last one lower, each upper
    ``U**p`` is concave in ``lam``, and the lower root's slope, as a function
    of the root, falls up to ``x0 = (1-2p)/(2(2-p))*t`` (only for p < 1/2)
    and rises after it, so the ends and ``x0`` bound the sum's slope on the
    cell.  A root where it falls is no local minimizer: the slope is
    ``p*(n_j**2/|h_j| - sum_{i<j} n_i**2/h_i)``, with ``n = x**(p-1)`` and ``h``
    the Lagrangian Hessian's diagonal ``1 + lam*(p-1)*x**(p-2)``, and the
    Hessian is positive semidefinite on the tangent space just where it is
    nonnegative.
    """
    last = a[5].astype(int) - 1
    x0 = (1.0 - 2.0 * p) / (2.0 * (2.0 - p)) * ts[last]
    least = np.minimum(a[8], b[8])
    if p < 0.5:  # l = x**p at the ends brackets x0**p where the slope is least
        inside = (a[2] < x0**p) & (x0**p < b[2])
        least = np.where(inside, _power_slope(p, x0, ts[last]), least)
    low = a[6] > 0
    live = b[0] < vanish[last]  # past it the roots are held, with no slope
    return live & (~low | (b[7] + least > 0)), live & low & (a[7] + np.maximum(a[8], b[8]) < 0)


def _cell_roots(p: float, ts: np.ndarray, budget: float, a: np.ndarray, b: np.ndarray):
    """Roots of ``sum(x**p) = budget`` on cells ``[a, b]`` where it is monotone and changes sign.

    Newton steps from the secant point, the slope from ``_power_slope``,
    redone against ``log lam`` where a step leaves the cell, with bisection
    where both would.  A cell stops once its sum is within 1e-13 of
    ``budget`` relative, it is as narrow as rounding, or ``lam`` is down to
    ``TINY_LAMBDA`` (for p near 0 a lower root's power ``(lam/t)**(p/(1-p))``
    meets ``budget`` only below double range).  Returns the multipliers, the
    points (zero past each cell's size) and the evaluations.
    """
    js, low = a[5].astype(int), a[6] > 0
    cols = np.arange(int(js.max()))
    live = cols < js[:, None]
    upper = (cols < js[:, None] - 1) | ~low[:, None]
    t = ts[:cols.size]
    lo, hi, f_lo = a[0], b[0], a[1] + a[2] - budget
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = lo - f_lo * (hi - lo) / (b[1] + b[2] - budget - f_lo)
    lam = np.where((lo < lam) & (lam < hi), lam, 0.5 * (lo + hi))
    open_, evals = np.ones(lam.size, dtype=bool), 0
    for _ in range(100):
        x = np.where(live, branch_roots(p, lam[:, None], t, upper), 0.0)
        evals += int(np.count_nonzero(open_))
        f = np.sum(x**p, axis=1) - budget
        slope = np.sum(np.where(live, _power_slope(p, x, t), 0.0), axis=1)
        same = np.sign(f) == np.sign(f_lo)  # the sum keeps its sign at lo
        lo, hi = np.where(open_ & same, lam, lo), np.where(open_ & ~same, lam, hi)
        open_ &= (np.abs(f) > 1e-13 * budget) & (hi - lo > 1e-15 * hi) & (lam > TINY_LAMBDA)
        if not np.any(open_):
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / slope
            newton, log_newton = lam - step, lam * np.exp(-step / lam)
        inside = [(lo < v) & (v < hi) & (v != lam) for v in (newton, log_newton)]
        step = np.maximum(np.select(inside, [newton, log_newton], 0.5 * (lo + hi)), TINY_LAMBDA)
        lam = np.where(open_, step, lam)
    return lam, x, evals


def _weak_dual_max(p: float, ts: np.ndarray, budget: float):
    """``(max D, evaluations)`` of the weak dual for magnitudes ``ts`` sorted descending.

    ``D(lam) = sum_i min(phi_i, 0) - lam*budget/p`` is concave, ``phi_i`` the
    objective ``U*(U/2 - t_i) + (lam/p)*U**p`` at the upper root ``U_i``.
    Coordinate i is live (``phi_i < 0``) below ``prox_jump_lambda(p, t_i)``,
    which falls along ``ts``, so the live set is a prefix, and on a piece
    between jumps ``p*D' = sum_live U**p - budget`` is smooth and falling.
    A bisection over the jumps, galloping from the largest, finds the piece
    where the slope changes sign: the maximum is at its lower jump if the
    slope is negative just past it, else at the slope's root, found by Newton
    steps (``dU/dlam = -U**(p-1) / (1 + lam*(p-1)*U**(p-2))``) with bisection
    where one leaves the bracket.  They stop once ``|D'|`` times the bracket
    width, which by concavity bounds how far ``D`` is below its maximum, or
    times the Newton step, which estimates it, is 1e-16 of ``|D|``.  Every
    ``D`` is a weak dual value, so an inexact root only loosens the gap.
    """
    jumps = prox_jump_lambda(p, ts)
    n = int(np.count_nonzero(jumps > 0))
    evals = 0

    def probe(lam, k):  # p*D' on the live prefix k, D, and the roots
        nonlocal evals
        evals += 1
        U = branch_roots(p, lam, ts[:k], True)
        Up = U**p
        phi = np.minimum(U * (0.5 * U - ts[:k]) + (lam / p) * Up, 0.0)
        return float(np.sum(Up)) - budget, float(np.sum(phi)) - lam / p * budget, U, Up

    # at jumps[m] the slope from the left, over prefix m + 1, rises with m;
    # find bad + 1 = good with it negative at bad (+inf at -1), >= 0 at good
    # (lam = 0 at n, where every coordinate counts)
    bad, good, m, at_good = -1, n, 0, None
    while good - bad > 1:
        at = probe(float(jumps[m]), m + 1)
        if at[0] >= 0:
            good, at_good = m, at
        else:
            bad, at_bad = m, at
        m = 2 * m + 1 if good == n and 2 * m + 1 < n else (bad + good) // 2
    if at_good is None:
        at_good = probe(0.0, ts.size)
    _, dual, _, Up = at_good
    if good == 0 or float(np.sum(Up[:good])) <= budget:  # falls just past the jump: a kink
        return dual, evals

    a, b = (float(jumps[good]) if good < n else 0.0), float(jumps[bad])
    lam, (h, value, U, Up) = b, at_bad
    for _ in range(100):
        dh = -p * float(np.sum(Up * Up / (U * U + lam * (p - 1.0) * Up)))
        step = lam - h / dh
        if abs(h) * min(b - a, abs(step - lam)) <= 1e-16 * p * abs(value) or b - a <= 1e-15 * b:
            break
        lam = step if a < step < b else 0.5 * (a + b)
        h, value, U, Up = probe(lam, good)
        dual = max(dual, value)
        a, b = (lam, b) if h > 0 else (a, lam)
    return dual, evals


def _project_quasinorm_unit(p: float, t: np.ndarray):
    """Global minimizer of ``||x - t||**2/2`` over ``sum(x**p) <= 1``, p in (0, 1).

    ``t`` holds magnitudes with ``sum(t**p) > 1``.  A minimizer (Yang, Wang &
    Wang, JMLR 2022) keeps a prefix of ``t`` sorted in descending order, since
    swapping a kept smaller magnitude for a dropped larger one never hurts.
    On the boundary it solves ``x + lam*x**(p-1) = t`` with ``lam > 0`` on
    its support, at most one coordinate on the lower root (two make the
    Lagrangian Hessian negative on a 2-D tangent direction), and that one is
    the smallest, the last kept.  The candidates are thus the largest
    feasible prefix of ``t`` as is (``lam = 0``), ``e_1`` on the boundary, and
    for each size ``j >= 2`` the roots on ``(0, vanish_j]`` of ``H_j = 1``,
    ``H_j(lam)`` the strictly decreasing p-th power sum of the first ``j``
    upper roots, and of ``H_{j-1}(lam) + l_j(lam)**p = 1``.

    Certified pruning on one multiplier grid finds the roots: on a cell
    ``[a, b]`` upper roots fall and the lower root rises, so either left side
    lies in ``[H(b) + l(a)**p, H(a) + l(b)**p]`` and the objective is at least
    its value at the matching ends.  A cell stays when its interval holds 1
    and is wider than rounding and its bound is at most the best candidate
    (an evaluated point scaled onto the boundary).  Where ``_cell_shapes``
    shows the power sum monotone on it, the cell holds one root, which
    ``_cell_roots`` finds by Newton steps; where it falls with a lower root,
    no local minimizer; each round splits the other cells.  Upper roots
    are at least their branch point ``(1-p)/(2-p)*t_i``, so no size with
    ``sum_{i<j} ((1-p)/(2-p)*t_i)**p >= 1`` has a root.  The gap is to the
    exact maximum of the concave weak dual, from ``_weak_dual_max``.
    Units are ``max(t)`` and objectives ``sum(x**2/2 - x*t)``, so nothing
    overflows; magnitudes with a vanishing multiplier below ``TINY_LAMBDA``
    are dropped.  Returns ``(x, lam, gap, evals)``.
    """
    scale = float(np.max(t))
    order = np.argsort(-t, kind="stable")
    ts = t[order] / scale
    budget = scale**-p  # the constraint is sum(x**p) <= budget in these units
    vanish = branch_vanish_lambda(p, ts)

    # the largest feasible prefix kept as is; when even t_1 is too large it
    # keeps nothing, and e_1 on the boundary beats it
    k0 = int(np.searchsorted(np.cumsum(ts**p), budget, side="right"))
    xi = 1.0 / scale
    best = [xi * (0.5 * xi - 1.0), np.array([xi]), (1.0 - xi) * xi ** (1.0 - p), 0.0]
    if k0 > 0:
        best = [float(-0.5 * np.sum(ts[:k0] ** 2)), ts[:k0], 0.0, 0.0]

    meets = np.cumsum(((1.0 - p) / (2.0 - p) * ts) ** p)
    top = min(int(np.count_nonzero(vanish > TINY_LAMBDA)), 1 + int(np.searchsorted(meets, budget)))
    sizes = np.arange(max(k0 + 1, 2), top + 1)
    grid = np.concatenate(
        ([0.0], np.geomspace(1e-9 * vanish[top - 1], vanish[0], QUASI_GRID - 1)))

    def improve(cand, dev, point):
        # objectives within 1e-13 tie; the point nearest the boundary wins
        lowest = min(best[0], float(np.min(cand)))
        key = np.where(cand <= lowest + 1e-13 * abs(lowest), dev, np.inf)
        i = np.unravel_index(int(np.argmin(key)), key.shape)
        if key[i] < np.inf and (cand[i] < best[0] - 1e-13 * abs(lowest) or dev[i] < best[3]):
            x, lam_i = point(*i)
            best[:] = [float(cand[i]), x * (budget / float(np.sum(x**p))) ** (1.0 / p),
                       float(lam_i), float(dev[i])]

    evals = 0
    if sizes.size:
        lam, a, b = grid, None, None
        js = np.broadcast_to(np.concatenate([sizes, sizes]), (grid.size, 2 * sizes.size))
        low = np.broadcast_to(np.arange(2 * sizes.size) >= sizes.size, js.shape)
        for _ in range(QUASI_ROUNDS + 1):
            pts, cand, dev, U, last = _prefix_points(p, lam, ts, js, low, budget)
            evals += lam.size
            improve(cand, dev, lambda r, k: (np.append(U[r, :js[r, k] - 1], last[r, k]), lam[r]))
            # the grid first, once per size and pattern; then the split cells
            fields = pts.shape[-1]
            chains = pts.transpose(1, 0, 2) if a is None else np.concatenate(
                [a.T[:, None], pts.reshape(a.shape[1], -1, fields), b.T[:, None]], axis=1)
            a, b = np.moveaxis(
                np.stack([chains[:, :-1], chains[:, 1:]]).reshape(2, -1, fields), 2, 1)
            lo, hi = b[1] + np.minimum(a[2], b[2]), a[1] + np.maximum(a[2], b[2])
            keep = ((lo <= budget) & (hi >= budget) & (hi - lo > 1e-13 * budget)
                    & (a[3] + np.minimum(a[4], b[4]) <= best[0] + 1e-13 * abs(best[0]))
                    & (a[0] < vanish[a[5].astype(int) - 1]) & (b[0] - a[0] > 1e-15 * b[0]))
            if not np.any(keep):
                break
            # a monotone sum has one root, found by Newton steps; only the
            # cells where it may turn are split
            monotone, no_minimizer = _cell_shapes(p, ts, vanish, a, b)
            sign_change = (a[1] + a[2] - budget) * (b[1] + b[2] - budget) <= 0
            roots = keep & monotone & sign_change
            if np.any(roots):
                lam_r, x, n = _cell_roots(p, ts, budget, a[:, roots], b[:, roots])
                evals += n
                s = np.sum(x**p, axis=1)
                kappa = (budget / s) ** (1.0 / p)
                improve(0.5 * kappa * kappa * np.sum(x * x, axis=1)
                        - kappa * (x @ ts[:x.shape[1]]), np.abs(s / budget - 1.0),
                        lambda i: (x[i, :int(a[5, roots][i])], lam_r[i]))
            keep &= ~monotone & ~no_minimizer
            if not np.any(keep):
                break
            a, b = a[:, keep], b[:, keep]
            lam = np.linspace(a[0], b[0], QUASI_SPLIT + 1)[1:-1].T.ravel()
            js = np.repeat(a[5].astype(int), QUASI_SPLIT - 1)[:, None]
            low = np.repeat(a[6] > 0, QUASI_SPLIT - 1)[:, None]

    dual, dual_evals = _weak_dual_max(p, ts, budget)
    x = np.zeros_like(t)
    x[order[:best[1].size]] = best[1] * scale
    gap = max(best[0] - dual, 0.0) * scale * scale
    return x, best[2] * scale ** (2.0 - p), gap, evals + dual_evals


def project(ball: LpBall, y: np.ndarray, tol: float = LAMBDA_GAP_TOL) -> ProjectionResult:
    """Euclidean projection of ``y`` onto the ball.

    Unique minimizer for p >= 1.  For p in (0, 1) a global minimizer, by the
    prefix-support structure in the module docstring, with a weak-duality
    gap; it keeps a prefix of ``y`` with multiplier 0 or lies on the
    boundary.  ``tol`` controls the outer multiplier search for p > 1.
    Raises ``InvalidParameterError`` where ``max|y|/r`` overflows.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != ball.dim:
        raise DimensionMismatchError(
            f"expected a vector of length {ball.dim}, got shape {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise NonFiniteInputError("input vector contains non-finite entries")

    p, r = ball.p, ball.radius

    if p == 0:
        return ProjectionResult(project_top_s(ball.sparsity, y), 0.0, 0.0, 0)
    if p == math.inf:
        return ProjectionResult(project_clip(r, y), 0.0, 0.0, 0)

    with np.errstate(over="ignore"):
        t = np.abs(y) / r
    if not np.isfinite(np.max(t)):
        raise InvalidParameterError(f"max|y|/r overflows at radius {r!r}")
    if _inside_unit(t, p):
        gap = 0.0 if p < 1 else None
        return ProjectionResult(y.copy(), 0.0, 0.0, 0, gap)

    if p == 1:
        mags, lam_unit = _project_l1_unit(t)
        iters, gap_unit = 0, None
    elif p > 1:
        lam_unit, mags, iters = _find_lambda_star(p, t, tol)
        gap_unit = None
    else:
        mags, lam_unit, gap_unit, iters = _project_quasinorm_unit(p, t)
    gap = None if gap_unit is None else gap_unit * r * r
    return ProjectionResult(np.sign(y) * mags * r, _rescaled(lam_unit, r, 2.0 - p),
                            _kkt_pieces(t, mags, lam_unit, p), iters, gap)
