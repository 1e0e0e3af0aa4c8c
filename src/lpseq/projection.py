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
point, and one solver enumerates every prefix size under both branch patterns
and reports a weak-duality gap.

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
    psi_many,
)

# Feasibility slack on the p-th power sum; keeps ||x||_p <= r*(1 + 1e-9).
SUM_FEAS_TOL = 1e-10

# Outer multiplier search stops at this dual-sum gap (also on the KKT slackness
# it implies) or at relative bracket width 1e-14*(1 + lam), whichever is first.
LAMBDA_GAP_TOL = 1e-10

# The p < 1 solver's multiplier grid, and its refinement: QUASI_ROUNDS rounds of
# splitting each cell that may hold the optimum in QUASI_SPLIT (16**14 ~ 7e16).
QUASI_GRID = 48
QUASI_SPLIT = 16
QUASI_ROUNDS = 14


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
    ``InvalidParameterError`` where the multiplier has no finite unit-ball value.
    """
    if not (p > 1):
        raise InvalidParameterError(f"kkt_residual requires p > 1, got {p}")
    lam = _rescaled(result.multiplier, radius, p - 2.0)
    if not math.isfinite(lam):
        raise InvalidParameterError("multiplier outside double range; see result.kkt_residual")
    return _kkt_pieces(np.abs(np.asarray(y, float)) / radius, np.abs(result.point) / radius,
                       lam, p)


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
    of the head and of the last coordinate, ``js`` and ``low``; ``cand`` is
    the objective scaled onto the boundary, ``dev`` the power sum's distance.
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
    pts = np.stack(np.broadcast_arrays(lam[:, None], h, l, half_sq - cross,
                                       last_half_sq - last_cross, js, low), axis=-1)
    kappa = (budget / (h + l)) ** (1.0 / p)
    cand = kappa * kappa * (half_sq + last_half_sq) - kappa * (cross + last_cross)
    return pts, cand, np.abs((h + l) / budget - 1.0), U, last


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
    its value at the matching ends.  Each round splits the cells whose
    interval holds 1 and is wider than rounding and whose bound is at most the
    best candidate (an evaluated point scaled onto the boundary).  Upper roots
    are at least their branch point ``(1-p)/(2-p)*t_i``, so no size with
    ``sum_{i<j} ((1-p)/(2-p)*t_i)**p >= 1`` has a root.  The concave weak dual,
    whose maximum bounds the gap, is refined around its best grid point.
    Units are ``max(t)`` and objectives ``sum(x**2/2 - x*t)``, so nothing
    overflows; magnitudes with a vanishing multiplier below 1e-290 are
    dropped.  Returns ``(x, lam, gap, evals)``.
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
    top = min(int(np.count_nonzero(vanish > 1e-290)), 1 + int(np.searchsorted(meets, budget)))
    sizes = np.arange(max(k0 + 1, 2), top + 1)
    grid = np.concatenate(
        ([0.0], np.geomspace(1e-9 * vanish[top - 1], vanish[0], QUASI_GRID - 1)))
    evals = 0
    if sizes.size:
        lam, a, b = grid, None, None
        js = np.broadcast_to(np.concatenate([sizes, sizes]), (grid.size, 2 * sizes.size))
        low = np.broadcast_to(np.arange(2 * sizes.size) >= sizes.size, js.shape)
        for _ in range(QUASI_ROUNDS + 1):
            pts, cand, dev, U, last = _prefix_points(p, lam, ts, js, low, budget)
            evals += lam.size
            # objectives within 1e-13 tie; the point nearest the boundary wins
            lowest = min(best[0], float(np.min(cand)))
            key = np.where(cand <= lowest + 1e-13 * abs(lowest), dev, np.inf)
            r, k = np.unravel_index(int(np.argmin(key)), key.shape)
            if key[r, k] < np.inf and (cand[r, k] < best[0] - 1e-13 * abs(lowest)
                                       or dev[r, k] < best[3]):
                x = np.append(U[r, :js[r, k] - 1], last[r, k])
                best = [float(cand[r, k]), x * (budget / float(np.sum(x**p))) ** (1.0 / p),
                        float(lam[r]), float(dev[r, k])]
            # the grid first, once per size and pattern; then the split cells
            chains = pts.transpose(1, 0, 2) if a is None else np.concatenate(
                [a.T[:, None], pts.reshape(a.shape[1], -1, 7), b.T[:, None]], axis=1)
            a, b = np.moveaxis(np.stack([chains[:, :-1], chains[:, 1:]]).reshape(2, -1, 7), 2, 1)
            lo, hi = b[1] + np.minimum(a[2], b[2]), a[1] + np.maximum(a[2], b[2])
            keep = ((lo <= budget) & (hi >= budget) & (hi - lo > 1e-13 * budget)
                    & (a[3] + np.minimum(a[4], b[4]) <= best[0] + 1e-13 * abs(best[0]))
                    & (a[0] < vanish[a[5].astype(int) - 1]) & (b[0] - a[0] > 1e-15 * b[0]))
            if not np.any(keep):
                break
            a, b = a[:, keep], b[:, keep]
            lam = np.linspace(a[0], b[0], QUASI_SPLIT + 1)[1:-1].T.ravel()
            js = np.repeat(a[5].astype(int), QUASI_SPLIT - 1)[:, None]
            low = np.repeat(a[6] > 0, QUASI_SPLIT - 1)[:, None]

    # weak dual: each prox is the upper root where that beats 0, else 0
    lam, dual = grid, -np.inf
    for _ in range(QUASI_ROUNDS + 1):
        U = branch_roots(p, lam[:, None], ts, True)
        inner = np.minimum(U * (0.5 * U - ts) + (lam[:, None] / p) * U**p, 0.0)
        vals = np.sum(inner, axis=1) - lam / p * budget
        evals += lam.size
        i = int(np.argmax(vals))
        dual = max(dual, float(vals[i]))
        lam = np.linspace(lam[max(i - 1, 0)], lam[min(i + 1, lam.size - 1)], QUASI_SPLIT + 1)

    x = np.zeros_like(t)
    x[order[:best[1].size]] = best[1] * scale
    return x, best[2] * scale ** (2.0 - p), max(best[0] - dual, 0.0) * scale * scale, evals


def project(ball: LpBall, y: np.ndarray, tol: float = LAMBDA_GAP_TOL) -> ProjectionResult:
    """Euclidean projection of ``y`` onto the ball.

    Unique minimizer for p >= 1.  For p in (0, 1) a global minimizer, by the
    prefix-support structure in the module docstring, with a weak-duality
    gap; it keeps a prefix of ``y`` with multiplier 0 or lies on the
    boundary.  ``tol`` controls the outer multiplier search for p > 1.
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

    t = np.abs(y) / r
    if lp_norm(t, p) <= (1.0 + SUM_FEAS_TOL) ** (1.0 / p):
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
