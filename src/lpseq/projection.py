"""Euclidean projection onto lp balls, for every norm index p in [0, inf].

For p > 1 the projection is computed from its coordinatewise dual
characterization: each output magnitude solves ``psi + lam*psi**(p-1) = |y_i|``
at the common multiplier ``lam*`` that makes the shrunk vector exactly
feasible.  ``lam*`` is bracketed by doubling, then refined by Newton steps on
the strictly decreasing dual sum, each replaced by a bisection step when it
would leave the bracket.  ``p = 1`` uses exact sort-and-threshold
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

# Outer multiplier search stops at this dual-sum gap or at relative bracket
# width 1e-14*(1 + lam), whichever happens first.
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
    ``p = inf`` routines, which have no scalar multiplier.  ``kkt_residual``
    is the maximum of the stationarity and two-sided complementary-slackness
    residuals (stationarity over nonzero coordinates only when p < 1).
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
    """Multiplier making the dual sum equal 1, given sum(t**p) > 1."""
    if not np.all(np.isfinite(t)):
        raise BracketFailureError("non-finite magnitudes in multiplier search")
    inner_tol = min(gap_tol / 10, DEFAULT_TOL)
    iterations = 0
    lo = 0.0
    hi = 1.0
    value, slope, psi = _dual_sum_and_slope(p, hi, t, inner_tol)
    iterations += 1
    while value > 1.0:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise BracketFailureError("failed to bracket the dual multiplier")
        value, slope, psi = _dual_sum_and_slope(p, hi, t, inner_tol)
        iterations += 1

    lam = 0.5 * (lo + hi)
    for _ in range(200):
        value, slope, psi = _dual_sum_and_slope(p, lam, t, inner_tol)
        iterations += 1
        f = value - 1.0
        if abs(f) <= gap_tol or (hi - lo) <= 1e-14 * (1.0 + lam):
            break
        if f > 0:
            lo = lam
        else:
            hi = lam
        newton = lam - f / slope if slope < 0 else math.nan
        if math.isfinite(newton) and lo < newton < hi:
            lam = newton
        else:
            lam = 0.5 * (lo + hi)
    else:  # pragma: no cover - bracket shrinks strictly every iteration
        _, _, psi = _dual_sum_and_slope(p, lam, t, inner_tol)
        iterations += 1
    return lam, psi, iterations


def find_lambda_star(y: np.ndarray, p: float, radius: float = 1.0,
                     tol: float = LAMBDA_GAP_TOL) -> float:
    """Multiplier at which the dual sum hits 1: doubling, then safeguarded Newton.

    Newton steps use the dual sum's slope and fall back to bisection whenever
    a step would leave the current bracket.

    Requires ``p > 1`` and an infeasible input (``||y/r||_p > 1``); feasible
    inputs never reach this search (the projection returns them with a zero
    multiplier).  The result satisfies ``|dual_sum(lam) - 1| <= tol`` unless
    the bracket collapses to relative width 1e-14 first.
    """
    if not (p > 1):
        raise InvalidParameterError(f"find_lambda_star requires p > 1, got {p}")
    t = np.abs(np.asarray(y, dtype=float)) / radius
    pos = t > 0
    if not np.any(pos) or float(np.sum(t[pos] ** p)) <= 1.0:
        raise InvalidParameterError("input lies inside the ball; multiplier is 0")
    lam, _, _ = _find_lambda_star(p, t, tol)
    return lam


def _kkt_pieces(y: np.ndarray, x: np.ndarray, lam: float, p: float, radius: float):
    ay, ax = np.abs(y), np.abs(x)
    nz = ax > 0
    with np.errstate(over="ignore"):
        stat = float(np.max(np.abs(ay[nz] - ax[nz] - lam * ax[nz] ** (p - 1.0)))) \
            if np.any(nz) else 0.0
    if p >= 1 and np.any(~nz):
        # a zero output needs a zero input, up to what a magnitude below the
        # flush threshold s = r*FLUSH_TOL explains: s + lam*s**(p-1)
        s = radius * FLUSH_TOL
        with np.errstate(over="ignore", under="ignore"):
            floor = s + lam * s ** (p - 1.0)
        stat = max(stat, float(np.max(np.maximum(ay[~nz] - floor, 0.0))))
    powsum = float(np.sum(ax[nz] ** p)) if np.any(nz) else 0.0
    slack = abs(lam * (powsum - radius**p))
    return max(stat, slack)


def kkt_residual(y: np.ndarray, result: ProjectionResult, p: float,
                 radius: float = 1.0) -> float:
    """Maximum of the stationarity and complementary-slackness residuals."""
    if not (p > 1):
        raise InvalidParameterError(f"kkt_residual requires p > 1, got {p}")
    return _kkt_pieces(np.asarray(y, float), result.point, result.multiplier, p, radius)


def _project_l1_unit(t: np.ndarray):
    """Water-filling threshold for the unit l1 ball; t = |y|, sum(t) > 1."""
    u = np.sort(t)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, t.size + 1)
    rho = int(np.max(np.nonzero(u > (css - 1.0) / j)[0])) + 1
    tau = (css[rho - 1] - 1.0) / rho
    return np.maximum(t - tau, 0.0), float(tau)


def _clamped_roots(p: float, lam, t, upper, tol: float) -> np.ndarray:
    """Branch roots of ``x + lam*x**(p-1) = t``, held at the branch point past it.

    The upper root falls and the lower root rises with ``lam`` (from ``t`` and
    0) until they meet at ``(1-p)/(2-p)*t`` and stay, so both are monotone; a
    root lost to rounding next to the meeting point is the meeting point.
    """
    lam, t, upper = np.broadcast_arrays(lam, t, upper)
    meet = (1.0 - p) / (2.0 - p) * t
    out = np.where(lam > 0, meet, np.where(upper, t, 0.0))
    live = (lam > 0) & (lam < branch_vanish_lambda(p, t))
    roots = branch_roots(p, lam[live], t[live], upper[live], tol)
    out[live] = np.where(np.isnan(roots), meet[live], roots)
    return out


def _prefix_points(p: float, lam: np.ndarray, ts: np.ndarray, js: np.ndarray,
                   low: np.ndarray, budget: float, tol: float):
    """Points keeping the ``js[r, k]`` largest ``ts`` at multiplier ``lam[r]``.

    The last kept one is on the lower root where ``low[r, k]``.  ``pts``
    records ``lam``, the p-th power sums and objectives ``sum(x**2/2 - x*t)``
    of the head and of the last coordinate, ``js`` and ``low``; ``cand`` is
    the objective scaled onto the boundary, ``dev`` the power sum's distance.
    """
    U = _clamped_roots(p, lam[:, None], ts[:int(js.max())], True, tol)
    last_t = ts[js - 1]
    last = np.where(low, _clamped_roots(p, lam[:, None], last_t, False, tol),
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


def _project_quasinorm_unit(p: float, t: np.ndarray, tol: float):
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
            pts, cand, dev, U, last = _prefix_points(p, lam, ts, js, low, budget, tol)
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
        U = _clamped_roots(p, lam[:, None], ts, True, tol)
        inner = np.minimum(U * (0.5 * U - ts) + (lam[:, None] / p) * U**p, 0.0)
        vals = np.sum(np.where(lam[:, None] < vanish, inner, 0.0), axis=1) - lam / p * budget
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
    pos = t > 0
    powsum = float(np.sum(t[pos] ** p)) if np.any(pos) else 0.0
    if powsum <= 1.0 + SUM_FEAS_TOL:
        gap = 0.0 if p < 1 else None
        return ProjectionResult(y.copy(), 0.0, 0.0, 0, gap)

    if p == 1:
        mags, lam_unit = _project_l1_unit(t)
        iters, gap_unit = 0, None
    elif p > 1:
        lam_unit, mags, iters = _find_lambda_star(p, t, tol)
        gap_unit = None
    else:
        mags, lam_unit, gap_unit, iters = _project_quasinorm_unit(p, t, DEFAULT_TOL)
    x = np.sign(y) * mags * r
    lam = lam_unit * r ** (2.0 - p)
    gap = None if gap_unit is None else gap_unit * r * r
    return ProjectionResult(x, lam, _kkt_pieces(y, x, lam, p, r), iters, gap)
