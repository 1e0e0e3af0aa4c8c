"""Euclidean projection onto lp balls, for every norm index p in [0, inf].

For p > 1 the projection is computed from its coordinatewise dual
characterization: each output magnitude solves ``psi + lam*psi**(p-1) = |y_i|``
at the common multiplier ``lam*`` that makes the shrunk vector exactly
feasible.  Newton steps on ``S**(-1/q) - 1``, ``S`` the strictly decreasing
dual sum and ``q = p/(p-1)``, start at the dual norm ``||y/r||_q``, an upper
bound on ``lam*``; where the roots follow their power law in ``lam`` that
target is linear, exactly so at p = 2.  Bisection takes over where a step
leaves the bracket (the nested zero-finding of Liu & Ye, 2010).  At the
closed-form indices p in {1.5, 2, 3} the dual sum and its slope are products
of the closed form's own intermediates, each summed in one pass with no
per-element power or slope array; psi is formed only for the rows that stop at
an evaluation, and the slopes are summed only where some row steps on.  The
block's norms take exact products there, summed in one pass, from each row's
maximum and the block over it, taken once per block.  Elsewhere each dual-sum
evaluation after the first starts its inner Newton roots at the second-order
log-log tangent of the previous ones, continuing the inner solve, and takes
``log psi`` and ``psi**(p-1)`` from that solve's last Newton pass, against
``log(|y|/r)`` taken once per search; it takes no ``log`` or ``pow`` of its
own except on roots flushed to 0 or clamped to ``|y|/r``.  ``p = 1`` uses
exact sort-and-threshold water filling, ``p = 0`` keeps the largest
magnitudes, ``p = inf`` clips.
For p in (0, 1) the problem is nonconvex; its global minimizer keeps a prefix of
the sorted magnitudes, at most the last kept one on the lower root of the fixed
point, and one solver enumerates every prefix size under both branch patterns:
a multiplier grid brackets each size's roots, Newton steps solve the cells
where the power sum is monotone, and only cells where it may turn are split.
Its weak-duality gap is to the exact maximum of the concave dual: the prox
jump multipliers split the dual into smooth pieces, a bisection over them finds
the piece where the slope changes sign, and Newton steps find its root there;
a first probe at the primal multiplier is the maximum at a zero gap.

General radii are handled by solving on the unit ball after rescaling
``y / r`` and mapping the solution back.

``project_many`` projects each row of an ``(n, d)`` block, bit for bit as
``project`` does.  For p > 1 one multiplier search runs on the whole block:
each of its dual-sum evaluations is one vectorized call over the whole block,
while every row keeps its bracket and Newton step in plain floats, so it takes
the iterates it would alone, its warm starts come from its own previous
roots, and a row that has stopped keeps its multiplier and the ``psi`` of the
evaluation where it stopped; it is not recomputed.  A block thus costs its
slowest row's evaluations times its rows.  ``project`` runs that search on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NonFiniteInputError, is_integer
from .shrinkage import (
    CLOSED_FORMS,
    DEFAULT_TOL,
    FLUSH_TOL,
    _closed_falls,
    _closed_psi,
    _closed_sums,
    _closed_terms,
    _root_terms,
    branch_roots,
    branch_vanish_lambda,
    prox_jump_lambda,
    psi_many,  # not called here; the traced benchmark wraps this name
)

# Feasibility slack on the p-th power sum; keeps ||x||_p <= r*(1 + 1e-9) for p >= 0.1.
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
        for name in ("dim", "sparsity"):
            value = getattr(self, name)
            if value is not None and not is_integer(value):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
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


def lp_norm(x: np.ndarray, p: float) -> float:
    """(Quasi)norm ||x||_p; number of nonzeros when p = 0."""
    x = np.abs(np.asarray(x, dtype=float))
    if p == 0:
        return float(np.count_nonzero(x))
    top = float(np.max(x)) if x.size else 0.0
    if p == math.inf or not 0.0 < top < math.inf:  # empty, zero, infinite or NaN
        return top
    return _lp_norms([top], x.reshape(1, -1) / top, p)[0]


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
    """Keep the s largest-magnitude entries, zero the rest (ties: lowest index).

    ``y`` is one vector, or a block whose rows are treated one by one.
    """
    y = np.asarray(y, dtype=float)
    if not (1 <= s <= y.shape[-1]):
        raise InvalidParameterError(f"sparsity must lie in [1, {y.shape[-1]}], got {s}")
    keep = np.argsort(-np.abs(y), axis=-1, kind="stable")[..., :s]
    out = np.zeros_like(y)
    np.put_along_axis(out, keep, np.take_along_axis(y, keep, axis=-1), axis=-1)
    return out


def project_clip(r: float, y: np.ndarray) -> np.ndarray:
    """Coordinatewise clip to [-r, r]."""
    if not (r > 0):
        raise InvalidParameterError(f"radius must be positive, got {r}")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.minimum(np.abs(y), r)


def _dual_sums(p: float, lam: list, T: np.ndarray, log_T, start):
    """Dual sums of the rows of ``T`` at ``lam``, minus their slopes, psi, log psi, dpsi.

    This is the dual sum outside ``CLOSED_FORMS`` (there the search sums the
    closed form's own intermediates, ``_closed_terms``).  ``_root_terms``
    solves for ``psi`` against ``log_T = np.log(T)`` from ``start`` and returns
    ``log psi`` and ``pw = psi**(p-1)`` from its last Newton pass; ``dpsi`` is
    ``-d psi/d lam`` (0 where ``psi = 0``), the sum is ``sum(psi*pw)`` and
    minus its slope ``p*sum(pw*dpsi)``.  The sums and the (nonnegative) minus
    slopes come back as lists.
    """
    lam = _lam_column(lam)
    # psi's error moves the sum p-fold
    psi, log_psi, pw = _root_terms(p, lam, T, log_T, min(LAMBDA_GAP_TOL / (10 * p), DEFAULT_TOL),
                                   start)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        power = psi * pw
        dpsi = np.where(psi > 0, power / (psi + lam * (p - 1.0) * pw), 0.0)
        value = np.sum(power, axis=1)
        fall = p * np.sum(pw * dpsi, axis=1)
    return value.tolist(), fall.tolist(), psi, log_psi, dpsi


def _lam_column(lam: list):
    """Per-row values, such as multipliers, as a column against an ``(n, d)``
    block; a lone one as a scalar, which numpy broadcasts faster and to the
    same values."""
    return lam[0] if len(lam) == 1 else np.array(lam)[:, None]


def _find_lambda_star(p: float, T: np.ndarray, tops: list, scaled: np.ndarray):
    """``(lam, psi, evaluations)`` per row of ``T``: dual sum 1 at ``lam``, given ||t||_p > 1.

    ``tops`` are the rows' maxima and ``scaled`` is ``T`` divided by them,
    as :func:`project_many` takes them once per block.
    ``psi <= (t/lam)**(1/(p-1))`` bounds the dual sum ``S`` by
    ``(||t||_q/lam)**q``, so ``[0, ||t||_q]`` brackets the root.  Newton steps
    on ``S**(-1/q) - 1``, ``lam + q*S*expm1(log(S)/q)/(-S')``, start at the top:
    where the roots follow the power law ``psi ~ (t/lam)**(1/(p-1))`` this
    target is linear in ``lam``, and at p = 2, ``(1 + lam)/||t||_2 - 1``, it is
    linear everywhere, so one step lands.  A step that passes ``lo`` is redone
    on ``log S`` against ``log lam``, and bisection takes over where both leave
    the bracket.  Each evaluation covers the whole block; each
    row's bracket and step are plain floats, so it takes the iterates it would
    alone.  A row that has stopped keeps its multiplier and the ``psi`` of the
    evaluation where it stopped (a later one would repeat it only up to
    rounding), so a block costs its slowest row's evaluations times its rows.
    At p in ``CLOSED_FORMS`` each evaluation takes the closed form's
    intermediates, ``_closed_terms``, and sums their powers; psi is formed
    only for the rows that stop, and the slopes are summed only where some row
    steps on, so the last evaluation only confirms.  Elsewhere ``_dual_sums``
    evaluates the block, ``log T`` is taken once, here, and each evaluation
    after the first starts its roots at the second-order log-log tangent of
    the row's previous ones, ``log psi`` from their Newton pass: with ``D =
    log(lam_new/lam_old)`` and ``w = lam_old*dpsi/psi``, ``log psi - D*w -
    D**2/2 * w*(1 - (p-2)*w)*(1 - (p-1)*w)``.
    """
    slack_unit = [max(1.0, m) for m in tops]  # slackness is lam*|f|/this
    q = p / (p - 1.0)
    hi = _lp_norms(tops, scaled, q)
    lo, lam, iterations = [0.0] * len(hi), hi[:], [0] * len(hi)
    kept, start, log_T = np.empty_like(T), None, None
    closed = p in CLOSED_FORMS
    if not closed:
        with np.errstate(divide="ignore"):  # log 0 = -inf, where psi = t = 0
            log_T = np.log(T)
    for step_count in range(1, 201):
        if closed:
            lam_c = _lam_column(lam)
            v, root = _closed_terms(p, lam_c, T)
            values = _closed_sums(p, v).tolist()
        else:
            values, falls, psi, log_psi, dpsi = _dual_sums(p, lam, T, log_T, start)
        stopped, moving = [], []
        for i, value in enumerate(values):
            if iterations[i]:
                continue
            lam_i, f = lam[i], value - 1.0
            if (abs(f) * max(1.0, lam_i / slack_unit[i]) <= LAMBDA_GAP_TOL
                    or (hi[i] - lo[i]) <= 1e-14 * (1.0 + lam_i) or step_count == 200):
                iterations[i] = step_count
                stopped.append(i)
                continue
            if f > 0:
                lo[i] = lam_i
            else:
                hi[i] = lam_i
            moving.append(i)
        if len(stopped) == len(lam):  # the whole block stops here
            return lam, _closed_psi(p, v) if closed else psi, iterations
        if stopped:
            kept[stopped] = _closed_psi(p, v, stopped) if closed else psi[stopped]
        if not moving:
            return lam, kept, iterations
        if closed:
            falls = _closed_falls(p, lam_c, v, root).tolist()
        previous = lam[:]
        for i in moving:
            lam_i, value, fall = lam[i], values[i], falls[i]
            newton = math.nan
            if value > 0 and lam_i * fall > 0:
                log_value = math.log(value)
                # S**(1/q) - 1 by expm1, exact also where q is huge (p near 1)
                newton = lam_i + q * value * math.expm1(log_value / q) / fall
                if newton <= lo[i]:  # past lo: redo log S against log lam
                    newton = lam_i * math.exp(log_value * value / (lam_i * fall))
            lam[i] = newton if lo[i] < newton < hi[i] else 0.5 * (lo[i] + hi[i])
        if not closed:
            log_ratio = _lam_column([math.log(new / old) for new, old in zip(lam, previous)])
            with np.errstate(divide="ignore", invalid="ignore"):
                # -d log psi/d log lam; nan at psi = 0: a cold start
                w = _lam_column(previous) * dpsi / psi
                curve = w * (1.0 - (p - 2.0) * w) * (1.0 - (p - 1.0) * w)
                start = log_psi - log_ratio * w - (0.5 * log_ratio * log_ratio) * curve


def _kkt_pieces(T: np.ndarray, M: np.ndarray, lam: list, p: float, tops: list) -> list:
    """KKT residual of each row in unit-ball coordinates: ``T = |Y|/r``, ``M = |X|/r``,
    with ``tops`` the rows' maxima of ``T``."""
    lam_c = _lam_column(lam)
    with np.errstate(all="ignore"):
        pw = M ** (p - 1.0)
        # a zero output needs a zero input, up to what a magnitude below the
        # flush threshold s explains: s + lam*s**(p-1); for p < 1 it needs none.
        # Where that leaves a negative term, the slackness below (>= 0) wins.
        floor = FLUSH_TOL + lam_c * FLUSH_TOL ** (p - 1.0) if p >= 1 else np.inf
        stat = np.where(M > 0, np.abs(T - M - lam_c * pw), T - floor)
        # for p < 1, M*pw is 0*inf at zero outputs
        sums = np.einsum("ij,ij->i", M, pw) if p >= 1 else np.sum(M**p, axis=1)
    stat = np.max(stat / np.maximum(1.0, T), axis=1).tolist()
    return [max(st, abs(lam_i * (s - 1.0)) / max(1.0, top))
            for st, lam_i, s, top in zip(stat, lam, sums.tolist(), tops)]


def _lp_norms(tops: list, scaled: np.ndarray, p: float) -> list:
    """``lp_norm`` of each row of a nonnegative block, for p in (0, inf), from
    its maxima ``tops`` and the block divided by them, ``scaled``: scaling by
    the largest magnitude first, as hypot does, keeps the powers finite."""
    return [top * s ** (1.0 / p) if top > 0 else 0.0  # a zero row scales to 0/0
            for top, s in zip(tops, _power_sums(scaled, p).tolist())]


def _power_sums(X: np.ndarray, p: float) -> np.ndarray:
    """Each row's sum of ``X**p`` for ``X >= 0``; at p in {1.5, 2, 3} by exact
    products summed in one pass, where a general power costs two to three
    times as much."""
    if p == 1.5:
        return np.einsum("ij,ij->i", X, np.sqrt(X))
    if p == 2.0:
        return np.einsum("ij,ij->i", X, X)
    if p == 3.0:
        return np.einsum("ij,ij,ij->i", X, X, X)
    return np.sum(X**p, axis=1)


def _inside_unit(tops: list, scaled: np.ndarray, p: float) -> list:
    """Whether each row lies in the unit ball, up to ``SUM_FEAS_TOL`` on the power sum."""
    bound = (1.0 + SUM_FEAS_TOL) ** (1.0 / p)
    return [norm <= bound for norm in _lp_norms(tops, scaled, p)]


def _rescaled(lam: float, radius: float, power: float) -> float:
    """``lam * radius**power``, inf where that passes double range."""
    try:
        return lam * radius**power if lam else 0.0
    except OverflowError:
        return math.inf


def _project_l1_unit(t: np.ndarray):
    """Water-filling threshold for the unit l1 ball; t = |y|, sum(t) > 1.

    In the gaps ``v = max(t) - t`` the kept magnitudes are
    ``(1 + sum_{i<=rho} v_i)/rho - v_j``.  Gaps of magnitudes that can be
    kept, within 1 of the top, are exact, so no scale of ``t`` makes the
    threshold cancel against it.
    """
    top = float(np.max(t))
    v = top - np.sort(t)[::-1]
    level = (1.0 + np.cumsum(v)) / np.arange(1, t.size + 1)
    rho = int(np.max(np.nonzero(v < level)[0]))  # v[0] = 0 < level[0] = 1
    s = float(level[rho])
    return np.maximum(s - (top - t), 0.0), top - s


def _prefix_points(p: float, lam: np.ndarray, ts: np.ndarray, js: np.ndarray,
                   low: np.ndarray, budget: float):
    """Points keeping the ``js[r, k]`` largest ``ts`` at multiplier ``lam[r]``.

    The last kept one is on the lower root where ``low[r, k]``.  ``pts``
    records ``lam``, the p-th power sums and objectives ``sum(x**2/2 - x*t)``
    of the head and of the last coordinate, ``js``, ``low``, and the slopes in
    ``lam`` of the two power sums; ``cand`` is the objective scaled onto the
    boundary, ``dev`` the power sum's distance.
    """
    # one call: the head's upper roots, then each last one on its branch
    width, last_t = int(js.max()), ts[js - 1]
    heads = (lam.size, width)
    roots = branch_roots(p, lam[:, None],
                         np.concatenate([np.broadcast_to(ts[:width], heads), last_t], axis=1),
                         np.concatenate([np.ones(heads, dtype=bool), ~low], axis=1))
    U, last = roots[:, :width], roots[:, width:]
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


def _weak_dual_max(p: float, ts: np.ndarray, budget: float, primal=None):
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
    are dropped.  Returns ``(x, lam, gap, evals)``; a prefix kept as is comes
    back as the entries of ``t`` themselves.
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
        prefix = ts[:k0]
        best = [float(-0.5 * np.sum(prefix**2)), prefix, 0.0, 0.0]

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

    dual, dual_evals = _weak_dual_max(p, ts, budget, (best[2], best[1]))
    x = np.zeros_like(t)
    kept = order[:best[1].size]
    x[kept] = t[kept] if k0 > 0 and best[1] is prefix else best[1] * scale  # as is: exact
    gap = max(best[0] - dual, 0.0) * scale * scale
    return x, best[2] * scale ** (2.0 - p), gap, evals + dual_evals


def project(ball: LpBall, y: np.ndarray) -> ProjectionResult:
    """Euclidean projection of ``y`` onto the ball.

    Unique minimizer for p >= 1.  For p in (0, 1) a global minimizer, by the
    prefix-support structure in the module docstring, with a weak-duality
    gap; it keeps a prefix of ``y`` with multiplier 0 or lies on the
    boundary.  For p > 1 the multiplier search stops at ``LAMBDA_GAP_TOL``.
    Raises ``InvalidParameterError`` where ``max|y|/r`` overflows, and for
    p < 1 where ``(max|y|/r)**(2-p)``, the multiplier's unit, does.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != ball.dim:
        raise DimensionMismatchError(
            f"expected a vector of length {ball.dim}, got shape {y.shape}"
        )
    return project_many(ball, y[None])[0]


def project_many(ball: LpBall, Y: np.ndarray) -> list[ProjectionResult]:
    """:func:`project` applied to each row of the ``(n, d)`` block ``Y``.

    Row ``i`` of the result equals ``project(ball, Y[i])`` bit for bit.
    For p > 1 one multiplier search runs on the whole block, so each of its
    dual-sum evaluations is one vectorized call over the whole block, and the
    block costs its slowest row's evaluations times its rows; p = 1 and p < 1
    solve row by row, p in {0, inf} in one step.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != ball.dim:
        raise DimensionMismatchError(
            f"expected an (n, {ball.dim}) block, got shape {Y.shape}"
        )
    if not np.all(np.isfinite(Y)):
        raise NonFiniteInputError("input vector contains non-finite entries")
    p, r = ball.p, ball.radius
    if p == 0:
        return [ProjectionResult(x, 0.0, 0.0, 0) for x in project_top_s(ball.sparsity, Y)]
    if p == math.inf:
        return [ProjectionResult(x, 0.0, 0.0, 0) for x in project_clip(r, Y)]
    if Y.shape[0] == 0:
        return []

    # each row's maximum and T over it are taken once, for the inside test,
    # the multiplier search and the KKT check
    with np.errstate(over="ignore"):
        T = np.abs(Y) / r
        tops = np.max(T, axis=1)
        unit = tops.max() ** (2.0 - p if p < 1 else 1.0)  # p < 1 multipliers are in this unit
    if not np.isfinite(unit):
        raise InvalidParameterError(f"max|y|/r (its power 2-p at p < 1) overflows at radius {r!r}")
    with np.errstate(invalid="ignore"):  # 0/0 on a zero row
        scaled = T / tops[:, None]
    tops = tops.tolist()
    feasible_gap = 0.0 if p < 1 else None
    results = [ProjectionResult(y.copy(), 0.0, 0.0, 0, feasible_gap) if inside else None
               for inside, y in zip(_inside_unit(tops, scaled, p), Y)]
    outside = [i for i, res in enumerate(results) if res is None]
    if not outside:
        return results
    if len(outside) < len(results):
        T, Y, scaled = T[outside], Y[outside], scaled[outside]
        tops = [tops[i] for i in outside]

    gaps = [None] * len(outside)
    if p > 1:
        lams, mags, iters = _find_lambda_star(p, T, tops, scaled)
    else:
        mags, lams, iters = np.empty_like(T), [0.0] * len(outside), [0] * len(outside)
        for k, t in enumerate(T):
            if p == 1:
                mags[k], lams[k] = _project_l1_unit(t)
            else:
                mags[k], lams[k], gap_unit, iters[k] = _project_quasinorm_unit(p, t)
                gaps[k] = gap_unit * r * r
    points = np.sign(Y) * mags * r
    if p < 1:  # a magnitude kept as is is returned as is, not as (|y|/r)*r
        points = np.where(mags == T, Y, points)
    kkts = _kkt_pieces(T, mags, lams, p, tops)
    for k, (i, lam) in enumerate(zip(outside, lams)):
        results[i] = ProjectionResult(points[k], _rescaled(lam, r, 2.0 - p), kkts[k], iters[k],
                                      gaps[k])
    return results
