"""Euclidean projection onto lp balls, for every norm index p in [0, inf].

``project`` and ``project_many`` take one vector or each row of a block;
the solvers work on the unit ball, on ``t = |y|/r``, and the point is mapped
back.  Which function does what:

- ``_find_lambda_star``: p > 1, the search for the multiplier at which the
  dual sum is 1, one pass over the block per step.  Each pass takes the
  roots at the current multiplier: exact at p = 1.5, from the closed form
  ``_closed_terms``; elsewhere from one Newton step on the roots and the
  multiplier together, with no inner root solve.  Every p then shares one
  stop rule, one bracket rule and one multiplier step.
- ``_project_l1_unit``: p = 1, sort-and-threshold water filling.
- ``_project_quasinorm_unit``: p in (0, 1), the global minimizer by certified
  enumeration of prefix supports (``_prefix_points``, ``_cell_shapes``,
  ``_cell_bound``, ``_cell_roots``), whose bounds also certify the point.
- ``project_top_s`` and ``project_clip``: p = 0 and p = inf, directly.
- ``_inside_unit``, ``_lp_norms``, ``_power_sums``, ``_kkt_pieces``: the
  feasibility test, the norms and the KKT residual.

The solvers use IEEE infinities, NaNs and zero divisions on purpose, and the
private kernels run under their caller's error state: ``project_many`` (so
also ``project``) ignores numpy's floating-point warnings for the whole call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, InvalidParameterError, NonFiniteInputError,
                     inf_past_range, is_integer)
from .shrinkage import (
    DEFAULT_TOL,
    FLUSH_TOL,
    LOG2,
    _branch_vanish_lambda,
    _flush,
    _root_floor,
    branch_roots,
    psi_many,  # not called here; the traced benchmark wraps this name
)

# Feasibility slack on the p-th power sum; with the norm held to 10 times it,
# keeps ||x||_p <= r*(1 + 1e-9) for every p > 0.
SUM_FEAS_TOL = 1e-10

# The p > 1 multiplier search stops at this dual-sum gap (also on the KKT
# slackness it implies) or at relative bracket width 1e-14*(1 + lam), whichever
# is first, and after SEARCH_STEPS passes at most.
LAMBDA_GAP_TOL = 1e-10
SEARCH_STEPS = 200

# A projection is certified when its KKT residual is at most this bar, ten
# times the search's gap: ``lpseq project`` exits 3 above it, and ``lpseq
# verify --suite kkt`` holds every row to it.
KKT_BAR = 1e-9

# A pass whose bounds on the dual sum straddle 1 and lie further apart than
# this refines the roots at the same multiplier (never at p = 1.5, where the
# roots are exact and both bounds are the sum).
ROOTS_FIRST = 0.1

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
        for name, value in (("dimension", self.dim), ("sparsity", self.sparsity)):
            if value is not None and not is_integer(value):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {self.dim}")
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
    if not p >= 0:  # also NaN
        raise InvalidParameterError(f"p must lie in [0, inf], got {p}")
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
    ``duality_gap`` is reported only for p in (0, 1), where it is the
    enumeration's certificate, not a Lagrangian duality gap (the weak dual
    of the nonconvex problem falls short in general): the objective minus a
    lower bound on every candidate the enumeration did not resolve, 0 where
    it resolved them all (see :func:`_project_quasinorm_unit`).  Like the
    multiplier it scales with ``r**2`` and is ``inf`` where that passes
    double range, except that a 0 stays 0.
    ``iterations`` counts the multiplier search's work.  For p > 1 it is its
    passes over the row, the one that stops included; each takes one
    multiplier step, from exact roots at p = 1.5 and with one joint Newton
    step on the roots elsewhere.  For p in (0, 1) it is the
    primal search's multiplier evaluations.  It is 0 for p in {0, 1, inf}
    and for inputs inside the ball.
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
    if not (is_integer(s) and 1 <= s <= y.shape[-1]):
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


def _lam_column(lam: list):
    """Per-row values, such as multipliers, as a column against an ``(n, d)``
    block; a lone one as a scalar, which numpy broadcasts faster and to the
    same values."""
    return lam[0] if len(lam) == 1 else np.array(lam)[:, None]


def _closed_terms(lam, t):
    """``(u, root)``, the intermediates of the closed form of the roots at p = 1.5.

    ``lam > 0`` broadcasts against ``t >= 0``; multipliers are scaled and
    squared before they are broadcast, so a column of them costs one operation
    per row.  ``u = sqrt(psi)`` solves ``u*u + lam*u = t``: with ``h =
    lam/2`` and ``root = sqrt(h*h + t) = u + h``, ``u = t/(h + root)`` (the
    conjugate form, free of cancellation).  psi is ``u*u``, which its caller
    flushes.  In the terms of :func:`_find_lambda_star`, ``x**p = u**3`` and
    ``g = lam/root``, so a row sums its powers as ``u**3`` and its slope
    ``sum(x**p*g)`` as ``lam*sum(u*u*(u/root))``: products in one pass with
    no power or slope array.
    """
    lam, t = np.asarray(lam, dtype=float), np.asarray(t, dtype=float)
    # h*h overflows once lam passes 2.6e154, where hypot takes over (chosen
    # per element, so a result does not depend on the other lams of its call)
    h = 0.5 * lam
    root = np.sqrt(h * h + t)
    if lam.max() >= 1e150:
        root = np.where(lam < 1e150, root, np.hypot(h, np.sqrt(t)))
    return t / (h + root), root


def _find_lambda_star(p: float, T: np.ndarray, tops: list, scaled: np.ndarray):
    """``(lam, psi, iterations)`` per row of ``T``: dual sum 1 at ``lam``, given ||t||_p > 1.

    ``tops`` are the rows' maxima and ``scaled`` is ``T`` divided by them,
    as :func:`project_many` takes them once per block.
    ``psi <= (t/lam)**(1/(p-1))`` bounds the dual sum ``S`` by
    ``(||t||_q/lam)**q``, so ``[0, ||t||_q]`` brackets the root, and the
    search starts at its top; where ``||t||_q`` passes double range it raises
    ``InvalidParameterError``.

    Each pass takes the roots at the current ``lam`` over the whole block.
    At p = 1.5 they are exact, from the closed form :func:`_closed_terms`.
    Elsewhere they come from one Newton step on the KKT system in ``s = log
    psi`` and ``lam`` together, with no inner root solve: ``F = x + b - t =
    0`` per coordinate, with ``x = exp(s)`` and ``b = lam*exp((p-1)*s)``, and
    the dual sum ``S = sum(x**p) = 1``.  Its Jacobian is an arrowhead, ``D =
    x + (p-1)*b`` on the diagonal, so a step is solved in O(d) by the Schur
    complement (Nocedal & Wright, 2006, ch. 18).  With ``e = F/D``, the
    Newton step in ``s`` at a fixed ``lam``, and ``g = b/D``, every p shares
    the multiplier step ``lam *= 1 + dl``, with ``dl = (q*S*expm1(log(S)/q)/p
    - sum(x**p*e)) / sum(x**p*g)``, a Newton step on ``S**(-1/q) - 1``, which
    is linear in ``lam`` where the roots follow the power law ``psi ~
    (t/lam)**(1/(p-1))``; the roots move by ``s -= e + g*dl``.  At exact roots
    ``e = 0`` and ``sum(x**p*g) = -lam*S'/p``, so this is Newton's step on
    that target along the roots.

    Each pass also bounds the sum at the exact roots of its ``lam``.  ``F`` is
    convex in ``s``, so each root lies below ``s - e`` and the sum is at most
    ``sum(x**p*exp(-p*e))``.  ``F`` is concave in ``x`` for p < 2 and in ``b``
    for p > 2, so each root lies above that variable's Newton step, and by
    Bernoulli's inequality the sum is at least ``S - p*sum(x**p*e)``.  At
    exact roots both bounds are ``S``.  A ``lam`` where a bound passes 1
    becomes an end of the bracket.  Where the bounds straddle 1 further apart
    than ``ROOTS_FIRST`` (or are nan), the roots are too far off to tell the
    side, and the step keeps ``lam`` and refines them; so does a row whose
    sum already meets the gap rule, where its multiplier step would leave the
    bracket.  Otherwise a multiplier step that leaves the bracket is redone
    as ``lam *= exp(dl)``, and bisection takes over where both do.

    Each pass forms the roots' bracket at its ``lam`` and clamps the Newton
    roots of the last pass into it.  The top is the cold start ``min(log t,
    (log t - log lam)/(p-1))``, where one term is ``t``, or lower where a sum
    of d powers ``psi**p`` would overflow (``psi <= 1`` at the solution); the
    first pass starts at the cold start at the top of the multiplier's
    bracket.  The floor is
    the top less ``log(2)*max(1, 1/(p-1))``, where the larger term is ``t/2``
    or below.  Magnitudes below ``FLUSH_TOL`` are taken as 0, which is then
    their root.

    A row stops once ``|S - 1|`` times ``max(1, lam/max(1, max(t)))`` (the
    slackness term of the KKT residual) is at most ``LAMBDA_GAP_TOL``, or
    its bracket is as narrow as ``1e-14*(1 + lam)``, and Newton roots also
    meet their residual rule, ``|F| <= max(tol, _root_floor(t))``, ``tol``
    small enough that the roots' error moves the sum by at most
    ``LAMBDA_GAP_TOL``.  It keeps its multiplier and the ``psi`` of the pass
    where it stopped, so each row takes the iterates it would alone and a
    block costs its slowest row's passes times its rows.  ``iterations``
    counts those passes, the stopping one included; ``psi`` is formed only
    for the rows that stop.
    """
    q = p / (p - 1.0)
    hi = _lp_norms(tops, scaled, q)
    if not max(hi) < math.inf:  # no NaN: the norms are finite or inf
        raise InvalidParameterError("||y||_q/r, the top of the multiplier's bracket, overflows")
    n, pm1, exact = len(hi), p - 1.0, p == 1.5
    slack_unit = [max(1.0, m) for m in tops]
    lo, lam, iterations = [0.0] * n, hi[:], [0] * n
    if not exact:
        zero = T < FLUSH_TOL
        flushed = bool(zero.any())
        if flushed:
            T = np.where(zero, 0.0, T)
        log_T = np.log(T)  # log 0 = -inf: s = -inf and psi = 0 there
        # psi's error moves the sum p-fold; at t = 0 the floor is 0*inf = nan,
        # which no |F| exceeds
        tol = np.maximum(min(LAMBDA_GAP_TOL / (10 * p), DEFAULT_TOL), _root_floor(T, log_T))
        # the top of every root's bracket: where one term is t, or where the sum of
        # d powers psi**p would overflow
        top_s = np.minimum(log_T, (math.log(np.finfo(float).max) - math.log(T.shape[1])) / p)
        pow_s = log_T / pm1
        width = LOG2 * max(1.0, 1.0 / pm1)
    kept = np.empty_like(T)
    for step_count in range(1, SEARCH_STEPS + 1):
        lam_c = _lam_column(lam)
        if exact:
            u, root = _closed_terms(lam_c, T)
            sums = _power_sums(u, 3.0).tolist()  # psi**1.5 = u**3
        else:  # the roots' bracket at lam: the cold start, and width below it
            cold = np.minimum(top_s, pow_s - _lam_column([math.log(v) / pm1 for v in lam]))
            s = cold if step_count == 1 else np.minimum(np.maximum(s, cold - width), cold)
            x = np.exp(s)
            pw = np.exp(pm1 * s)
            b = lam_c * pw
            power = x * pw
            sums = power.sum(axis=1).tolist()
            F = x + b - T
        near = []  # a loop: a comprehension would make the names it reads closure cells
        for i, value in enumerate(sums):
            if not iterations[i] and (
                    abs(value - 1.0) * max(1.0, lam[i] / slack_unit[i]) <= LAMBDA_GAP_TOL
                    or hi[i] - lo[i] <= 1e-14 * (1.0 + lam[i]) or step_count == SEARCH_STEPS):
                near.append(i)
        if near:
            done = near
            if not exact:
                open_ = np.any(np.abs(F) > tol, axis=1).tolist()
                last = step_count == SEARCH_STEPS
                done = [i for i in near if not open_[i] or last]
            for i in done:
                iterations[i] = step_count
            if len(done) == n:  # the whole block stops here
                return lam, _flush(np.square(u) if exact else np.minimum(x, T)), iterations
            if done:
                kept[done] = _flush(np.square(u[done]) if exact else np.minimum(x[done], T[done]))
                if all(iterations):
                    return lam, kept, iterations
        if exact:  # e = 0: both bounds are S
            # in root's buffer, not read again: a third block array kept alive into
            # the next pass cost 15% of a lone d = 7017 call; 0/0 at t = 0 where h*h
            # underflows
            ratio = np.divide(u, root, out=root)
            if float(u.min()) ** 2 < FLUSH_TOL:  # a flushed psi = u*u adds 0
                ratio[np.square(u) < FLUSH_TOL] = 0.0
            slopes = np.einsum("ij,ij,ij->i", u, u, ratio).tolist()
            highs = sums
        else:
            D = x + pm1 * b
            if flushed:
                D[zero] = 1.0  # F = 0 there
            e, g = F / D, b / D
            falls = np.einsum("ij,ij->i", power, e).tolist()
            slopes = np.einsum("ij,ij->i", power, g).tolist()
            highs = None  # summed once a row needs them
            ratios = [1.0] * n
        for i, value in enumerate(sums):
            if iterations[i]:
                continue
            lam_i = lam[i]
            fall, slope = (0.0, lam_i * slopes[i]) if exact else (falls[i], slopes[i])
            low = value - p * fall
            if low > 1.0:
                lo[i] = lam_i
            else:
                if highs is None:
                    highs = np.einsum("ij,ij->i", power, np.exp(-p * e)).tolist()
                if highs[i] < 1.0:
                    hi[i] = lam_i
                elif not highs[i] - low <= ROOTS_FIRST:  # also nan
                    continue
            new = math.nan
            if value > 0 and slope > 0:
                dl = (q * value * math.expm1(math.log(value) / q) / p - fall) / slope
                new = lam_i * (1.0 + dl)
                if not lo[i] < new < hi[i] and dl < 700.0:
                    new = lam_i * math.exp(dl)
            if not lo[i] < new < hi[i]:
                if i in near:  # the sum is settled: keep lam and settle the roots
                    continue
                new = 0.5 * (lo[i] + hi[i])
            lam[i] = new
            if not exact:
                ratios[i] = new / lam_i
        if not exact:
            s = s - e - g * (_lam_column(ratios) - 1.0)


def _kkt_pieces(T: np.ndarray, M: np.ndarray, lam: list, p: float, tops: list) -> list:
    """KKT residual of each row in unit-ball coordinates: ``T = |Y|/r``, ``M = |X|/r``,
    with ``tops`` the rows' maxima of ``T``."""
    lam_c = _lam_column(lam)
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
    the largest magnitude first, as hypot does, keeps the powers finite.  At
    small p the root ``s**(1/p)`` of a power sum ``s`` in [1, d] can pass
    double range where the norm does not (``top < 1``); just there the norm
    is taken in logs."""
    return [0.0 if not top > 0  # a zero row scales to 0/0
            else top * root if (root := inf_past_range(pow, s, 1.0 / p)) < math.inf
            else inf_past_range(math.exp, math.log(top) + math.log(s) / p)
            for top, s in zip(tops, _power_sums(scaled, p).tolist())]


def _power_sums(X: np.ndarray, p: float) -> np.ndarray:
    """Each row's sum of ``X**p`` for ``X >= 0``; at p in {1.5, 3}, the figures'
    index and its conjugate, by exact products summed in one pass, where a
    general power costs two to three times as much."""
    if p == 1.5:
        return np.einsum("ij,ij->i", X, np.sqrt(X))
    if p == 3.0:
        return np.einsum("ij,ij,ij->i", X, X, X)
    return np.sum(X**p, axis=1)


def _inside_unit(tops: list, scaled: np.ndarray, p: float) -> list:
    """Whether each row lies in the unit ball, up to ``SUM_FEAS_TOL`` on the power
    sum and ``10*SUM_FEAS_TOL`` on the norm, the bound that binds below p = 0.1."""
    bound = min(inf_past_range(pow, 1.0 + SUM_FEAS_TOL, 1.0 / p), 1.0 + 10 * SUM_FEAS_TOL)
    return [norm <= bound for norm in _lp_norms(tops, scaled, p)]


def _project_l1_unit(t: np.ndarray, top: float):
    """Water-filling threshold for the unit l1 ball; t = |y|, sum(t) > 1, top = max(t).

    In the gaps ``v = max(t) - t`` the kept magnitudes are
    ``(1 + sum_{i<=rho} v_i)/rho - v_j``.  Gaps of magnitudes that can be
    kept, within 1 of the top, are exact, so no scale of ``t`` makes the
    threshold cancel against it.
    """
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
    # one call: the heads' upper roots (every size is at least 2), then each
    # last one on its branch
    width, last_t = int(js.max()) - 1, ts[js - 1]
    t = ts[:width]
    heads = (lam.size, width)
    roots = branch_roots(p, lam[:, None],
                         np.concatenate([np.broadcast_to(t, heads), last_t], axis=1),
                         np.concatenate([np.ones(heads, dtype=bool), ~low], axis=1))
    U, last = roots[:, :width], roots[:, width:]
    # the four head sums over the first j - 1 columns, by one cumsum and one gather
    sums = np.cumsum([0.5 * U * U, U * t, U**p, _power_slope(p, U, t)], axis=2)
    half_sq, cross, h, h_slope = sums[:, np.arange(lam.size)[:, None], js - 2]
    last_half_sq, last_cross = 0.5 * last * last, last * last_t
    l = last**p
    fields = (lam[:, None], h, l, half_sq - cross, last_half_sq - last_cross, js, low,
              h_slope, _power_slope(p, last, last_t))
    pts = np.empty(h.shape + (len(fields),))
    for k, field in enumerate(fields):
        pts[..., k] = field
    kappa = (budget / (h + l)) ** (1.0 / p)
    cand = kappa * kappa * (half_sq + last_half_sq) - kappa * (cross + last_cross)
    return pts, cand, np.abs((h + l) / budget - 1.0), U, last


def _power_slope(p: float, x, t):
    """``d(x**p)/dlam`` along a root ``x`` of ``x + lam*x**(p-1) = t``, on either branch."""
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


def _cell_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least objective ``sum(x**2/2 - x*t)`` at any root on the cells ``[a, b]``.

    Upper roots fall with ``lam``, so the head's objective is least at ``a``;
    the last coordinate's is at least its value at one of the ends."""
    return a[3] + np.minimum(a[4], b[4])


def _cell_roots(p: float, ts: np.ndarray, budget: float, a: np.ndarray, b: np.ndarray):
    """Roots of ``sum(x**p) = budget`` on cells ``[a, b]`` where it is monotone and changes sign.

    Newton steps from the secant point, the slope from ``_power_slope``,
    redone against ``log lam`` where a step leaves the cell, with bisection
    where both would.  A cell stops once its sum is within 1e-13 of
    ``budget`` relative, it is as narrow as rounding, or ``lam`` is down to
    ``TINY_LAMBDA`` (for p near 0 a lower root's power ``(lam/t)**(p/(1-p))``
    meets ``budget`` only below double range).  Returns the multipliers, the
    points (zero past each cell's size), their objectives scaled onto the
    boundary and power sums' distance from it, as ``improve`` takes them, a
    lower bound on the objective at every root in the cells, and the
    evaluations.  Along the roots ``dF/dlam = -(lam/p)*dS/dlam`` (``F`` the
    objective, ``S`` the power sum), so on a monotone cell the root's ``F``
    is ``F(x) + c*(S(x) - budget)/p`` with ``c`` between the last ``lam``
    and the root, both in the final bracket ``[lo, hi]``: a cell that stops
    by the residual rule or as narrow as rounding is bounded by ``F(x) +
    min(lo*f, hi*f)/p``, ``f = S(x) - budget``, about ``(hi - lo)*|f|/p``
    below its candidate.  A cell left open at the step cap or at ``TINY_LAMBDA``
    is bounded by :func:`_cell_bound`.
    """
    js, low = a[5].astype(int), a[6] > 0
    cols = np.arange(int(js.max()))
    live = cols < js[:, None]
    upper = (cols < js[:, None] - 1) | ~low[:, None]
    t = ts[:cols.size]
    lo, hi, f_lo = a[0], b[0], a[1] + a[2] - budget
    open_, evals = np.ones(a.shape[1], dtype=bool), 0
    lam = lo - f_lo * (hi - lo) / (b[1] + b[2] - budget - f_lo)
    lam = np.where((lo < lam) & (lam < hi), lam, 0.5 * (lo + hi))
    for _ in range(100):
        x = np.where(live, branch_roots(p, lam[:, None], t, upper), 0.0)
        evals += int(np.count_nonzero(open_))
        s = np.sum(x**p, axis=1)
        f = s - budget
        same = np.sign(f) == np.sign(f_lo)  # the sum keeps its sign at lo
        lo, hi = np.where(open_ & same, lam, lo), np.where(open_ & ~same, lam, hi)
        short = (np.abs(f) > 1e-13 * budget) & (hi - lo > 1e-15 * hi)
        open_ &= short & (lam > TINY_LAMBDA)
        if not open_.any():
            break
        step = f / np.sum(np.where(live, _power_slope(p, x, t), 0.0), axis=1)
        newton, log_newton = lam - step, lam * np.exp(-step / lam)
        step = np.where((lo < newton) & (newton < hi) & (newton != lam), newton,
                        np.where((lo < log_newton) & (log_newton < hi) & (log_newton != lam),
                                 log_newton, 0.5 * (lo + hi)))
        lam = np.where(open_, np.maximum(step, TINY_LAMBDA), lam)
    kappa = (budget / s) ** (1.0 / p)
    sq, cross = np.sum(x * x, axis=1), x @ t
    cand = 0.5 * kappa * kappa * sq - kappa * cross
    floor = np.where(short, _cell_bound(a, b), 0.5 * sq - cross + np.minimum(lo * f, hi * f) / p)
    return lam, x, cand, np.abs(s / budget - 1.0), float(floor.min()), evals


def _project_quasinorm_unit(p: float, t: np.ndarray, scale: float):
    """Global minimizer of ``||x - t||**2/2`` over ``sum(x**p) <= 1``, p in (0, 1).

    ``t`` holds magnitudes with ``sum(t**p) > 1`` and maximum ``scale``.  A
    minimizer (Yang, Wang & Wang, JMLR 2022) keeps a prefix of ``t`` sorted in
    descending order, since swapping a kept smaller magnitude for a dropped
    larger one never hurts.
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
    ``sum_{i<j} ((1-p)/(2-p)*t_i)**p >= 1`` has a root.

    The gap certifies the point from the same bounds: it is the best
    objective minus the least lower bound over what the enumeration leaves
    unresolved, 0 where that is nothing.  Those are the cells that hold the
    budget and pass the bound test but are too narrow to split, the cells
    still to split when ``QUASI_ROUNDS`` runs out, each with its bound from
    ``_cell_bound``, and the roots of ``_cell_roots``, with the bound it
    returns: about ``(hi - lo)*|f|/p`` below the candidate where its 1e-13
    residual rule stops, ``_cell_bound`` where it stops at its step cap or
    ``TINY_LAMBDA``.  Every other cell is excluded outright: it misses the
    budget, its bound is above the best objective, it is past its size's
    vanishing multiplier, or its power sum is monotone without a sign change
    or falls with a lower root.  Pruning and ties allow 1e-13 of the
    objective.
    Units are ``max(t)`` and objectives ``sum(x**2/2 - x*t)``, so nothing
    overflows; magnitudes with a vanishing multiplier below ``TINY_LAMBDA``
    are dropped.  Where that, not the branch points, sets the largest size,
    keeping a dropped ``t_i`` lowers the objective by at most ``t_i**2/2``, so
    the least bound is ``min(floor, best) - 0.5*sum(dropped**2)``, the gap
    its distance to the best.  Returns ``(x, lam, gap, evals)``;
    a prefix kept as is comes back as the entries of ``t`` themselves.
    """
    order = np.argsort(-t, kind="stable")
    ts = t[order] / scale
    budget = scale**-p  # the constraint is sum(x**p) <= budget in these units
    vanish = _branch_vanish_lambda(p, ts)

    # the largest feasible prefix kept as is; when even t_1 is too large it
    # keeps nothing, and e_1 on the boundary beats it
    k0 = int(np.searchsorted(np.cumsum(ts**p), budget, side="right"))
    xi = 1.0 / scale
    best = [xi * (0.5 * xi - 1.0), np.array([xi]), (1.0 - xi) * xi ** (1.0 - p), 0.0]
    if k0 > 0:
        prefix = ts[:k0]
        best = [float(-0.5 * np.sum(prefix**2)), prefix, 0.0, 0.0]

    # no size past reach has a root, and magnitudes from top to reach are dropped
    reach = 1 + int(np.searchsorted(np.cumsum(((1.0 - p) / (2.0 - p) * ts) ** p), budget))
    top = min(int(np.count_nonzero(vanish > TINY_LAMBDA)), reach)
    sizes = np.arange(max(k0 + 1, 2), top + 1)
    # 0, then np.geomspace's points without its wrapper: 10**linspace of the
    # ends' log10, the ends themselves exact
    ends = 1e-9 * vanish[top - 1], vanish[0]
    grid = np.empty(QUASI_GRID)
    grid[0] = 0.0
    grid[1:] = 10.0 ** np.linspace(np.log10(ends[0]), np.log10(ends[1]), QUASI_GRID - 1)
    grid[1], grid[-1] = ends

    def improve(cand, dev, point):
        # objectives within 1e-13 tie; the point nearest the boundary wins
        lowest = min(best[0], float(np.min(cand)))
        key = np.where(cand <= lowest + 1e-13 * abs(lowest), dev, np.inf)
        i = np.unravel_index(int(np.argmin(key)), key.shape)
        if key[i] < np.inf and (cand[i] < best[0] - 1e-13 * abs(lowest) or dev[i] < best[3]):
            x, lam_i = point(*i)
            best[:] = [float(cand[i]), x * (budget / float(np.sum(x**p))) ** (1.0 / p),
                       float(lam_i), float(dev[i])]

    evals, floor = 0, math.inf  # floor: the least bound of the cells left unresolved
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
            bound = _cell_bound(a, b)
            holds = ((lo <= budget) & (hi >= budget) & (bound <= best[0] + 1e-13 * abs(best[0]))
                     & (a[0] < vanish[a[5].astype(int) - 1]))
            keep = holds & (hi - lo > 1e-13 * budget) & (b[0] - a[0] > 1e-15 * b[0])
            # a cell too narrow to split that may still hold the optimum is bounded, not solved
            floor = min(floor, float(np.min(bound, where=holds & ~keep, initial=math.inf)))
            if not np.any(keep):
                break
            # a monotone sum has one root, found by Newton steps; only the
            # cells where it may turn are split
            monotone, no_minimizer = _cell_shapes(p, ts, vanish, a, b)
            sign_change = (a[1] + a[2] - budget) * (b[1] + b[2] - budget) <= 0
            roots = keep & monotone & sign_change
            if np.any(roots):
                lam_r, x, cand, dev, least, n = _cell_roots(p, ts, budget, a[:, roots], b[:, roots])
                evals += n
                floor = min(floor, least)
                improve(cand, dev, lambda i: (x[i, :int(a[5, roots][i])], lam_r[i]))
            keep &= ~monotone & ~no_minimizer
            if not np.any(keep):
                break
            a, b = a[:, keep], b[:, keep]
            lam = np.linspace(a[0], b[0], QUASI_SPLIT + 1)[1:-1].T.ravel()
            js = np.repeat(a[5].astype(int), QUASI_SPLIT - 1)[:, None]
            low = np.repeat(a[6] > 0, QUASI_SPLIT - 1)[:, None]
        else:  # the rounds ran out: the cells still to split are bounded, not solved
            floor = min(floor, float(np.min(_cell_bound(a, b))))

    x = np.zeros_like(t)
    kept = order[:best[1].size]
    x[kept] = t[kept] if k0 > 0 and best[1] is prefix else best[1] * scale  # as is: exact
    # keeping a dropped magnitude lowers the objective by at most its t**2/2
    gap = (best[0] - floor if floor < best[0] else 0.0) + 0.5 * float(np.sum(ts[top:reach] ** 2))
    return x, best[2] * scale ** (2.0 - p), gap * scale * scale if gap else 0.0, evals


def project(ball: LpBall, y: np.ndarray) -> ProjectionResult:
    """Euclidean projection of ``y`` onto the ball.

    Unique minimizer for p >= 1.  For p in (0, 1) a global minimizer, found
    and certified (``duality_gap``) by the enumeration of
    :func:`_project_quasinorm_unit`; it keeps a prefix of ``y`` with
    multiplier 0 or lies on the boundary.  For p > 1 the multiplier search
    stops at ``LAMBDA_GAP_TOL``.
    Raises ``InvalidParameterError`` where ``max|y|/r`` overflows, for
    p < 1 where ``(max|y|/r)**(2-p)``, the multiplier's unit, does, and for
    p > 1 where ``||y||_q/r``, the top of the multiplier's bracket, does.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != ball.dim:
        raise DimensionMismatchError(
            f"expected a vector of length {ball.dim}, got shape {y.shape}"
        )
    return project_many(ball, y[None])[0]


@np.errstate(all="ignore")
def project_many(ball: LpBall, Y: np.ndarray) -> list[ProjectionResult]:
    """:func:`project` applied to each row of the ``(n, d)`` block ``Y``.

    Row ``i`` of the result equals ``project(ball, Y[i])`` bit for bit.
    For p > 1 one multiplier search runs on the whole block, so each of its
    passes is one vectorized call over the whole block, and the block costs
    its slowest row's passes times its rows; p = 1 and p < 1 solve row by
    row, p in {0, inf} in one step.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != ball.dim:
        raise DimensionMismatchError(
            f"expected an (n, {ball.dim}) block, got shape {Y.shape}"
        )
    if not np.all(np.isfinite(Y)):
        raise NonFiniteInputError("input vector contains non-finite entries")
    p, r = ball.p, ball.radius
    if p in (0, math.inf):
        points = project_top_s(ball.sparsity, Y) if p == 0 else project_clip(r, Y)
        return [ProjectionResult(x, 0.0, 0.0, 0) for x in points]
    if Y.shape[0] == 0:
        return []

    # each row's maximum and T over it are taken once, for the inside test,
    # the solvers and the KKT check
    T = np.abs(Y) / r
    tops = np.max(T, axis=1)
    top = tops.max()
    if not np.isfinite(top ** (2.0 - p if p < 1 else 1.0)):  # p < 1 multipliers are in this unit
        what = "max|y|/r" if top == math.inf else "(max|y|/r)**(2-p), the multiplier's unit,"
        raise InvalidParameterError(f"{what} overflows at radius {r!r}")
    scaled = T / tops[:, None]  # 0/0 on a zero row
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
                mags[k], lams[k] = _project_l1_unit(t, tops[k])
            else:
                mags[k], lams[k], gap_unit, iters[k] = _project_quasinorm_unit(p, t, tops[k])
                gaps[k] = gap_unit * r * r
    points = np.sign(Y) * mags * r
    if p < 1:  # a magnitude kept as is is returned as is, not as (|y|/r)*r
        points = np.where(mags == T, Y, points)
    kkts = _kkt_pieces(T, mags, lams, p, tops)
    lam_scale = inf_past_range(pow, r, 2.0 - p)  # unit-ball multipliers to original ones
    for k, (i, lam) in enumerate(zip(outside, lams)):
        results[i] = ProjectionResult(points[k], lam * lam_scale if lam else 0.0, kkts[k],
                                      iters[k], gaps[k])
    return results
