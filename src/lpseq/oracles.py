"""Independent small-scale oracles and empirical probability checks.

Everything here deliberately avoids the dual-characterization solver: the
projection oracle is a dense grid search with local coordinate relaxation,
the width and small-ball checks are direct Monte Carlo estimates compared
against closed-form bounds, and the noise-floor statistic is computed
exactly per draw.  Probability bounds get a one-sided three-sigma binomial
slack: the inequalities are true statements, so a failure indicates a bug
rather than noise at the default replication counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, is_integer
from .instances import spike_instance
from .projection import KKT_BAR, LpBall, lp_norm, project, project_many, project_top_s
from .rates import RateQuery, control_function
from .rng import keyed_generator

# Generous slack for the variance-versus-rate comparison; the underlying
# statement only asserts existence of some universal constant.
VARIANCE_SLACK = 100.0


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one empirical check.

    ``passed`` holds iff ``statistic`` is on the passing side of
    ``threshold`` in the direction of ``comparison``.  ``inconclusive``
    flags runs with too few trials to mean anything.
    """

    name: str
    passed: bool
    statistic: float
    threshold: float
    trials: int
    seed: int
    comparison: str = ">="
    inconclusive: bool = False

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        note = " (inconclusive)" if self.inconclusive else ""
        return (f"{verdict} {self.name}: statistic={self.statistic:.6g} "
                f"{self.comparison} threshold={self.threshold:.6g} "
                f"[trials={self.trials}, seed={self.seed}]{note}")


def _report(name, statistic, threshold, trials, seed, comparison=">=",
            inconclusive=False) -> CheckReport:
    if comparison == ">=":
        passed = statistic >= threshold
    else:
        passed = statistic <= threshold
    return CheckReport(name, bool(passed), float(statistic), float(threshold),
                       trials, seed, comparison, inconclusive)


def _slackened(bound: float, phat: float, reps: int) -> float:
    """``bound`` less the three-sigma binomial slack of a frequency ``phat``
    over ``reps`` trials."""
    return bound - 3 * math.sqrt(max(phat * (1 - phat), 1e-12) / reps)


# --- brute-force projection oracle -------------------------------------------


def _objective(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum((x - y) ** 2))


def _grid_best(ball: LpBall, y: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               npts: int) -> np.ndarray | None:
    """The feasible point of the ``npts**d`` grid on ``[lo, hi]`` nearest ``y``, or None.

    Each axis's terms (``|a|**p``, or ``|a| <= r`` at p = inf, and ``(a - y_i)**2``)
    are taken once and summed, axis by axis, by broadcasting onto the mesh: the
    point-by-point sums in the same order.  Ties go to the first point in the
    mesh's row-major order.
    """
    d = y.size
    axes = [np.linspace(lo[i], hi[i], npts) for i in range(d)]

    def on_mesh(terms, combine):  # axis i varies along mesh dimension i
        total = terms[0].reshape((-1,) + (1,) * (d - 1))
        for i, term in enumerate(terms[1:], start=1):
            total = combine(total, term.reshape((-1,) + (1,) * (d - 1 - i)))
        return total

    if ball.p == math.inf:
        ok = on_mesh([np.abs(a) <= ball.radius for a in axes], np.logical_and)
    else:
        powsum = on_mesh([np.abs(a) ** ball.p for a in axes], np.add)
        ok = powsum <= ball.radius**ball.p * (1 + 1e-12)
    feasible = np.flatnonzero(ok)
    if not feasible.size:
        return None
    dist = on_mesh([(a - y[i]) ** 2 for i, a in enumerate(axes)], np.add).ravel()
    index = np.unravel_index(feasible[np.argmin(dist[feasible])], ok.shape)
    return np.array([a[j] for a, j in zip(axes, index)])


def _coordinate_bound(ball: LpBall, x: np.ndarray, i: int) -> float:
    if ball.p == math.inf:
        return ball.radius
    others = np.sum(np.abs(np.delete(x, i)) ** ball.p)
    budget = ball.radius**ball.p - others
    return budget ** (1.0 / ball.p) if budget > 0 else 0.0


# The pair search's zooming grid: 7 rounds of 401 points resolve the budget's
# split to 200**-7 ~ 8e-17, the spacing of doubles near 1.
_PAIR_POINTS = 401
_PAIR_ROUNDS = 7


def _pair_search(ball: LpBall, y: np.ndarray, x: np.ndarray, i: int, j: int) -> None:
    p, r = ball.p, ball.radius
    rest = np.sum(np.abs(np.delete(x, [i, j])) ** p)
    budget = r**p - rest
    if budget <= 0:
        x[i] = x[j] = 0.0
        return
    if abs(y[i]) ** p + abs(y[j]) ** p <= budget:
        x[i], x[j] = y[i], y[j]
        return
    si, sj = math.copysign(1.0, y[i]), math.copysign(1.0, y[j])
    # the share u of the budget that goes to x_i: each round keeps the two
    # cells around its best grid point, a 200-fold zoom
    lo, hi = 0.0, 1.0
    for _ in range(_PAIR_ROUNDS):
        us = np.linspace(lo, hi, _PAIR_POINTS)
        xi = si * (budget * us) ** (1.0 / p)
        xj = sj * (budget * (1.0 - us)) ** (1.0 / p)
        k = int(np.argmin((xi - y[i]) ** 2 + (xj - y[j]) ** 2))
        lo, hi = us[max(k - 1, 0)], us[min(k + 1, _PAIR_POINTS - 1)]
    xi, xj = xi[k], xj[k]
    if (xi - y[i]) ** 2 + (xj - y[j]) ** 2 < (x[i] - y[i]) ** 2 + (x[j] - y[j]) ** 2:
        x[i], x[j] = xi, xj


def _polish(ball: LpBall, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = x.copy()
    d = y.size
    prev = _objective(x, y)
    for _ in range(80):
        for i in range(d):
            bound = _coordinate_bound(ball, x, i)
            x[i] = float(np.clip(y[i], -bound, bound))
        if ball.p != math.inf:
            for i, j in itertools.combinations(range(d), 2):
                _pair_search(ball, y, x, i, j)
        cur = _objective(x, y)
        if prev - cur <= 1e-15 * (1.0 + cur):
            break
        prev = cur
    return x


_GRID_POINTS = {1: 2001, 2: 201, 3: 41}
_ZOOM_POINTS = {1: 201, 2: 41, 3: 21}


def brute_force_projection(ball: LpBall, y: np.ndarray) -> np.ndarray:
    """Dense-grid projection oracle for dimensions up to 3.

    Zooms the grid around its incumbent until the step is below 1e-3, then
    runs coordinate and coordinate-pair relaxation until the objective stops
    improving.
    """
    y = np.asarray(y, dtype=float)
    if ball.dim > 3:
        raise InvalidParameterError("brute-force oracle supports dim <= 3 only")
    if y.size != ball.dim:
        raise InvalidParameterError(f"expected length {ball.dim}, got {y.size}")

    if ball.p == 0:
        best, best_obj = None, math.inf
        for support in itertools.combinations(range(y.size), ball.sparsity):
            cand = np.zeros_like(y)
            cand[list(support)] = y[list(support)]
            obj = _objective(cand, y)
            if best is None or obj < best_obj - 1e-15:
                best, best_obj = cand, obj
        return best

    scale = max(float(np.max(np.abs(y))), 1e-9)
    lo = np.full(y.size, -scale)
    hi = np.full(y.size, scale)
    x = _grid_best(ball, y, lo, hi, _GRID_POINTS[ball.dim])
    if x is None:
        x = np.zeros_like(y)
    step = 2 * scale / (_GRID_POINTS[ball.dim] - 1)
    while step > 1e-3:
        lo = x - 2 * step
        hi = x + 2 * step
        npts = _ZOOM_POINTS[ball.dim]
        zoomed = _grid_best(ball, y, lo, hi, npts)
        if zoomed is not None:
            x = zoomed
        step = 4 * step / (npts - 1)
    return _polish(ball, y, x)


# --- Monte Carlo width and probability checks --------------------------------


def _row_stats(rng: np.random.Generator, reps: int, width: int, stat) -> np.ndarray:
    """``stat`` of each row of a ``(reps, width)`` standard normal draw.

    The draw comes in chunks of about 2e6 entries; chunks of one generator
    give the same numbers as one draw.
    """
    if reps < 1:
        raise InvalidParameterError(f"reps must be >= 1, got {reps}")
    chunk = max(1, int(2e6) // width)
    return np.concatenate([stat(rng.standard_normal((min(chunk, reps - done), width)))
                           for done in range(0, reps, chunk)])


def _check_cap(d: int, s: int) -> None:
    if not (is_integer(d) and is_integer(s) and 1 <= s <= d):
        raise InvalidParameterError(f"need integers 1 <= s <= d, got d={d}, s={s}")


def sparse_cap_width(d: int, s: int, reps: int, key: int) -> tuple[float, float]:
    """Monte Carlo mean (and stderr) of the top-s squared-entry sum."""
    _check_cap(d, s)
    rng = keyed_generator(key, f"sparse_cap_width|d={d}|s={s}")

    def top_s(xi):
        sq = xi**2
        return (sq if s == d else np.partition(sq, d - s, axis=1)[:, d - s:]).sum(axis=1)

    totals = _row_stats(rng, reps, d, top_s)
    return float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(reps))


def sparse_cap_bound(d: int, s: int) -> float:
    """Closed-form upper bound ``6 s log(e d / s)`` on the expected cap width."""
    _check_cap(d, s)
    return 6.0 * s * math.log(math.e * d / s)


def phi_lower_witness(xi: np.ndarray, p: float, eps: float) -> float:
    """Certified lower bound on the localized width functional at ``xi``.

    Places mass ``eps`` on the top ``s = ceil(eps**(-2p/(2-p)))`` coordinates
    of ``xi``; the witness is verified feasible (Euclidean norm ``eps``,
    p-th power sum at most 2) before its value ``eps * ||xi_S||_2`` is
    returned.
    """
    xi = np.asarray(xi, dtype=float)
    d = xi.size
    if not (0 < p < 1):
        raise InvalidParameterError(f"witness requires p in (0, 1), got {p}")
    eps_min = d ** (-(2.0 - p) / (2.0 * p))
    if not (eps_min <= eps <= 1.0):
        raise InvalidParameterError(
            f"eps must lie in [{eps_min:.3g}, 1] for d={d}, got {eps}")
    cap = project_top_s(min(math.ceil(eps ** (-2.0 * p / (2.0 - p))), d), xi)
    norm = float(np.linalg.norm(cap))
    if norm == 0.0:
        return 0.0
    witness = eps * cap / norm
    l2 = float(np.linalg.norm(witness))
    powsum = float(np.sum(np.abs(witness[witness != 0]) ** p))
    if abs(l2 - eps) > 1e-9 * (1 + eps) or powsum > 2.0 + 1e-9:
        raise InvalidParameterError("witness construction violated feasibility")
    return eps * norm


def check_small_ball(D: int, r: float, reps: int, key: int) -> CheckReport:
    """Empirical check that ``||xi||_r`` exceeds its guaranteed floor half the time."""
    if not (is_integer(D) and D >= 44):
        raise InvalidParameterError(f"D must be an integer >= 44, got {D}")
    if not (2.0 <= r <= 2.0 * math.log(D)):
        raise InvalidParameterError(f"r must lie in [2, 2 log D], got {r}")
    rng = keyed_generator(key, f"small_ball|D={D}|r={r!r}")
    floor = math.sqrt(r) * D ** (1.0 / r) / math.sqrt(32.0 * math.e)
    norms = _row_stats(rng, reps, D, lambda xi: np.sum(np.abs(xi) ** r, axis=1) ** (1.0 / r))
    phat = int(np.sum(norms >= floor)) / reps
    return _report(f"small_ball(D={D}, r={r:g})", phat, _slackened(0.5, phat, reps), reps, key)


def _noise_term_rows(blocks: np.ndarray, q: float) -> np.ndarray:
    """Trimmed noise statistic of each row of an ``(n, m/2)`` block."""
    m = 2 * blocks.shape[1]
    return 4.0 / m * np.partition(
        np.abs(blocks) ** q, m // 4 - 1, axis=1)[:, : m // 4].sum(axis=1)


def check_noise_term(d: int, q: float, t: float, reps: int, key: int) -> CheckReport:
    """Empirical check of the noise-floor probability bound."""
    if not (is_integer(d) and d >= 4):
        raise InvalidParameterError(f"d must be an integer >= 4, got {d}")
    if not (2.0 <= q <= 2.0 + math.log(d)):
        raise InvalidParameterError(f"q must lie in [2, 2 + log d], got {q}")
    if not (0.0 < t < 1.0):
        raise InvalidParameterError(f"t must lie in (0, 1), got {t}")
    m = d - d % 4
    rng = keyed_generator(key, f"noise_term|d={d}|q={q!r}|t={t!r}")
    values = _row_stats(rng, reps, m // 2, lambda xi: _noise_term_rows(xi, q))
    level = 0.5 * (3.0 * t / 10.0) ** q
    phat = float(np.mean(values >= level))
    return _report(f"noise_term(d={d}, q={q:g}, t={t:g})", phat,
                   _slackened((1.0 - t) ** 2 / 80.0, phat, reps), reps, key)


def check_mle_variance(ball: LpBall, theta_star: np.ndarray, sigma: float,
                       reps: int, key: int) -> CheckReport:
    """Variance of the projection estimator against the rate, with slack.

    The statement being probed is one-sided with an unspecified universal
    constant; ``VARIANCE_SLACK`` is an engineering choice recorded in the
    report as its threshold.  Marked inconclusive below 10 replications.
    """
    if ball.p < 1:
        raise InvalidParameterError("variance check requires a convex ball (p >= 1)")
    theta_star = np.asarray(theta_star, dtype=float)
    rng = keyed_generator(key, f"mle_variance|p={ball.p!r}|d={ball.dim}|sigma={sigma!r}")
    ys = theta_star + sigma * rng.standard_normal((reps, ball.dim))
    fits = np.array([res.point for res in project_many(ball, ys)])
    centered = fits - fits.mean(axis=0)
    variance = float(np.sum(centered**2) / max(reps - 1, 1))
    m = control_function(RateQuery(p=ball.p, d=ball.dim, sigma=sigma, radius=ball.radius))
    ratio = variance / m
    return _report(f"mle_variance(p={ball.p:g}, d={ball.dim}, sigma={sigma:g})",
                   ratio, VARIANCE_SLACK, reps, key, comparison="<=",
                   inconclusive=reps < 10)


def pathwise_errors(ball: LpBall, theta_star: np.ndarray, sigmas,
                    xi: np.ndarray) -> list[float]:
    """Projection errors along one noise path at increasing amplitudes."""
    ys = [theta_star + s * xi for s in sigmas]
    return [float(np.linalg.norm(res.point - theta_star)) for res in project_many(ball, ys)]


# --- named check suites -------------------------------------------------------


def _suite_kkt(seed: int) -> list[CheckReport]:
    reports = []
    worst_resid = 0.0
    worst_ident = 0.0
    trials = 0
    for p in (1.2, 1.5, 2.0, 3.0):
        for d in (5, 25):
            rng = keyed_generator(seed, f"suite_kkt|p={p!r}|d={d}")
            ball = LpBall(p=p, dim=d, radius=1.0)
            ys = 1.5 * rng.standard_normal((15, d))
            for y, res in zip(ys, project_many(ball, ys)):
                worst_resid = max(worst_resid, res.kkt_residual)
                trials += 1
                if p < 2.0 and lp_norm(y, p) > 1.0 and res.multiplier > 0:
                    q = p / (p - 1.0)
                    ident = lp_norm(y - res.point, q) / lp_norm(res.point, p) ** (p / q)
                    worst_ident = max(worst_ident,
                                      abs(res.multiplier - ident) / ident)
    reports.append(_report("kkt_residual_max", worst_resid, KKT_BAR, trials, seed, "<="))
    reports.append(_report("multiplier_norm_identity", worst_ident, 1e-5,
                           trials, seed, "<="))
    return reports


def _suite_oracle(seed: int) -> list[CheckReport]:
    worst_dist = 0.0
    worst_excess = 0.0
    trials = 0
    for d in (1, 2, 3):
        for p in (0.5, 1.0, 1.5, 2.0, math.inf):
            rng = keyed_generator(seed, f"suite_oracle|p={p!r}|d={d}")
            ball = LpBall(p=p, dim=d, radius=1.0)
            for _ in range(6):
                y = 1.5 * rng.standard_normal(d)
                got = project(ball, y).point
                ref = brute_force_projection(ball, y)
                trials += 1
                if p >= 1:
                    worst_dist = max(worst_dist, float(np.linalg.norm(got - ref)))
                else:
                    worst_excess = max(worst_excess,
                                       _objective(got, y) - _objective(ref, y))
    return [
        _report("oracle_distance_convex", worst_dist, 1e-3, trials, seed, "<="),
        _report("oracle_objective_excess_nonconvex", worst_excess, 1e-6,
                trials, seed, "<="),
    ]


def _suite_monotone(seed: int) -> list[CheckReport]:
    worst = -math.inf
    trials = 0
    for p in (1.0, 1.5, 2.0, math.inf):
        rng = keyed_generator(seed, f"suite_monotone|p={p!r}")
        ball = LpBall(p=p, dim=12, radius=1.0)
        for _ in range(10):
            theta = rng.standard_normal(12)
            theta = theta / max(lp_norm(theta, p), 1e-9) * 0.9
            xi = rng.standard_normal(12)
            errs = pathwise_errors(ball, theta, (0.2, 0.5, 1.1, 2.5), xi)
            worst = max(worst, max(a - b for a, b in zip(errs, errs[1:])))
            trials += 1
    return [_report("pathwise_risk_monotonicity", worst, 1e-7, trials, seed, "<=")]


def _suite_widths(seed: int) -> list[CheckReport]:
    reports = []
    margin = math.inf
    for d, s in ((10, 1), (10, 3), (100, 5), (1000, 10)):
        est, se = sparse_cap_width(d, s, 10_000, seed)
        margin = min(margin, sparse_cap_bound(d, s) + 4 * se - est)
    reports.append(_report("sparse_cap_vs_bound_margin", margin, 0.0, 4 * 10_000, seed))
    rng = keyed_generator(seed, "suite_widths|witness")
    violations = 0
    for _ in range(1000):
        xi = rng.standard_normal(64)
        eps = float(rng.uniform(0.3, 1.0))
        try:
            phi_lower_witness(xi, 0.5, eps)
        except InvalidParameterError:
            violations += 1
    reports.append(_report("phi_witness_feasibility_failures", violations, 0,
                           1000, seed, "<="))
    return reports


def _suite_smallball(seed: int) -> list[CheckReport]:
    return [
        check_small_ball(44, 2.0, 10_000, seed),
        check_small_ball(1000, 3.0, 10_000, seed),
    ]


def _suite_noiseterm(seed: int) -> list[CheckReport]:
    return [
        check_noise_term(100, 3.0, 0.5, 10_000, seed),
        check_noise_term(1000, 3.0, 0.5, 10_000, seed),
    ]


def _suite_variance(seed: int) -> list[CheckReport]:
    d = 40
    return [
        check_mle_variance(LpBall(p=2.0, dim=d, radius=1.0), np.zeros(d), 0.3, 300, seed),
        check_mle_variance(LpBall(p=1.5, dim=d, radius=1.0), spike_instance(d), 0.25, 300, seed),
    ]


SUITES = {
    "kkt": _suite_kkt,
    "oracle": _suite_oracle,
    "monotone": _suite_monotone,
    "widths": _suite_widths,
    "smallball": _suite_smallball,
    "noiseterm": _suite_noiseterm,
    "variance": _suite_variance,
}


def run_suite(name: str, seed: int) -> list[CheckReport]:
    """Run one named suite of ``SUITES``."""
    if name not in SUITES:
        raise InvalidParameterError(f"unknown suite {name!r}")
    return SUITES[name](seed)
