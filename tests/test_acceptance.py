"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole module is also part of the default suite.
"""

import math
import time

import numpy as np
import pytest

from lpseq.estimators import EstimatorSpec
from lpseq.instances import flat_sparse_instance, spike_instance
from lpseq.oracles import (
    brute_force_projection,
    check_noise_term,
    check_small_ball,
    phi_lower_witness,
    sparse_cap_bound,
    sparse_cap_width,
)
from lpseq.projection import LpBall, lp_norm, project, project_many
from lpseq.rates import C_LOWER, C_UPPER, RateQuery, control_function
from lpseq.rng import keyed_generator
from lpseq.simulate import (
    ExperimentConfig,
    TrialKey,
    default_d_grid,
    estimate_risk,
    fit_log_slope,
    run_experiment,
    sample_observation,
)

SEED = 20240809


def report(num, name, ok, detail):
    print(f"\n[acceptance] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


# --- criterion 1: projection matches the brute-force oracle ------------------


def test_criterion_1_projection_oracle_matrix():
    start = time.time()
    rng = keyed_generator(SEED, "criterion1")
    worst_dist = 0.0
    worst_excess = -math.inf
    worst_kkt = 0.0
    for d in (1, 2, 3):
        for p in (0.5, 1.0, 1.3, 1.5, 2.0, 3.0, math.inf):
            ball = LpBall(p=p, dim=d, radius=1.0)
            for _ in range(50):
                y = 1.5 * rng.standard_normal(d)
                res = project(ball, y)
                ref = brute_force_projection(ball, y)
                if p >= 1:
                    worst_dist = max(worst_dist, float(np.linalg.norm(res.point - ref)))
                else:
                    worst_excess = max(
                        worst_excess,
                        float(np.sum((res.point - y) ** 2) - np.sum((ref - y) ** 2)))
                if p > 1 and p != math.inf:
                    worst_kkt = max(worst_kkt, res.kkt_residual)
    elapsed = time.time() - start
    ok = worst_dist <= 1e-3 and worst_excess <= 1e-6 and worst_kkt <= 1e-8 \
        and elapsed < 120
    assert report(
        1, "projection correctness", ok,
        f"l2 distance {worst_dist:.2e} <= 1e-3, nonconvex objective excess "
        f"{worst_excess:.2e} <= 1e-6, kkt {worst_kkt:.2e} <= 1e-8, "
        f"runtime {elapsed:.0f}s < 120s")


# --- criterion 2: multiplier equals the dual-norm identity -------------------


def test_criterion_2_multiplier_identity():
    worst = 0.0
    for p in (1.2, 1.5, 1.8):
        q = p / (p - 1.0)
        for d in (10, 100):
            rng = keyed_generator(SEED, f"criterion2|p={p}|d={d}")
            ball = LpBall(p=p, dim=d, radius=1.0)
            done = 0
            while done < 200:
                y = 1.3 * rng.standard_normal(d)
                if lp_norm(y, p) <= 1.0:
                    continue
                done += 1
                res = project(ball, y)
                ident = lp_norm(y - res.point, q) / lp_norm(res.point, p) ** (p / q)
                worst = max(worst, abs(res.multiplier - ident) / ident)
    ok = worst <= 1e-5
    assert report(2, "multiplier identity", ok,
                  f"max relative error {worst:.2e} <= 1e-5 over 1200 draws")


# --- criteria 3-4: desk-scale figure reproduction -----------------------------


@pytest.fixture(scope="module")
def figure_runs():
    grid = default_d_grid(max_d=10_000)
    runs = {}
    for regime, rule in (("fig2a", "spike"), ("fig2b", "flat")):
        cfg = ExperimentConfig(regime=regime, p=1.5, d_grid=grid, sigma_rule=rule,
                               reps=320, estimators=("mle", "soft_threshold"),
                               seed=SEED)
        t0 = time.time()
        result = run_experiment(cfg)
        runs[regime] = (result, time.time() - t0)
    return runs


def _series(result, kind):
    return sorted((r.d, r.mse_mean) for r in result.rows if r.estimator == kind)


def test_criterion_3_spike_regime_reproduction(figure_runs):
    result, elapsed = figure_runs["fig2a"]
    mle = _series(result, "mle")
    st = _series(result, "soft_threshold")
    mle_last = mle[-1][1]
    ratio = mle[-1][1] / st[-1][1]
    slope_mle = fit_log_slope(mle)
    slope_st = fit_log_slope(st)
    ok_a = abs(mle_last - 0.5135) <= 0.06
    ok_b = ratio >= 5.0
    ok_c = -0.1 < slope_mle < 0.0 and slope_st < -0.4
    ok = ok_a and ok_b and ok_c and elapsed < 900
    assert report(
        3, "spike-regime risk curves", ok,
        f"terminal MLE MSE {mle_last:.4f} within 0.06 of 0.5135: {ok_a}; "
        f"MLE/ST ratio {ratio:.2f} >= 5: {ok_b}; slopes mle {slope_mle:.3f} in "
        f"(-0.1, 0) and st {slope_st:.3f} < -0.4: {ok_c}; runtime {elapsed:.0f}s")


def test_criterion_4_flat_regime_reproduction(figure_runs):
    result, elapsed = figure_runs["fig2b"]
    mle = _series(result, "mle")
    st = _series(result, "soft_threshold")
    ratio = mle[-1][1] / st[-1][1]
    slope_mle = fit_log_slope(mle)
    slope_st = fit_log_slope(st)
    ok = ratio >= 1.5 and (slope_mle - slope_st) >= 0.1
    assert report(
        4, "flat-regime risk curves", ok,
        f"MLE/ST ratio {ratio:.2f} >= 1.5; ST slope {slope_st:.3f} steeper than "
        f"MLE slope {slope_mle:.3f} by {slope_mle - slope_st:.3f} >= 0.1; "
        f"runtime {elapsed:.0f}s")


# --- criterion 5: constant-order loss on the spike ---------------------------


def test_criterion_5_spike_lower_bound():
    d = 10**4
    p = 1.1 + 1.0 / (1.0 + math.log(d))
    q = p / (p - 1.0)
    sigma = 10.0 / (math.sqrt(q) * d ** (1.0 / q))
    ball = LpBall(p=p, dim=d, radius=1.0)
    spec = EstimatorSpec(kind="mle", ball=ball)
    out = estimate_risk(spec, spike_instance(d), sigma, reps=150, seed=SEED,
                        cell_id="criterion5")
    floor = 1.0 / 16.0 - 3.0 * out.mse_stderr
    ok = out.mse_mean >= floor
    assert report(5, "spike lower bound", ok,
                  f"MSE {out.mse_mean:.4f} >= 1/16 - 3*stderr = {floor:.4f} "
                  f"(p={p:.4f}, sigma={sigma:.4f})")


# --- criterion 6: explicit-constant lower bound on the flat instance ---------


def test_criterion_6_flat_lower_bound():
    d = 10**4
    p = 1.5
    q = 3.0
    details = []
    ok = True
    for sigma in (d**-0.5, d**-0.6):
        inst = flat_sparse_instance(sigma, p, d)
        ball = LpBall(p=p, dim=d, radius=1.0)
        out = estimate_risk(EstimatorSpec(kind="mle", ball=ball), inst.theta_star,
                            sigma, reps=100, seed=SEED, cell_id=f"criterion6|{sigma}")
        gate = 3.0 / 409600.0 * min(1.0, sigma * d ** (1.0 / q))
        ok = ok and out.mse_mean >= gate
        details.append(f"sigma={sigma:.2e}: observed {out.mse_mean:.4f} >= "
                       f"gate {gate:.2e}")
    assert report(6, "flat-instance lower bound", ok, "; ".join(details))


# --- criterion 7: risk sandwich in the always-optimal regimes ----------------


def test_criterion_7_minimax_sandwich_plausibility():
    d = 1000
    cells = []
    for p, sigmas, reps in ((3.0, (0.01, 1.0), 100), (0.5, (1e-7, 1e-3, 1.0), 48)):
        ball = LpBall(p=p, dim=d, radius=1.0)
        for sigma in sigmas:
            m = control_function(RateQuery(p=p, d=d, sigma=sigma))
            lo, hi = C_LOWER * m / 10.0, 50.0 * C_UPPER * m
            for label, theta in (("spike", spike_instance(d)), ("zero", np.zeros(d))):
                out = estimate_risk(
                    EstimatorSpec(kind="mle", ball=ball), theta, sigma, reps=reps,
                    seed=SEED, cell_id=f"criterion7|{p}|{sigma}|{label}")
                cells.append((p, sigma, label, out.mse_mean, lo, hi,
                              lo <= out.mse_mean <= hi))
    ok = all(c[-1] for c in cells)
    worst = min(cells, key=lambda c: c[-1])
    assert report(
        7, "minimax sandwich plausibility", ok,
        f"{sum(c[-1] for c in cells)}/{len(cells)} cells inside "
        f"[m/8680, 300m]; example: p={worst[0]}, sigma={worst[1]:.0e}, "
        f"{worst[2]}: mse={worst[3]:.3e} in [{worst[4]:.3e}, {worst[5]:.3e}]")


# --- criterion 8: lemma suite -------------------------------------------------


def test_criterion_8_lemma_suite():
    start = time.time()
    pieces = []

    for D, r in ((44, 2.0), (1000, 3.0)):
        rep = check_small_ball(D, r, 10_000, key=SEED)
        pieces.append((f"small_ball(D={D})", rep.passed))
    for d in (100, 1000):
        rep = check_noise_term(d, 3.0, 0.5, 10_000, key=SEED)
        pieces.append((f"noise_term(d={d})", rep.passed))

    width_ok = True
    for d, s in ((10, 1), (10, 3), (100, 5), (1000, 10)):
        est, se = sparse_cap_width(d, s, 10_000, key=SEED)
        width_ok = width_ok and est <= sparse_cap_bound(d, s) + 4 * se
    pieces.append(("sparse_cap_vs_bound", width_ok))

    mono_ok = True
    rng = keyed_generator(SEED, "criterion8|monotone")
    for p in (1.0, 1.5, 2.0, math.inf):
        ball = LpBall(p=p, dim=10, radius=1.0)
        theta = spike_instance(10)
        xi = rng.standard_normal((2500, 10))  # the paths, in the order drawn one by one
        errs = np.array([[np.linalg.norm(res.point - theta)
                          for res in project_many(ball, theta + s * xi)]
                         for s in (0.3, 0.8, 2.0)])
        mono_ok = mono_ok and bool(np.all(errs[1:] >= errs[:-1] - 1e-7))
    pieces.append(("pathwise_monotonicity(1e4 paths)", mono_ok))

    witness_ok = True
    rng = keyed_generator(SEED, "criterion8|witness")
    for _ in range(10_000):
        xi = rng.standard_normal(32)
        eps = float(rng.uniform(0.3, 1.0))
        try:
            phi_lower_witness(xi, 0.5, eps)
        except Exception:
            witness_ok = False
    pieces.append(("phi_witness_feasibility(1e4 draws)", witness_ok))

    elapsed = time.time() - start
    ok = all(flag for _, flag in pieces) and elapsed < 300
    assert report(8, "lemma suite", ok,
                  "; ".join(f"{name}:{'ok' if flag else 'FAIL'}" for name, flag in pieces)
                  + f"; runtime {elapsed:.0f}s < 300s")


# --- criterion 9: multi-sample reduction --------------------------------------


def test_criterion_9_sample_reduction():
    from lpseq.estimators import reduce_samples

    worst = 0.0
    for n in (2, 4):
        # d = 50: compare against an independent projected-gradient descent
        # on the raw sum-of-squares objective (small steps, many iterations)
        d = 50
        ball = LpBall(p=1.5, dim=d, radius=1.0)
        theta = spike_instance(d)
        samples = [sample_observation(theta, 0.6, TrialKey(SEED, f"c9|{n}", t))
                   for t in range(n)]
        red = reduce_samples(samples)
        assert red.effective_noise(0.6) == pytest.approx(0.6 / math.sqrt(n))
        via_mean = project(ball, red.mean).point
        mu = np.zeros(d)
        step = 0.3 / n
        for _ in range(400):
            grad = sum(2.0 * (mu - s) for s in samples)
            mu = project(ball, mu - step * grad).point
        worst = max(worst, float(np.linalg.norm(via_mean - mu)))

        # d = 1: dense-grid minimization of the raw objective
        ball1 = LpBall(p=1.5, dim=1, radius=1.0)
        ones = [sample_observation(np.ones(1), 0.8, TrialKey(SEED, f"c9s|{n}", t))
                for t in range(n)]
        red1 = reduce_samples(ones)
        via1 = project(ball1, red1.mean).point[0]
        grid = np.linspace(-1.0, 1.0, 4_000_001)
        total = np.zeros_like(grid)
        for s in ones:
            total += (grid - s[0]) ** 2
        direct = grid[np.argmin(total)]
        worst = max(worst, abs(via1 - direct))
    ok = worst <= 1e-6
    assert report(9, "multi-sample reduction", ok,
                  f"max deviation {worst:.2e} <= 1e-6 for n in {{2, 4}}")
