import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from lpseq.errors import InvalidParameterError
from lpseq.oracles import (
    SUITES,
    _noise_term_rows,
    brute_force_projection,
    check_mle_variance,
    check_noise_term,
    check_small_ball,
    phi_lower_witness,
    run_suite,
    sparse_cap_bound,
    sparse_cap_width,
)
from lpseq.projection import LpBall, project

# E[max(xi_1**2, xi_2**2)] = 1 + 2/pi, confirmed by direct quadrature below
MAX_OF_TWO_CHI2 = 1.6366197723675813


def test_brute_force_closed_forms():
    got = brute_force_projection(LpBall(p=2.0, dim=2, radius=1.0), np.array([3.0, 4.0]))
    np.testing.assert_allclose(got, [0.6, 0.8], atol=1e-6)
    got = brute_force_projection(LpBall(p=1.0, dim=2, radius=1.0), np.array([2.0, 1.0]))
    np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-6)


def test_brute_force_is_the_nonconvex_reference():
    rng = np.random.default_rng(0)
    ball = LpBall(p=0.5, dim=2, radius=1.0)
    for _ in range(10):
        y = 1.5 * rng.standard_normal(2)
        ref = brute_force_projection(ball, y)
        got = project(ball, y).point
        assert np.sum((ref - y) ** 2) <= np.sum((got - y) ** 2) + 1e-6


def test_brute_force_p0_and_dim_guard():
    got = brute_force_projection(LpBall(p=0.0, dim=3, sparsity=2),
                                 np.array([3.0, -1.0, 2.0]))
    np.testing.assert_array_equal(got, [3.0, 0.0, 2.0])
    with pytest.raises(InvalidParameterError):
        brute_force_projection(LpBall(p=2.0, dim=4, radius=1.0), np.zeros(4))
    with pytest.raises(InvalidParameterError, match="length"):
        brute_force_projection(LpBall(p=2.0, dim=3, radius=1.0), np.zeros(2))


def test_sparse_cap_full_dimension_is_chi_square():
    est, se = sparse_cap_width(25, 25, 10_000, key=1)
    assert abs(est - 25.0) <= 4 * se


def test_sparse_cap_never_beats_bound():
    for d, s in ((10, 1), (10, 3), (100, 5), (1000, 10)):
        est, se = sparse_cap_width(d, s, 10_000, key=2)
        assert est <= sparse_cap_bound(d, s) + 4 * se


def test_sparse_cap_top1_of_two_quadrature_value():
    # oracle: E max(a, b) for iid chi-square(1) via 1-D quadrature
    f = stats.chi2(1).pdf
    F = stats.chi2(1).cdf
    val, err = integrate.quad(lambda x: 2 * x * f(x) * F(x), 0, np.inf)
    assert val == pytest.approx(MAX_OF_TWO_CHI2, abs=1e-9)
    est, se = sparse_cap_width(2, 1, 40_000, key=3)
    assert abs(est - MAX_OF_TWO_CHI2) <= 4 * se


def test_phi_witness_single_coordinate():
    xi = np.zeros(16)
    xi[0] = 1.0
    for eps in (0.4, 0.7, 1.0):
        assert phi_lower_witness(xi, 0.5, eps) == pytest.approx(eps)
        assert phi_lower_witness(np.zeros(16), 0.5, eps) == 0.0  # a zero cap


def test_phi_witness_feasibility_many_draws():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        xi = rng.standard_normal(64)
        eps = float(rng.uniform(0.25, 1.0))
        p = float(rng.uniform(0.2, 0.9))
        value = phi_lower_witness(xi, p, eps)  # raises if infeasible
        assert value >= 0.0


def test_phi_witness_eps_range_guard():
    xi = np.ones(4)
    with pytest.raises(InvalidParameterError):
        phi_lower_witness(xi, 0.5, 1.5)
    with pytest.raises(InvalidParameterError):
        phi_lower_witness(xi, 0.5, 1e-6)
    for p in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(InvalidParameterError, match="p in"):
            phi_lower_witness(xi, p, 0.5)


def test_phi_witness_below_two_dim_supremum():
    # at d = 2 the exact supremum over the localized set, by dense grid,
    # dominates the witness value
    rng = np.random.default_rng(6)
    p, eps = 0.5, 0.8
    s = int(math.ceil(eps ** (-2 * p / (2 - p))))
    # the grid and its feasible points do not depend on the draw
    grid = np.linspace(-2 ** (1 / p), 2 ** (1 / p), 1601)
    step = grid[1] - grid[0]
    xx, yy = np.meshgrid(grid, grid)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    ok = (np.abs(pts) ** p).sum(axis=1) <= 2.0
    if s < 2:
        ok &= (pts != 0).sum(axis=1) <= s
    ok &= (pts**2).sum(axis=1) <= eps**2
    feasible = pts[ok]
    for _ in range(20):
        xi = rng.standard_normal(2)
        witness = phi_lower_witness(xi, p, eps)
        sup = np.max(feasible @ xi)
        # the grid undershoots the true supremum by at most ~|xi| * step
        assert sup >= witness - 2.0 * float(np.linalg.norm(xi)) * step


def test_small_ball_checks_pass():
    assert check_small_ball(44, 2.0, 10_000, key=7).passed
    assert check_small_ball(1000, 3.0, 10_000, key=8).passed


def test_small_ball_precondition():
    with pytest.raises(InvalidParameterError):
        check_small_ball(43, 2.0, 100, key=0)
    with pytest.raises(InvalidParameterError):
        check_small_ball(100, 1.5, 100, key=0)
    with pytest.raises(InvalidParameterError):
        check_small_ball(100, 2 * math.log(100) + 0.1, 100, key=0)
    for D in (100.0, 100.5, True):
        with pytest.raises(InvalidParameterError, match="integer"):
            check_small_ball(D, 2.0, 100, key=0)


def _noise_term_by_enumeration(xi, q):
    """The trimmed noise statistic as its definition reads: over coordinates
    ``m/2+1 .. m`` (m the largest multiple of 4 at most d), 4/m times the
    least sum of ``|xi_i|**q`` over subsets of m/4 of them."""
    m = xi.size - xi.size % 4
    block = np.abs(xi[m // 2: m]) ** q
    return 4.0 / m * min(float(block[list(comb)].sum())
                         for comb in itertools.combinations(range(block.size), m // 4))


def test_noise_term_two_ways_agree():
    # the sum of the smallest quarter, by partition, is the least subset sum
    rng = np.random.default_rng(9)
    for d in (8, 12, 16):
        for _ in range(20):
            xi = rng.standard_normal(d)
            m = d - d % 4
            a = float(_noise_term_rows(xi[None, m // 2: m], 3.0)[0])
            assert a == pytest.approx(_noise_term_by_enumeration(xi, 3.0), abs=1e-15)


def test_noise_term_checks_pass():
    rep = check_noise_term(100, 3.0, 0.5, 10_000, key=10)
    assert rep.passed
    assert rep.statistic >= rep.threshold
    assert check_noise_term(1000, 3.0, 0.5, 10_000, key=11).passed


def test_noise_term_t_near_one_trivial():
    rep = check_noise_term(100, 3.0, 0.999, 2_000, key=12)
    assert rep.passed  # threshold probability is essentially zero


def test_noise_term_validation():
    with pytest.raises(InvalidParameterError):
        check_noise_term(3, 3.0, 0.5, 10, key=0)
    with pytest.raises(InvalidParameterError):
        check_noise_term(100, 1.0, 0.5, 10, key=0)
    with pytest.raises(InvalidParameterError):
        check_noise_term(100, 3.0, 1.5, 10, key=0)
    for d in (10.5, 100.0):  # a float d used to fail inside the draw, with a TypeError
        with pytest.raises(InvalidParameterError, match="integer"):
            check_noise_term(d, 3.0, 0.5, 10, key=0)


def test_sparse_cap_validation():
    # sparse_cap_bound(10, 0) divided by zero
    for d, s in ((10, 0), (10, 11), (10, 2.5), (10.0, 2), (10, True)):
        with pytest.raises(InvalidParameterError):
            sparse_cap_width(d, s, 10, key=0)
        with pytest.raises(InvalidParameterError):
            sparse_cap_bound(d, s)


def test_monte_carlo_checks_need_a_draw():
    for check, args in ((sparse_cap_width, (10, 2)), (check_small_ball, (44, 2.0)),
                        (check_noise_term, (100, 3.0, 0.5))):
        with pytest.raises(InvalidParameterError, match="reps"):
            check(*args, 0, key=0)


def test_mle_variance_origin():
    rep = check_mle_variance(LpBall(p=2.0, dim=30, radius=1.0), np.zeros(30),
                             0.3, 200, key=13)
    assert rep.passed
    assert rep.statistic < 10.0  # unbiased at the origin: far below the slack


def test_mle_variance_bounded_while_risk_grows():
    # spike instance in the constant-risk band: variance stays rate-bounded
    # even though the total error is dominated by bias
    d = 45
    p = 1.0 + 1.0 / (1.0 + math.log(d)) + 0.15
    q = p / (p - 1.0)
    sigma = 10.0 / (math.sqrt(q) * d ** (1.0 / q))
    theta = np.zeros(d)
    theta[0] = 1.0
    ball = LpBall(p=p, dim=d, radius=1.0)
    rep = check_mle_variance(ball, theta, sigma, 300, key=14)
    assert rep.passed


def test_mle_variance_guards():
    ball = LpBall(p=2.0, dim=5, radius=1.0)
    rep = check_mle_variance(ball, np.zeros(5), 0.5, 2, key=15)
    assert rep.inconclusive
    with pytest.raises(InvalidParameterError):
        check_mle_variance(LpBall(p=0.5, dim=5, radius=1.0), np.zeros(5), 0.5, 10, key=0)


def test_report_line_format():
    rep = check_small_ball(44, 2.0, 500, key=16)
    line = rep.line()
    assert ("PASS" in line) or ("FAIL" in line)
    assert "small_ball" in line


def test_suites_run_and_pass():
    for name in SUITES:  # every suite `lpseq verify` can run
        reports = run_suite(name, seed=3)
        assert reports and all(r.passed for r in reports)
    with pytest.raises(InvalidParameterError):
        run_suite("bogus", seed=0)
