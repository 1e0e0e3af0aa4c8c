import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpseq.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteInputError,
)
from lpseq.projection import (
    LpBall,
    ProjectionResult,
    dual_sum,
    find_lambda_star,
    kkt_residual,
    lp_norm,
    project,
    project_clip,
    project_top_s,
)

# closed forms recomputed independently (mpmath): 2 c**1.5 = 1 and the
# stationarity identity lam = (2 - c)/sqrt(c)
C_SYMMETRIC = 0.6299605249474366
LAM_SYMMETRIC = 1.7261415738056466


def vectors(d, scale=2.0):
    return st.lists(st.floats(-scale, scale), min_size=d, max_size=d).map(np.array)


def test_ball_validation():
    with pytest.raises(InvalidParameterError):
        LpBall(p=2.0, dim=0, radius=1.0)
    with pytest.raises(InvalidParameterError):
        LpBall(p=2.0, dim=3)  # missing radius
    with pytest.raises(InvalidParameterError):
        LpBall(p=0.0, dim=3, radius=1.0)  # p=0 takes sparsity
    with pytest.raises(InvalidParameterError):
        LpBall(p=0.0, dim=3, sparsity=4)
    with pytest.raises(InvalidParameterError):
        LpBall(p=2.0, dim=3, radius=1.0, sparsity=1)
    with pytest.raises(InvalidParameterError):
        LpBall(p=-1.0, dim=3, radius=1.0)


def test_conjugate_pairs():
    assert LpBall(p=2.0, dim=1, radius=1.0).conjugate == 2.0
    assert LpBall(p=1.5, dim=1, radius=1.0).conjugate == 3.0
    assert LpBall(p=1.0, dim=1, radius=1.0).conjugate == math.inf
    assert LpBall(p=math.inf, dim=1, radius=1.0).conjugate == 1.0
    with pytest.raises(InvalidParameterError):
        LpBall(p=0.5, dim=1, radius=1.0).conjugate


def test_project_radial_p2():
    res = project(LpBall(p=2.0, dim=2, radius=1.0), np.array([3.0, 4.0]))
    np.testing.assert_allclose(res.point, [0.6, 0.8], atol=1e-10)
    assert res.multiplier == pytest.approx(4.0, abs=1e-8)
    assert res.kkt_residual <= 1e-9


def test_project_symmetric_p15():
    res = project(LpBall(p=1.5, dim=2, radius=1.0), np.array([2.0, 2.0]))
    np.testing.assert_allclose(res.point, [C_SYMMETRIC, C_SYMMETRIC], atol=1e-10)
    assert res.multiplier == pytest.approx(LAM_SYMMETRIC, rel=1e-10)


def test_project_l1_water_filling():
    res = project(LpBall(p=1.0, dim=2, radius=1.0), np.array([2.0, 1.0]))
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-12)
    assert res.multiplier == pytest.approx(1.0, abs=1e-12)


def test_project_feasible_identity():
    raw = np.array([0.3, -0.2, 0.1])
    for p in (0.5, 1.0, 1.7, 2.0, math.inf):
        ball = LpBall(p=p, dim=3, radius=1.0)
        y = 0.9 * raw / lp_norm(raw, p)  # strictly inside the ball
        res = project(ball, y)
        np.testing.assert_array_equal(res.point, y)
        assert res.multiplier == 0.0


def test_project_input_validation():
    ball = LpBall(p=2.0, dim=2, radius=1.0)
    with pytest.raises(DimensionMismatchError):
        project(ball, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(NonFiniteInputError):
        project(ball, np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteInputError):
        project(ball, np.array([1.0, np.inf]))


def test_top_s_examples():
    np.testing.assert_array_equal(project_top_s(2, np.array([3.0, -1.0, 2.0])),
                                  [3.0, 0.0, 2.0])
    y = np.array([0.5, -2.0, 1.0])
    np.testing.assert_array_equal(project_top_s(3, y), y)
    # tie broken toward the lowest index
    np.testing.assert_array_equal(project_top_s(1, np.array([1.0, 1.0])), [1.0, 0.0])
    with pytest.raises(InvalidParameterError):
        project_top_s(0, y)
    with pytest.raises(InvalidParameterError):
        project_top_s(4, y)


def test_clip_examples():
    np.testing.assert_array_equal(project_clip(1.0, np.array([2.0, -0.5])), [1.0, -0.5])
    inside = np.array([0.2, -0.9])
    np.testing.assert_array_equal(project_clip(1.0, inside), inside)
    np.testing.assert_array_equal(project_clip(0.5, np.array([-3.0, 3.0])), [-0.5, 0.5])
    with pytest.raises(InvalidParameterError):
        project_clip(0.0, inside)


def test_dual_sum_examples():
    y = np.array([2.0, 0.0])
    assert dual_sum(0.0, y, 2.0, 1.0) == pytest.approx(lp_norm(y, 2.0) ** 2)
    assert dual_sum(1.0, y, 2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert dual_sum(1e8, y, 2.0, 1.0) < 1e-3
    with pytest.raises(InvalidParameterError):
        dual_sum(1.0, y, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        dual_sum(-1.0, y, 2.0, 1.0)


def test_dual_sum_strictly_decreasing():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(20) * 2
    lams = np.linspace(0.0, 12.0, 60)
    vals = [dual_sum(lam, y, 1.6, 1.0) for lam in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_lambda_star_via_project():
    # doubling+bisection lands on the closed-form multiplier
    res = project(LpBall(p=2.0, dim=2, radius=1.0), np.array([2.0, 0.0]))
    assert res.multiplier == pytest.approx(1.0, abs=1e-9)
    res = project(LpBall(p=1.5, dim=2, radius=1.0), np.array([2.0, 2.0]))
    assert res.multiplier == pytest.approx((2 - 2 ** (-2 / 3)) / 2 ** (-1 / 3), rel=1e-9)
    assert abs(dual_sum(res.multiplier, np.array([2.0, 2.0]), 1.5, 1.0) - 1) <= 1e-9


def test_find_lambda_star_direct():
    assert find_lambda_star(np.array([2.0, 0.0]), 2.0) == pytest.approx(1.0, abs=1e-9)
    lam = find_lambda_star(np.array([2.0, 2.0]), 1.5)
    assert lam == pytest.approx(LAM_SYMMETRIC, rel=1e-9)
    assert abs(dual_sum(lam, np.array([2.0, 2.0]), 1.5) - 1.0) <= 1e-9
    with pytest.raises(InvalidParameterError):
        find_lambda_star(np.array([0.1, 0.1]), 2.0)  # already feasible
    with pytest.raises(InvalidParameterError):
        find_lambda_star(np.array([2.0, 2.0]), 1.0)  # p must exceed 1


def test_kkt_residual_consistency_and_sensitivity():
    ball = LpBall(p=1.5, dim=2, radius=1.0)
    y = np.array([2.0, 2.0])
    res = project(ball, y)
    assert kkt_residual(y, res, 1.5, 1.0) <= 1e-9
    bumped = ProjectionResult(res.point + np.array([1e-3, 0.0]), res.multiplier,
                              0.0, res.iterations)
    assert kkt_residual(y, bumped, 1.5, 1.0) >= 1e-4
    # at p = 2 a zero output for a nonzero input is charged in full
    y = np.array([2.0, 0.5])
    res = project(LpBall(p=2.0, dim=2, radius=1.0), y)
    zeroed = ProjectionResult(np.array([res.point[0], 0.0]), res.multiplier, 0.0, 0)
    assert kkt_residual(y, zeroed, 2.0, 1.0) >= 0.5 * (1 - 1e-12)
    with pytest.raises(InvalidParameterError):
        kkt_residual(y, res, 1.0, 1.0)


def test_kkt_residual_solver_contract():
    rng = np.random.default_rng(42)
    for p in (1.0, 1.2, 1.5, 1.8, 2.5):
        ball = LpBall(p=p, dim=30, radius=1.0)
        for _ in range(10):
            y = 1.5 * rng.standard_normal(30)
            res = project(ball, y)
            assert res.kkt_residual <= 10 * 1e-10


@pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, math.inf])
def test_idempotence(p):
    rng = np.random.default_rng(9)
    ball = LpBall(p=p, dim=8, radius=1.0)
    for _ in range(5):
        y = 2.0 * rng.standard_normal(8)
        once = project(ball, y).point
        twice = project(ball, once).point
        assert np.linalg.norm(twice - once) <= 1e-8


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_nonexpansive_convex(data):
    p = data.draw(st.sampled_from([1.0, 1.3, 2.0, 4.0, math.inf]))
    d = data.draw(st.integers(1, 6))
    y1 = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d)))
    y2 = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d)))
    ball = LpBall(p=p, dim=d, radius=1.0)
    p1 = project(ball, y1).point
    p2 = project(ball, y2).point
    assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-7


def test_multiplier_norm_identity():
    rng = np.random.default_rng(17)
    for p in (1.2, 1.5, 2.0):
        q = p / (p - 1.0)
        ball = LpBall(p=p, dim=12, radius=1.0)
        for _ in range(20):
            y = 1.3 * rng.standard_normal(12)
            if lp_norm(y, p) <= 1.0:
                continue
            res = project(ball, y)
            ident = lp_norm(y - res.point, q) / lp_norm(res.point, p) ** (p / q)
            assert res.multiplier == pytest.approx(ident, rel=1e-6)


def test_feasibility_invariant():
    rng = np.random.default_rng(23)
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        ball = LpBall(p=p, dim=15, radius=1.0)
        for _ in range(8):
            y = 3.0 * rng.standard_normal(15)
            res = project(ball, y)
            assert lp_norm(res.point, p) <= 1.0 + 1e-9
            # signs preserved
            nz = res.point != 0
            assert np.all(np.sign(res.point[nz]) == np.sign(y[nz]))
            # complementary slackness, one-sided
            assert res.multiplier * (lp_norm(res.point, p) ** p - 1.0) <= 1e-8


def test_scaling_equivariance():
    rng = np.random.default_rng(31)
    y = 2.0 * rng.standard_normal(6)
    for p in (0.5, 1.0, 1.5, 2.0, math.inf):
        for r in (0.5, 2.0, 7.3):
            big = project(LpBall(p=p, dim=6, radius=r), y).point
            unit = project(LpBall(p=p, dim=6, radius=1.0), y / r).point
            np.testing.assert_allclose(big, r * unit, atol=1e-9)


def test_p1_matches_generic_near_one():
    rng = np.random.default_rng(37)
    for _ in range(10):
        y = 2.0 * rng.standard_normal(10)
        exact = project(LpBall(p=1.0, dim=10, radius=1.0), y).point
        near = project(LpBall(p=1.0 + 1e-6, dim=10, radius=1.0), y).point
        assert np.linalg.norm(exact - near) <= 1e-3


@pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 2.5])
@pytest.mark.parametrize("c", [1e-160, 1e-150, 1e-100, 1.0, 1e100, 1e150, 1e200])
def test_lp_norm_scale_safe(p, c):
    rng = np.random.default_rng(53)
    for x in (np.array([3.0, 4.0]), rng.standard_normal(7)):
        assert lp_norm(c * x, p) == pytest.approx(c * lp_norm(x, p), rel=1e-12, abs=0)
    assert LpBall(p=p, dim=2, radius=5.0 * c).contains(c * np.array([3.0, 4.0])) == (p >= 2)


def test_quasinorm_gap_reported():
    res = project(LpBall(p=0.5, dim=4, radius=1.0), np.array([2.0, 1.0, 0.5, 0.1]))
    assert res.duality_gap is not None
    assert res.duality_gap >= 0.0
    # convex path reports no gap
    res = project(LpBall(p=1.5, dim=2, radius=1.0), np.array([2.0, 2.0]))
    assert res.duality_gap is None


def _objective(x, y):
    return 0.5 * float(np.sum((x - y) ** 2))


def _two_sided_slack(res, p, r):
    x = np.abs(res.point[res.point != 0])
    return res.multiplier * abs(float(np.sum(x**p)) - r**p)


def test_quasinorm_global_beyond_four_dims():
    # the optimum keeps two coordinates; a point strictly inside the ball
    # with a positive multiplier (objective 0.1020) is not even stationary
    y = np.array([0.51, 0.35, 0.24, 0.1, 0.08])
    res = project(LpBall(p=0.5, dim=5, radius=1.0), y)
    np.testing.assert_allclose(res.point, [0.38396, 0.14467, 0, 0, 0], atol=1e-5)
    assert _objective(res.point, y) <= 0.0660233
    assert _two_sided_slack(res, 0.5, 1.0) <= 1e-9
    assert res.kkt_residual <= 1e-9


def test_quasinorm_lower_branch_winner():
    # the kept coordinate at index 0 sits on the lower root of
    # x + lam*x**(p-1) = |y_0|; the bound is the exhaustive enumeration's
    # optimum over every (prefix, branch pattern) system
    p = 0.25
    y = np.array([0.53695324, 0.5811181, 0.3645724, 0.2941325])
    res = project(LpBall(p=p, dim=4, radius=1.0), y)
    assert _objective(res.point, y) <= 0.25373229771043143 + 1e-12
    assert res.multiplier == pytest.approx(0.0011130589, rel=1e-8)
    assert 0 < res.point[0] < ((1 - p) * res.multiplier) ** (1 / (2 - p))
    assert res.kkt_residual <= 1e-9


def test_quasinorm_overflow_safe():
    res = project(LpBall(p=0.5, dim=2, radius=1.0), np.array([1e200, 1.0]))
    np.testing.assert_array_equal(res.point, [1.0, 0.0])
    assert math.isfinite(res.duality_gap) and res.duality_gap >= 0.0


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_quasinorm_beats_cheap_feasible_points(data):
    d = data.draw(st.integers(1, 8))
    p = data.draw(st.floats(0.05, 0.99))
    r = data.draw(st.floats(0.5, 2.0))
    entry = st.sampled_from([0.0, 0.4, -0.4, 1.0, -1.0, 1.7]) | st.floats(-3, 3)
    y = np.array(data.draw(st.lists(entry, min_size=d, max_size=d)))
    res = project(LpBall(p=p, dim=d, radius=r), y)
    assert lp_norm(res.point, p) <= r * (1 + 1e-9)
    if lp_norm(y, p) > r:
        assert math.isfinite(res.duality_gap) and res.duality_gap >= 0.0
    assert _two_sided_slack(res, p, r) <= 1e-9
    # the largest feasible prefix of |y| kept as is, and r * sign(y_k) * e_k
    order = np.argsort(-np.abs(y), kind="stable")
    kept = int(np.searchsorted(np.cumsum(np.abs(y[order]) ** p), r**p, side="right"))
    prefix = np.zeros(d)
    prefix[order[:kept]] = y[order[:kept]]
    spike = np.zeros(d)
    spike[order[0]] = r * np.sign(y[order[0]])
    cheap = min(_objective(prefix, y), _objective(spike, y))
    assert _objective(res.point, y) <= cheap * (1 + 1e-12) + 1e-300


def test_zero_vector_input():
    for p in (0.5, 1.0, 2.0, math.inf):
        ball = LpBall(p=p, dim=3, radius=1.0)
        res = project(ball, np.zeros(3))
        np.testing.assert_array_equal(res.point, np.zeros(3))
        assert res.multiplier == 0.0


def test_project_p0_dispatch():
    ball = LpBall(p=0.0, dim=3, sparsity=2)
    res = project(ball, np.array([3.0, -1.0, 2.0]))
    np.testing.assert_array_equal(res.point, [3.0, 0.0, 2.0])
    assert res.multiplier == 0.0
