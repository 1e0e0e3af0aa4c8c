import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpseq.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteInputError,
)
from lpseq.instances import flat_sparse_instance
from lpseq.projection import (
    LpBall,
    lp_norm,
    project,
    project_clip,
    project_many,
    project_top_s,
    _find_lambda_star,
    _kkt_pieces,
)
from lpseq.rng import keyed_generator
from lpseq.shrinkage import psi_many
from prox_reference import (
    power_objective,
    project_reference,
    prox_jump_lambda,
    prox_power_many,
    weak_dual_max,
)

# closed forms recomputed independently (mpmath): 2 c**1.5 = 1 and the
# stationarity identity lam = (2 - c)/sqrt(c)
C_SYMMETRIC = 0.6299605249474366
LAM_SYMMETRIC = 1.7261415738056466

# indices with no closed form, from next to 1 to next to inf
GENERIC_P = [1 + 1e-6, 1.02, 1.05, 1.1, 1.3, 1.7, 2.5, 4.0, 10.0, 1e4]


def _search(p, T):
    """The p > 1 multiplier search on ``T`` with the row maxima project_many hands it."""
    tops = np.max(T, axis=1)
    return _find_lambda_star(p, T, tops.tolist(), T / tops[:, None])


def _kkt(T, M, lam, p):
    return _kkt_pieces(T, M, lam, p, np.max(T, axis=1).tolist())


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
    # dim and sparsity are integers (numpy's too), not floats, bools or strings
    for bad in (2.5, True, "3"):
        with pytest.raises(InvalidParameterError):
            LpBall(p=1.5, dim=bad, radius=1.0)
        with pytest.raises(InvalidParameterError):
            LpBall(p=0.0, dim=3, sparsity=bad)
    assert LpBall(p=0.0, dim=np.int64(3), sparsity=np.int64(1)).sparsity == 1


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
    # s is an integer count in [1, d]: 2.5 raised numpy's TypeError, True kept one entry
    for s in (0, 4, 2.5, True):
        with pytest.raises(InvalidParameterError):
            project_top_s(s, y)


def test_clip_examples():
    np.testing.assert_array_equal(project_clip(1.0, np.array([2.0, -0.5])), [1.0, -0.5])
    inside = np.array([0.2, -0.9])
    np.testing.assert_array_equal(project_clip(1.0, inside), inside)
    np.testing.assert_array_equal(project_clip(0.5, np.array([-3.0, 3.0])), [-0.5, 0.5])
    with pytest.raises(InvalidParameterError):
        project_clip(0.0, inside)


def test_dual_sum_examples():
    # the dual sum sum(psi**p) at multipliers 0, 1 and 1e8, one per row
    y = np.array([2.0, 0.0])
    sums = np.sum(psi_many(2.0, np.array([[0.0], [1.0], [1e8]]), y) ** 2.0, axis=1)
    assert sums[0] == pytest.approx(lp_norm(y, 2.0) ** 2)
    assert sums[1] == pytest.approx(1.0, abs=1e-12)
    assert sums[2] < 1e-3


def test_dual_sum_strictly_decreasing():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(20) * 2
    lams = np.linspace(0.0, 12.0, 60)
    vals = np.sum(psi_many(1.6, lams[:, None], np.abs(y)) ** 1.6, axis=1)
    assert np.all(np.diff(vals) < 0)


def test_lambda_star_via_project():
    # the search from the dual-norm bracket lands on the closed-form multiplier
    res = project(LpBall(p=2.0, dim=2, radius=1.0), np.array([2.0, 0.0]))
    assert res.multiplier == pytest.approx(1.0, abs=1e-9)
    res = project(LpBall(p=1.5, dim=2, radius=1.0), np.array([2.0, 2.0]))
    assert res.multiplier == pytest.approx((2 - 2 ** (-2 / 3)) / 2 ** (-1 / 3), rel=1e-9)
    assert abs(np.sum(psi_many(1.5, res.multiplier, [2.0, 2.0]) ** 1.5) - 1) <= 1e-9


def test_find_lambda_star_direct():
    # the p > 1 multiplier search on one-row blocks, as project runs it
    lam = _search(2.0, np.array([[2.0, 0.0]]))[0][0]
    assert lam == pytest.approx(1.0, abs=1e-9)
    lam = _search(1.5, np.array([[2.0, 2.0]]))[0][0]
    assert lam == pytest.approx(LAM_SYMMETRIC, rel=1e-9)
    assert abs(np.sum(psi_many(1.5, lam, [2.0, 2.0]) ** 1.5) - 1.0) <= 1e-9
    # an input inside the ball never reaches the search: its multiplier is 0
    assert project(LpBall(p=2.0, dim=2, radius=1.0), np.array([0.1, 0.1])).multiplier == 0.0


def test_p2_search_lands_in_one_step():
    # at p = 2 the search's target S**(-1/2) - 1 = (1 + lam)/||t||_2 - 1 is
    # linear, so its first Newton step lands on lam = ||t||_2 - 1 and the
    # second evaluation confirms it
    rng = np.random.default_rng(61)
    for d in (1, 2, 10, 1000):
        for scale in (1e-3, 1.0, 1e3):
            y = scale * rng.standard_normal(d)
            r = float(np.linalg.norm(y)) * rng.uniform(0.05, 0.6)  # ||t||_2 >= 1.6
            Y = np.stack([y, -2.0 * y, y[::-1]])
            for row, res in zip(Y, project_many(LpBall(p=2.0, dim=d, radius=r), Y)):
                t = np.abs(row) / r
                lam = float(np.linalg.norm(t)) - 1.0
                assert res.iterations == 2
                assert res.multiplier == pytest.approx(lam, rel=1e-14, abs=0)
                np.testing.assert_allclose(np.abs(res.point) / r, t / (1.0 + lam),
                                           rtol=1e-14, atol=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_find_lambda_star_rejects_non_finite_input(value):
    # project checks the input before the p > 1 multiplier search sees it
    with pytest.raises(NonFiniteInputError):
        project(LpBall(p=1.5, dim=2, radius=1.0), np.array([2.0, value]))


def test_kkt_residual_consistency_and_sensitivity():
    ball = LpBall(p=1.5, dim=2, radius=1.0)
    y = np.array([2.0, 2.0])
    res = project(ball, y)
    # at r = 1 the unit-ball terms are the magnitudes and the multiplier itself
    T, lam = np.abs(y)[None], [res.multiplier]
    assert _kkt(T, np.abs(res.point)[None], lam, 1.5) == [res.kkt_residual]
    assert res.kkt_residual <= 1e-9
    bumped = np.abs(res.point + np.array([1e-3, 0.0]))[None]
    assert _kkt(T, bumped, lam, 1.5)[0] >= 1e-4
    # at p = 2 a zero output for a nonzero input is charged in full
    y = np.array([2.0, 0.5])
    res = project(LpBall(p=2.0, dim=2, radius=1.0), y)
    zeroed = np.array([[abs(res.point[0]), 0.0]])
    assert _kkt(np.abs(y)[None], zeroed, [res.multiplier], 2.0)[0] >= 0.5 * (1 - 1e-12)
    # r**(2-p) overflows: the multiplier is inf, the unit-ball residual still holds
    res = project(LpBall(p=1e4, dim=1, radius=0.5), np.array([5.0]))
    assert res.multiplier == math.inf and res.kkt_residual <= 1e-9
    # r**(2-p) underflows: a zero multiplier for an input outside the ball
    res = project(LpBall(p=1e4, dim=1, radius=3.0), np.array([5.0]))
    assert res.multiplier == 0.0 and res.kkt_residual <= 1e-9


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


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_scaling_equivariance_extreme(data):
    p = data.draw(st.sampled_from([0.5, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0]))
    d = data.draw(st.integers(1, 8))
    y = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d)))
    r = data.draw(st.floats(0.3, 3.0))
    c = 10.0 ** data.draw(st.floats(-150, 150))
    # a subnormal c*y or c*r carries fewer digits than the rel 1e-12 below
    tiny = np.finfo(float).tiny
    assume(c * r >= tiny and np.all((y == 0) | (np.abs(c * y) >= tiny)))
    unit = project(LpBall(p=p, dim=d, radius=r), y)
    big = project(LpBall(p=p, dim=d, radius=c * r), c * y)
    np.testing.assert_allclose(big.point / c, unit.point, rtol=1e-12,
                               atol=1e-12 * float(np.max(np.abs(unit.point))))
    assert unit.kkt_residual <= 1e-9 and big.kkt_residual <= 1e-9
    if p < 1:
        assert big.duality_gap / c**2 == pytest.approx(unit.duality_gap, rel=1e-9, abs=1e-15)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_extreme_norm_indices(data):
    p = data.draw(st.sampled_from([1 + 1e-9, 1 + 1e-3, 50.0, 1e4]))
    d = data.draw(st.integers(1, 8))
    y = 10.0 ** data.draw(st.floats(-3, 3)) * data.draw(vectors(d, 1.0))
    r = data.draw(st.floats(0.3, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = project(LpBall(p=p, dim=d, radius=r), y)
    assert res.kkt_residual <= 1e-9
    assert res.iterations <= 25


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
    assert (lp_norm(c * np.array([3.0, 4.0]), p) <= 5.0 * c * (1.0 + 1e-9)) == (p >= 2)
    # an infinite entry has an infinite norm, as at p = inf
    assert lp_norm(np.array([-math.inf, c]), p) == math.inf
    # the empty vector has norm 0, and a NaN entry a NaN norm, as at p = inf
    assert lp_norm(np.array([]), p) == 0.0
    assert math.isnan(lp_norm(np.array([c, math.nan]), p))


def test_lp_norm_zero_counts_and_index_domain():
    assert lp_norm(np.array([0.0, -2.0, 1e-300, 0.0]), 0) == 2.0
    # a negative or NaN index gave 0.667 and nan
    for p in (-1.0, math.nan):
        with pytest.raises(InvalidParameterError):
            lp_norm([1.0, 2.0], p)


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


def test_quasinorm_inside_slack_below_p_tenth():
    # (1 + SUM_FEAS_TOL)**(1/p) passes 1 + 1e-9 below p = 0.1, so the inside
    # test also holds the norm's slack to 1e-9: this input, with norm
    # 1 + 1.1e-9 at p = 0.05, is projected, not returned as is
    y = np.array([1.0] + [1.2781701318622836e-217] * 4)
    res = project(LpBall(p=0.05, dim=5, radius=1.0), y)
    assert lp_norm(y, 0.05) > 1 + 1e-9 >= lp_norm(res.point, 0.05)
    np.testing.assert_array_equal(res.point, [1.0, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("y, r, expected", [
    ([1e150, -3e149, 2.0], 0.7, [0.7, 0.0, 0.0]),
    ([1e150, 1e150, 1.0], 1.0, [0.5, 0.5, 0.0]),
    ([-1e300, 1e-300], 2.0, [-2.0, 0.0]),
])
def test_l1_water_filling_scale_safe(y, r, expected):
    # the threshold is taken in gaps below max|y|, so a 1 below the
    # magnitudes' rounding does not cancel away (a raw ValueError before)
    res = project(LpBall(p=1.0, dim=len(y), radius=r), np.array(y))
    np.testing.assert_allclose(res.point, expected, rtol=1e-12, atol=0)
    assert res.kkt_residual <= 1e-12


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
def test_overflowing_rescale_rejected(p):
    # |y|/r leaves double range: a parameter error, before any warning; for
    # p < 1 so does (max|y|/r)**(2-p), the unit its multiplier is reported in
    cases = [(1e-300, [1e10, 1.0])]
    if p < 1:
        cases.append((1.0, [1e300, 1e300, -2e299]))
    for r, y in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="overflows"):
                project(LpBall(p=p, dim=len(y), radius=r), np.array(y))


def _independent_dual(p, y, r, points=200, jumps=None):
    """Largest Lagrangian dual value of the projection on a multiplier grid.

    The grid is 0, ``points`` geometric multipliers below twice the largest
    prox jump, and the jump multipliers themselves (the ``jumps`` largest),
    then two rounds of 33 points between the best point's neighbours.  Each
    value is ``sum_i min_x ((x - |y_i|)**2/2 + (lam/p)*x**p) - lam*r**p/p``,
    from the public prox.  Off the jumps the grid's best value is within about
    5e-8 relative of the exact maximum, so it catches a wrong piece or a
    stalled root; the maximum-at-a-jump cases check the last digits.
    """
    t = np.abs(y)
    kinks = np.sort(prox_jump_lambda(p, t))[::-1][:jumps]
    lams = np.unique(np.concatenate(
        [[0.0], np.geomspace(1e-12 * kinks[0], 2 * kinks[0], points), kinks]))
    best = -np.inf
    for _ in range(3):
        vals = []
        for lam in np.array_split(lams[:, None], 1 + lams.size * t.size // 2**16):
            x = prox_power_many(p, lam, t)
            vals.append(np.sum(power_objective(p, lam, t, x), axis=1) - lam[:, 0] * r**p / p)
        vals = np.concatenate(vals)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        lams = np.linspace(lams[max(i - 1, 0)], lams[min(i + 1, lams.size - 1)], 33)
    return best


def _assert_certificate(p, y, r, **grid):
    """The objective minus the reported gap is at least the weak dual's exact
    maximum; where ``grid`` arguments are given, that maximum is also checked
    against the grid dual of :func:`_independent_dual`, which never exceeds it."""
    res = project(LpBall(p=p, dim=y.size, radius=r), y)
    assert math.isfinite(res.duality_gap) and res.duality_gap >= 0.0
    if lp_norm(y, p) > r:
        implied = _objective(res.point, y) - res.duality_gap
        dual = _weak_dual(p, y, r)
        assert implied >= dual - 1e-12 * abs(dual)
        if grid:
            assert _independent_dual(p, y, r, **grid) <= dual + 1e-12 * abs(dual)
    return res


def test_quasinorm_dual_certificate_batch():
    # the reported gap leaves a value at least the weak dual's maximum
    rng = np.random.default_rng(2024)
    for _ in range(800):
        p = float(rng.uniform(0.02, 0.99))
        d = int(rng.integers(1, 60))
        r = float(10 ** rng.uniform(-2, 2))
        y = 3 * r * 10 ** rng.uniform(-1, 1) * rng.standard_normal(d)
        if d > 2 and rng.random() < 0.5:
            y[rng.integers(0, d, size=d // 3)] = y[0]  # ties
        if rng.random() < 0.5:
            y[rng.random(d) < 0.3] = 0.0
        _assert_certificate(p, y, r)


def _unit_problem(p, y, r):
    """The p < 1 solver's units: ``|y|/r`` sorted descending over its maximum
    ``scale``, and the budget ``scale**-p`` its p-th power sum must meet."""
    t = np.abs(y) / r
    scale = float(np.max(t))
    return np.sort(t)[::-1] / scale, scale**-p, scale


def _weak_dual(p, y, r=1.0):
    """Maximum of the weak dual of the projection, in the objective's units
    ``||x - y||**2/2``, from the reference ``weak_dual_max`` (cold start)."""
    ts, budget, scale = _unit_problem(p, y, r)
    return weak_dual_max(p, ts, budget)[0] * (scale * r) ** 2 + 0.5 * float(np.sum(y * y))


@pytest.mark.parametrize("y", [[2.0], [2.0, -2.0, 0.0]])
def test_quasinorm_dual_max_at_jump(y):
    # the dual slope is positive up to the common prox jump of the entries
    # and -r**p/p past it, so the weak dual's maximum is exactly there; the
    # objective is at least that maximum
    p, y = 0.5, np.array(y)
    jump = float(prox_jump_lambda(p, 2.0))
    dual = _weak_dual(p, y)
    assert dual == pytest.approx(0.5 * float(np.sum(y**2)) - jump / p, rel=1e-12)
    res = _assert_certificate(p, y, 1.0)
    assert _objective(res.point, y) - res.duality_gap >= dual * (1 - 1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_quasinorm_weak_dual_warm_start(p):
    # the reference weak dual's first probe is at the primal multiplier: where
    # the dual meets the objective that is the maximum and the only
    # evaluation; every maximum is the cold search's up to rounding
    d, zero_gaps = 200, 0
    ball = LpBall(p=p, dim=d, radius=1.0)
    rng = np.random.default_rng(3)
    for _ in range(24):
        y = np.eye(1, d)[0] + d**-0.5 * rng.standard_normal(d)
        res = project(ball, y)
        ts, budget, scale = _unit_problem(p, y, 1.0)
        x = np.sort(np.abs(res.point))[::-1]
        x = x[x > 0] / scale
        warm, evals = weak_dual_max(p, ts, budget, (res.multiplier / scale ** (2.0 - p), x))
        cold = weak_dual_max(p, ts, budget)[0]
        objective = float(np.sum(x * (0.5 * x - ts[:x.size])))  # sum(x**2/2 - x*t)
        assert abs(warm - cold) <= 1e-15 * abs(objective)
        if objective - cold <= 1e-15 * abs(objective):
            zero_gaps += 1
            assert evals == 1
    assert zero_gaps >= 4


def _benchmark_inputs(seed=0, d=1000):
    """The 24 single-call inputs ``e_1 + d**-0.5 * xi`` of the p = 0.5 benchmark."""
    e1 = np.eye(1, d)[0]
    return [(0.5, e1 + d**-0.5 * keyed_generator(seed, "nonconvex_p05", i).standard_normal(d))
            for i in range(24)]


def _seeded_quasinorm_inputs():
    """400 inputs for r = 1: 80 at each p in {0.1, 0.3, 0.5, 0.7, 0.9}, with d
    uniform in [2, 300), y standard normal times 0.1, 1 or 10, plus 0, 1 or 5
    on y[0]."""
    rng = np.random.default_rng(3)
    cases = []
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for _ in range(80):
            d = int(rng.integers(2, 300))
            y = rng.standard_normal(d) * float(rng.choice([0.1, 1.0, 10.0]))
            y[0] += float(rng.choice([0.0, 1.0, 5.0]))
            cases.append((p, y))
    return cases


def test_quasinorm_certificate_two_sided():
    # the enumeration's lower bound, the objective minus the certificate, is
    # within 1e-12 of ||y||**2/2 of the objective, and at or above the weak
    # dual's maximum, which stays at or below the objective
    for p, y in _benchmark_inputs() + _seeded_quasinorm_inputs():
        res = project(LpBall(p=p, dim=y.size, radius=1.0), y)
        objective, dual = _objective(res.point, y), _weak_dual(p, y)
        tol = 1e-12 * 0.5 * float(np.sum(y * y))
        assert 0.0 <= res.duality_gap <= tol
        assert dual <= objective + tol
        assert objective - res.duality_gap >= dual - tol


@pytest.fixture(scope="module")
def seeded_optima():
    return [_objective(project(LpBall(p=p, dim=y.size, radius=1.0), y).point, y)
            for p, y in _seeded_quasinorm_inputs()]


@pytest.mark.parametrize("name, value", [("QUASI_ROUNDS", 0), ("QUASI_ROUNDS", 1),
                                         ("TINY_LAMBDA", 1e-5)])
def test_quasinorm_certificate_bounds_cells_left_open(name, value, seeded_optima, monkeypatch):
    # with the refinement cut short, cells that may still hold the optimum are
    # left unsplit; with the multiplier floor raised, the root search leaves
    # cells open at it.  The certificate must count their bounds, so the
    # objective minus it stays at or below the full enumeration's optimum
    import lpseq.projection as projection

    monkeypatch.setattr(projection, name, value)
    short = 0
    for (p, y), optimum in zip(_seeded_quasinorm_inputs(), seeded_optima):
        res = project(LpBall(p=p, dim=y.size, radius=1.0), y)
        objective = _objective(res.point, y)
        assert objective - res.duality_gap <= optimum + 1e-12 * abs(optimum)
        short += objective > optimum * (1 + 1e-12)
    assert short > 0  # the change leaves some inputs short of the optimum


def test_quasinorm_dual_certificate_large_dim():
    d = 10_000
    rng = np.random.default_rng(5)
    y = np.eye(1, d)[0] + d**-0.5 * rng.standard_normal(d)
    _assert_certificate(0.5, y, 1.0, jumps=64)


def test_quasinorm_lower_root_optimum_costs_like_the_rest():
    # where y_1 < 1 the optimum keeps y_1 and a second coordinate on its lower
    # root; Newton steps find that root in a few evaluations, so these inputs
    # cost about what the e_1 optima do (16-way splitting took about 150 more)
    d = 200
    rng = np.random.default_rng(11)
    kept, iterations = [], []
    for _ in range(24):
        y = np.eye(1, d)[0] + d**-0.5 * rng.standard_normal(d)
        res = project(LpBall(p=0.5, dim=d, radius=1.0), y)
        kept.append(np.count_nonzero(res.point))
        iterations.append(res.iterations)
        assert res.kkt_residual <= 1e-9
    assert 1 in kept and 2 in kept
    assert max(iterations) <= 60


@pytest.mark.parametrize("p, r, y", [
    (0.7010067919606441, 0.29978494419288443, [
        -0.1813649640832338, -0.13567977124723962, 0.23517959759050716, -0.20344503075022083,
        0.1060034904564088, 0.34283515810023374, 0.06246290083006332, -0.10172111663827996,
        -0.15191137028203064, 0.048801583799871574, 0.27368598646444364, -0.23146395439380854,
        -0.21654160724044594, -0.1819023789026443, -0.062443763450146246, 0.2501439246891717,
        0.048354332928447916, -0.380122896661159, -0.07721881741604322]),
    (0.8394369560740542, 24.81825240999707, [
        0.0, -32.3099987487505, -2.7517568756739195, -1.6660843963157062, 18.989621694411785,
        -5.925294537865491, 0.0, -2.7517568756739195, 8.95864291584393, 0.0, 0.0,
        -16.66521651382481, 4.04356588896545, -2.7517568756739195, 8.888802824312771, 0.0]),
])
def test_quasinorm_two_coordinate_optimum(p, r, y):
    # the optimum keeps the two largest magnitudes, the second on its lower
    # root, in a grid cell that ends past where that root vanishes: the held
    # root there has no slope, so the cell must be split, not judged by it
    y = np.array(y)
    t = np.sort(np.abs(y))[::-1]
    res = project(LpBall(p=p, dim=y.size, radius=r), y)
    x1 = np.linspace(0.0, r, 100_001)[1:-1]
    for _ in range(3):  # the best boundary point keeping the top two, zooming in
        x2 = np.maximum(r**p - x1**p, 0.0) ** (1 / p)
        vals = 0.5 * ((x1 - t[0]) ** 2 + (x2 - t[1]) ** 2)
        i = int(np.argmin(vals))
        best = float(vals[i]) + 0.5 * float(np.sum(t[2:] ** 2))
        x1 = np.linspace(x1[max(i - 1, 0)], x1[min(i + 1, x1.size - 1)], 1001)
    assert np.count_nonzero(res.point) == 2
    assert _objective(res.point, y) <= best * (1 + 1e-12)


@pytest.mark.parametrize("p, r, y", [
    (0.00576901839754414, 1.4210240356625545, [1.0, 0.4]),
    (0.005685786501605244, 1.661466379958235, [-0.02748556, -1.61345432]),
    (0.0076046900802066615, 1.7147306159907543, [1.0, 0.40891284, 1.0, 1.0, 0.0, 0.0]),
])
def test_quasinorm_root_below_double_range(p, r, y):
    # near p = 0 a lower root's power (lam/t)**(p/(1-p)) meets the budget only
    # at a multiplier below double range; the solver stops short, with no warning
    y = np.array(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = project(LpBall(p=p, dim=y.size, radius=r), y)
    assert lp_norm(res.point, p) <= r * (1 + 1e-9)
    assert math.isfinite(res.duality_gap) and res.duality_gap >= 0.0
    # no worse than the largest feasible prefix of |y| kept as is
    order = np.argsort(-np.abs(y), kind="stable")
    kept = int(np.searchsorted(np.cumsum(np.abs(y[order]) ** p), r**p, side="right"))
    prefix = np.zeros_like(y)
    prefix[order[:kept]] = y[order[:kept]]
    assert _objective(res.point, y) <= _objective(prefix, y) * (1 + 1e-12)


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


def _block(p, d, r, rng):
    """Rows that stop at different steps: infeasible, zero, inside, near the
    boundary, scaled by 1e150 and 1e-150, and one with ties and zeros."""
    rows = [rng.standard_normal(d) * s for s in (1.0, 3.0, 0.0, 0.05, 1e150, 1e-150)]
    tied = 2.0 * rng.standard_normal(d)
    tied[::3], tied[1::3] = 0.0, tied[0 + 2 if d > 2 else 0]
    rows.append(tied)
    if 0 < p < math.inf:
        u = rng.standard_normal(d)
        rows += [u * (r / lp_norm(u, p)) * (1 + e) for e in (-1e-12, 1e-9, 1e-3)]
    return np.array(rows)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, math.inf] + GENERIC_P)
def test_project_many_matches_lone_calls_bit_for_bit(p):
    rng = np.random.default_rng(31)
    # benchmark sizes too: the block's einsum row sums must not depend on its row count
    sizes = ((1, 0.7), (7, 1.0), (40, 2.5)) + (((1001, 1.0),) if p in (1.3, 1.5, 2.0, 3.0) else ())
    for d, r in sizes:
        if p == 0:
            ball = LpBall(p=p, dim=d, sparsity=max(1, d // 3))
        else:
            ball = LpBall(p=p, dim=d, radius=r)
        Y = _block(p, d, r, rng)
        many = project_many(ball, Y)
        assert len(many) == len(Y)
        for y, got in zip(Y, many):
            lone = project(ball, y)
            assert got.point.tobytes() == lone.point.tobytes()
            assert got.multiplier == lone.multiplier
            assert got.kkt_residual == lone.kkt_residual
            assert got.iterations == lone.iterations
            assert got.duality_gap == lone.duality_gap
        if 1 < p < math.inf and d > 1:
            assert len({res.iterations for res in many}) > 2  # rows stop at different steps


def test_project_many_validation():
    ball = LpBall(p=1.5, dim=3, radius=1.0)
    for bad in (np.ones(3), np.ones((2, 4)), np.ones((2, 3, 1))):
        with pytest.raises(DimensionMismatchError):
            project_many(ball, bad)
    for value in (np.nan, np.inf):
        Y = np.ones((4, 3))
        Y[2, 1] = value
        with pytest.raises(NonFiniteInputError):
            project_many(ball, Y)
    assert project_many(ball, np.empty((0, 3))) == []
    with pytest.raises(InvalidParameterError, match="overflows"):
        project_many(LpBall(p=1.5, dim=2, radius=1e-300), np.array([[0.1, 0.1], [1e10, 1.0]]))


def test_generic_p_search_solves_no_inner_roots(monkeypatch):
    # outside the closed forms each pass of the multiplier search is one
    # joint Newton step over the row, two exps (three where it bounds the
    # sum from above), with no root solve of the shrinkage kernel in it
    import lpseq.projection as projection
    import lpseq.shrinkage as shrinkage

    exps = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            exps.append(1)
            return np.exp(x)

    def no_roots(*args, **kwargs):
        raise AssertionError("the multiplier search solved a root")

    y = np.random.default_rng(41).standard_normal(1000)
    for p in GENERIC_P:
        exps.clear()
        with monkeypatch.context() as m:
            m.setattr(shrinkage, "_branch_root", no_roots)
            m.setattr(projection, "np", CountingNumpy())
            res = project(LpBall(p=p, dim=y.size, radius=1.0), y)
        assert res.kkt_residual <= 1e-9 and res.iterations >= 2
        assert 2 * res.iterations <= len(exps) <= 3 * res.iterations, p


@pytest.mark.parametrize("p", GENERIC_P)
def test_generic_p_matches_reference_on_benchmark_shapes(p):
    # the two figure shapes at d = 1000 and 7017: a spike e_1 with noise
    # d**(1/p - 1), and the flat k-sparse signal of fig2b (its p = 1.3
    # sparsity, normalized at p) with noise d**-0.5
    rng = np.random.default_rng(17)
    for d in (1000, 7017):
        spike = np.eye(1, d)[0]
        k = flat_sparse_instance(d**-0.5, 1.3, d).k
        flat = np.where(np.arange(d) < k, k ** (-1.0 / p), 0.0)
        for theta, sigma in ((spike, d ** (1.0 / p - 1.0)), (flat, d**-0.5)):
            y = theta + sigma * rng.standard_normal(d)
            res = project(LpBall(p=p, dim=d, radius=1.0), y)
            assert res.kkt_residual <= 1e-9
            if res.iterations:
                ref = np.sign(y) * project_reference(p, np.abs(y))
                assert np.max(np.abs(res.point - ref)) <= 1e-9 * np.max(np.abs(ref))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_generic_p_matches_reference(data):
    # spike, flat sparse and Gaussian rows, some with exact zeros, at |y|/r
    # from 1e-150 to 1e150 and radii from 1e-150 to 1e150
    p = data.draw(st.sampled_from(GENERIC_P))
    shape = data.draw(st.sampled_from(["spike", "flat", "gaussian"]))
    d = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_normal(d)
    if shape == "spike":
        y = 0.1 * y + np.eye(1, d)[0]
    elif shape == "flat":
        y = 0.2 * y + (np.arange(d) < rng.integers(1, d + 1))
    if data.draw(st.booleans()):
        y[rng.random(d) < 0.4] = 0.0
    assume(np.any(y))
    log_r, log_ratio = data.draw(st.floats(-150, 150)), data.draw(st.floats(-150, 150))
    r = 10.0**log_r
    y = y / np.max(np.abs(y)) * 10.0 ** (log_r + log_ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = project(LpBall(p=p, dim=d, radius=r), y)
    assert res.kkt_residual <= 1e-9
    t = np.abs(y) / r
    if res.iterations == 0:  # inside the ball
        assert res.point.tobytes() == y.tobytes() and lp_norm(t, p) <= 1.0 + 1e-9
    else:
        ref = np.sign(y) * project_reference(p, t) * r
        assert np.max(np.abs(res.point - ref)) <= 1e-9 * np.max(np.abs(ref))
