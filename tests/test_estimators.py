import math
from decimal import Decimal

import numpy as np
import pytest

from lpseq.errors import DimensionMismatchError, InvalidParameterError
from lpseq.estimators import EstimatorSpec, estimate, reduce_samples, st_lambda
from lpseq.projection import LpBall, lp_norm, project

# direct substitution at two precisions: sqrt(2*0.01*log(e*100*0.1**1.5))
ST_LAMBDA_FIXTURE = 0.2074267362948674


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        EstimatorSpec(kind="nope")
    with pytest.raises(InvalidParameterError):
        EstimatorSpec(kind="mle")  # needs ball
    with pytest.raises(InvalidParameterError):
        EstimatorSpec(kind="soft_threshold", ball=LpBall(p=1.5, dim=3, radius=1.0))


def test_soft_threshold_domain_checked_at_construction():
    # a spec outside st_lambda's domain once built, and estimate_risk failed
    # only after drawing its first block
    for p, sigma in ((2.5, 0.1), (2.0, 0.1), (math.inf, 0.1), (1.5, 0.0), (1.5, math.nan)):
        with pytest.raises(InvalidParameterError, match="soft_threshold"):
            EstimatorSpec("soft_threshold", LpBall(p, 4, 1.0), sigma)
    assert EstimatorSpec("soft_threshold", LpBall(1.5, 4, 1.0), 0.1).noise_level == 0.1


def test_trivial_estimators():
    y = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(estimate(EstimatorSpec(kind="zero"), y), np.zeros(3))
    np.testing.assert_array_equal(estimate(EstimatorSpec(kind="identity"), y), y)


def test_mle_dispatch():
    ball = LpBall(p=2.0, dim=2, radius=1.0)
    got = estimate(EstimatorSpec(kind="mle", ball=ball), np.array([3.0, 4.0]))
    np.testing.assert_allclose(got, [0.6, 0.8], atol=1e-10)


def test_st_lambda_values():
    # boundary of the clamp: e*d*sigma**p == 1 (approached from below)
    sigma = (1.0 / (math.e * 4)) ** (1.0 / 1.5)
    assert st_lambda(sigma * (1 - 1e-12), 4, 1.5) == 0.0
    assert st_lambda(sigma, 4, 1.5) == pytest.approx(0.0, abs=1e-8)
    assert st_lambda(1.0, 1, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert st_lambda(0.1, 100, 1.5) == pytest.approx(ST_LAMBDA_FIXTURE, rel=1e-12)


def test_st_lambda_validation():
    with pytest.raises(InvalidParameterError):
        st_lambda(0.0, 10, 1.5)
    for d in (0, 2.5, True):  # a float d used to pass
        with pytest.raises(InvalidParameterError):
            st_lambda(1.0, d, 1.5)
    with pytest.raises(InvalidParameterError):
        st_lambda(1.0, 10, 2.0)


def test_st_lambda_past_double_range():
    # sigma**2 (and at 1e300 sigma**p) past double range raised OverflowError,
    # so EstimatorSpec rejected a sigma whose level is finite; a sigma**2 that
    # underflowed gave 0 (1e-200) or lost bits (subnormal at 1e-160)
    cases = ((1e200, 10, 1.5), (1e300, 10, 1.9), (1.3e154, 7, 0.5), (1e250, 10**6, 1e-3),
             (1e-200, 10**6, 1e-3), (1e-160, 10**6, 1e-3))
    for sigma, d, p in cases:
        s = Decimal(sigma)
        exact = s * (2 * (Decimal(d) * s ** Decimal(p) * Decimal(1).exp()).ln()).sqrt()
        assert st_lambda(sigma, d, p) == pytest.approx(float(exact), rel=1e-14, abs=0.0)
        assert EstimatorSpec("soft_threshold", LpBall(p, d, 1.0), sigma).noise_level == sigma
    assert st_lambda(1e200, 10, 1.5) == pytest.approx(3.7258e201, rel=1e-4)
    # in range the level is the direct formula, bit for bit
    for sigma in np.geomspace(1e-150, 1e150, 61):
        for d, p in ((1, 0.5), (100, 1.5), (7017, 1.3), (10**6, 1.999)):
            arg = d * sigma**p * math.e
            direct = math.sqrt(2.0 * sigma**2 * math.log(arg)) if arg > 1.0 else 0.0
            assert st_lambda(float(sigma), d, p) == direct


def test_estimate_rejects_rows_off_the_ball_dimension():
    # soft_threshold took the level at the row length, zero and identity
    # passed the row through; only mle, through project, raised
    ball = LpBall(p=1.5, dim=10, radius=1.0)
    for kind in ("soft_threshold", "zero", "identity", "mle"):
        spec = EstimatorSpec(kind, ball, 0.1)
        for y in (np.ones(20), np.ones((3, 9)), np.float64(1.0)):
            with pytest.raises(DimensionMismatchError, match="length 10"):
                estimate(spec, y)
        assert estimate(spec, np.ones(10)).shape == (10,)
    assert estimate(EstimatorSpec("identity"), np.ones(20)).shape == (20,)  # no ball


def test_soft_threshold_support_shrinkage():
    rng = np.random.default_rng(2)
    ball = LpBall(p=1.5, dim=40, radius=1.0)
    spec = EstimatorSpec(kind="soft_threshold", ball=ball, noise_level=0.3)
    y = rng.standard_normal(40)
    fit = estimate(spec, y)
    assert np.all(np.abs(fit) <= np.abs(y) + 1e-15)
    assert set(np.nonzero(fit)[0]) <= set(np.nonzero(y)[0])


def test_mle_always_feasible():
    rng = np.random.default_rng(4)
    for p in (1.0, 1.5, 2.0):
        ball = LpBall(p=p, dim=25, radius=1.0)
        spec = EstimatorSpec(kind="mle", ball=ball)
        for _ in range(5):
            fit = estimate(spec, 2.0 * rng.standard_normal(25))
            assert lp_norm(fit, p) <= 1.0 + 1e-9


def test_reduce_samples_examples():
    y = np.array([1.0, 2.0])
    red = reduce_samples([y])
    np.testing.assert_array_equal(red.mean, y)
    assert red.effective_noise(0.7) == 0.7

    red = reduce_samples([y, y, y, y])
    np.testing.assert_array_equal(red.mean, y)
    assert red.effective_noise(2.0) == pytest.approx(1.0)

    red = reduce_samples([y, -y])
    np.testing.assert_array_equal(red.mean, np.zeros(2))
    assert red.noise_scale == pytest.approx(1.0 / math.sqrt(2))


def test_reduce_samples_validation():
    with pytest.raises(InvalidParameterError):
        reduce_samples([])
    with pytest.raises(DimensionMismatchError):
        reduce_samples([np.zeros(2), np.zeros(3)])


def test_n_sample_equivalence_scalar_grid():
    # two and three samples at d = 1: the constrained sum-of-squares minimum
    # over the interval [-1, 1] equals the projected sample mean
    rng = np.random.default_rng(8)
    ball = LpBall(p=1.5, dim=1, radius=1.0)
    for n in (2, 3):
        samples = [np.array([1.0]) + 0.8 * rng.standard_normal(1) for _ in range(n)]
        red = reduce_samples(samples)
        via_mean = project(ball, red.mean).point[0]
        grid = np.linspace(-1.0, 1.0, 2_000_001)
        total = np.zeros_like(grid)
        for s in samples:
            total += (grid - s[0]) ** 2
        direct = grid[np.argmin(total)]
        assert via_mean == pytest.approx(direct, abs=2e-6)
