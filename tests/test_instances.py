import math
import warnings

import numpy as np
import pytest

from lpseq.errors import InvalidParameterError
from lpseq.instances import (
    default_delta,
    flat_sparse_instance,
    sparsity_scaling,
    spike_instance,
)
from lpseq.projection import lp_norm

# recomputed with 40-digit arithmetic: (0.1 * 100**(1/3) / 2) * (3/40)
LAMBDA_FLOOR_FIXTURE = 0.017405958126047921


def test_spike():
    np.testing.assert_array_equal(spike_instance(3), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(spike_instance(1), [1.0])
    for p in (0.5, 1.0, 2.0, math.inf):
        assert lp_norm(spike_instance(5), p) == 1.0
    with pytest.raises(InvalidParameterError):
        spike_instance(0)
    # a float or bool d is no dimension
    for d in (4.5, 4.0, True):
        with pytest.raises(InvalidParameterError, match="integer"):
            spike_instance(d)


def test_flat_instance_fixture():
    inst = flat_sparse_instance(0.1, 1.5, 100)
    assert inst.m == 100
    assert inst.delta == pytest.approx(default_delta(3.0))
    assert inst.lambda_floor == pytest.approx(LAMBDA_FLOOR_FIXTURE, rel=1e-12)
    # lambda_floor**(-3) ~ 1.9e5 exceeds d//2, so the clamp fires
    assert inst.k == 50
    assert inst.clamped


def test_flat_instance_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(60):
        p = float(rng.uniform(1.05, 1.95))
        d = int(rng.integers(4, 3000))
        sigma = float(10.0 ** rng.uniform(-3, 0.5))
        inst = flat_sparse_instance(sigma, p, d)
        assert abs(lp_norm(inst.theta_star, p) - 1.0) <= 1e-12
        assert 1 <= inst.k <= d // 2
        assert inst.m % 4 == 0 and d - 3 <= inst.m <= d
        nz = np.count_nonzero(inst.theta_star)
        assert nz == inst.k


def test_flat_instance_degenerate_spike():
    # large noise pushes k to 1, recovering the single spike
    inst = flat_sparse_instance(50.0, 1.5, 40)
    assert inst.k == 1
    np.testing.assert_array_equal(inst.theta_star, spike_instance(40))
    assert not inst.clamped


def test_flat_instance_validation():
    with pytest.raises(InvalidParameterError):
        flat_sparse_instance(0.1, 2.0, 100)
    with pytest.raises(InvalidParameterError):
        flat_sparse_instance(0.1, 0.9, 100)
    with pytest.raises(InvalidParameterError):
        flat_sparse_instance(0.1, 1.5, 3)
    with pytest.raises(InvalidParameterError):
        flat_sparse_instance(0.0, 1.5, 100)
    for d in (10.5, 100.0, True):
        with pytest.raises(InvalidParameterError, match="integer"):
            flat_sparse_instance(0.1, 1.5, d)
        with pytest.raises(InvalidParameterError, match="integer"):
            sparsity_scaling(0.1, 1.5, d)
    for f, least_d in ((flat_sparse_instance, 4), (sparsity_scaling, 1)):
        for p in (1.0, 2.0, 0.9, math.nan):
            with pytest.raises(InvalidParameterError, match=r"p in \(1, 2\)"):
                f(0.1, p, 10)
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidParameterError, match="sigma"):
                f(sigma, 1.5, 10)
        with pytest.raises(InvalidParameterError, match=f"integer d >= {least_d}"):
            f(0.1, 1.5, least_d - 1)


def test_instances_past_double_range():
    # Python powers raise past double range: these raised OverflowError and
    # ZeroDivisionError; numpy scalars take the same path, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma, p, d in ((1e-200, 1.5, 10), (np.float64(1e-200), np.float64(1.5), np.int64(10)),
                            (1e-320, 1.5, 10)):
            inst = flat_sparse_instance(sigma, p, d)
            assert inst.k == 5 and inst.clamped and lp_norm(inst.theta_star, 1.5) == 1.0
        for sigma, p, expected in ((1e-120, 1.5, 10.0), (1e-5, 1.99, 10.0), (5e-324, 1.3, 10.0),
                                   (1e200, 1.5, 1.0), (np.float64(1e200), 1.5, 1.0)):
            assert sparsity_scaling(sigma, p, 10) == expected


def test_sparsity_scaling_endpoints():
    p = 1.5
    q = 3.0
    d = 10**4
    # sigma at d**(-1/q): the balance point, order-one sparsity
    assert sparsity_scaling(d ** (-1 / q), p, d) == pytest.approx(1.0)
    # sigma at d**(-1/p): dense end, the formula's exponents collapse to d
    assert sparsity_scaling(d ** (-1 / p), p, d) == pytest.approx(float(d), rel=1e-9)
    # monotone: nonincreasing in sigma
    sigmas = np.geomspace(1e-4, 1.0, 50)
    vals = [sparsity_scaling(float(s), p, d) for s in sigmas]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_sparsity_scaling_tracks_flat_instance():
    # The construction's k and the order-level formula agree up to the exact
    # constant [2**(q+3)/delta]**((p-1)/(2-p)) (covering m >= d/2) plus the
    # ceiling; checked on a clamp-inactive grid.
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(200):
        p = float(rng.uniform(1.2, 1.8))
        q = p / (p - 1.0)
        d = int(rng.integers(50, 5000))
        sigma = float(10.0 ** rng.uniform(-1.5, 1.0))
        inst = flat_sparse_instance(sigma, p, d)
        if inst.clamped:
            continue
        checked += 1
        factor = (2 ** (q + 3) / inst.delta) ** ((p - 1.0) / (2.0 - p))
        ratio = inst.k / sparsity_scaling(sigma, p, d)
        assert ratio <= 2.0 * factor
        assert ratio >= 0.5  # k never undershoots the order-level value much
    assert checked >= 20
