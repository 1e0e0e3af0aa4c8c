import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpseq.errors import InvalidParameterError
from lpseq.shrinkage import (
    ShrinkageQuery,
    branch_roots,
    branch_vanish_lambda,
    power_objective,
    prox_jump_lambda,
    prox_power,
    prox_power_many,
    psi_many,
    psi_solve,
    soft_threshold,
    soft_threshold_scalar,
)

# independently computed to 1e-12 by a 200-step bisection (mpmath, 40 digits)
PSI_15_05_1 = 0.6096117967977924
# jump of the p=1/2, lam=1 prox: ties at x = 2t/3, giving t = 3 / 2**(1/3)
JUMP_T_HALF = 2.3811015779522992


def test_psi_closed_form_examples():
    assert psi_solve(ShrinkageQuery(2.0, 1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)
    assert psi_solve(ShrinkageQuery(1.5, 1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)
    assert psi_solve(ShrinkageQuery(3.0, 2.0, 3.0)) == pytest.approx(1.0, abs=1e-12)


def test_psi_derived_fixture():
    assert psi_solve(ShrinkageQuery(1.5, 0.5, 1.0)) == pytest.approx(PSI_15_05_1, abs=1e-12)


def test_psi_edge_cases():
    assert psi_solve(ShrinkageQuery(1.7, 0.0, 3.0)) == 3.0
    assert psi_solve(ShrinkageQuery(1.7, 2.0, 0.0)) == 0.0
    assert psi_solve(ShrinkageQuery(1.0, 2.0, 5.0)) == 3.0
    assert psi_solve(ShrinkageQuery(1.0, 2.0, 1.0)) == 0.0


def test_psi_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        ShrinkageQuery(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ShrinkageQuery(1.5, -1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ShrinkageQuery(1.5, 1.0, -1.0)
    with pytest.raises(InvalidParameterError):
        ShrinkageQuery(1.5, 1.0, 1.0, tol=0.0)
    with pytest.raises(InvalidParameterError):
        psi_solve(ShrinkageQuery(0.5, 1.0, 1.0))


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.8, 2.0, 2.6, 3.0, 4.5, 50.0])
def test_psi_residual_on_random_grid(p):
    rng = np.random.default_rng(7)
    t = 10.0 ** rng.uniform(-6, 2, size=300)
    lam = 10.0 ** rng.uniform(-6, 3, size=300)
    psi = psi_many(p, lam, t, tol=1e-12)
    resid = np.abs(psi + lam * psi ** (p - 1.0) - t)
    assert np.all(psi >= 0)
    assert np.all(psi <= t + 1e-15)
    assert resid.max() <= 1e-11


@pytest.mark.parametrize("p", [1.3, 2.0, 3.5])
def test_psi_monotone_in_t_and_lam(p):
    rng = np.random.default_rng(3)
    lam = 1.7
    t = np.sort(rng.uniform(0, 5, size=200))
    psi = psi_many(p, lam, t)
    assert np.all(np.diff(psi) >= -1e-12)
    lams = np.sort(rng.uniform(0, 8, size=200))
    t0 = 2.3
    psi = psi_many(p, lams, np.full(200, t0))
    assert np.all(np.diff(psi) <= 1e-12)


@given(lam=st.floats(0.0, 50.0), t=st.floats(0.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_psi_near_one_matches_soft_threshold(lam, t):
    if t <= lam:
        return
    psi = psi_solve(ShrinkageQuery(1.0 + 1e-9, lam, t))
    assert abs(psi - soft_threshold_scalar(t, lam)) <= 1e-6


def test_soft_threshold_examples():
    assert soft_threshold_scalar(3.0, 1.0) == 2.0
    assert soft_threshold_scalar(-0.5, 1.0) == 0.0
    assert soft_threshold_scalar(0.0, 5.0) == 0.0
    np.testing.assert_allclose(soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0),
                               [2.0, 0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        soft_threshold_scalar(1.0, -0.1)


def test_prox_trivial_cases():
    assert prox_power(ShrinkageQuery(0.5, 7.0, 0.0)) == 0.0
    assert prox_power(ShrinkageQuery(0.5, 0.0, 3.0)) == 3.0
    # p >= 1 identical to the fixed-point solve
    assert prox_power(ShrinkageQuery(1.5, 0.5, 1.0)) == pytest.approx(PSI_15_05_1, abs=1e-12)


def test_prox_jump_threshold_both_sides():
    below = prox_power(ShrinkageQuery(0.5, 1.0, JUMP_T_HALF - 1e-6))
    above = prox_power(ShrinkageQuery(0.5, 1.0, JUMP_T_HALF + 1e-6))
    assert below == 0.0
    assert above == pytest.approx(2.0 * JUMP_T_HALF / 3.0, rel=1e-4)
    # the dense-grid oracle agrees on both sides
    for t, expected in ((JUMP_T_HALF - 1e-6, below), (JUMP_T_HALF + 1e-6, above)):
        grid = np.linspace(0.0, t, 20001)
        vals = power_objective(0.5, 1.0, t, grid)
        best = grid[np.argmin(vals)]
        assert abs(best - expected) < 1e-3


def test_prox_global_optimality_against_grid():
    rng = np.random.default_rng(11)
    n = 1000
    p = rng.uniform(0.15, 0.95, size=n)
    lam = 10.0 ** rng.uniform(-3, 1.5, size=n)
    t = 10.0 ** rng.uniform(-2, 1.0, size=n)
    grid = np.linspace(0.0, 1.0, 10001)
    for i in range(n):
        x = prox_power(ShrinkageQuery(float(p[i]), float(lam[i]), float(t[i])))
        fx = float(power_objective(p[i], lam[i], t[i], np.array([x]))[0])
        gvals = power_objective(p[i], lam[i], t[i], grid * t[i])
        assert fx <= float(gvals.min()) + 1e-9


def test_prox_tie_prefers_zero():
    # exactly at the tie the sparser output wins
    t = JUMP_T_HALF
    x_tie = 2.0 * t / 3.0
    lam = float((t - x_tie) * x_tie**0.5)
    assert prox_power(ShrinkageQuery(0.5, lam, t)) == 0.0


def test_branch_helpers_consistency():
    p = 0.5
    t = np.array([2.0])
    lam_vanish = float(branch_vanish_lambda(p, t)[0])
    lam_jump = float(prox_jump_lambda(p, t)[0])
    assert 0 < lam_jump < lam_vanish
    # just above vanish nothing survives
    assert np.isnan(
        prox_power_many(p, lam_vanish * 1.001, t)[0]) or prox_power_many(
            p, lam_vanish * 1.001, t)[0] == 0.0


@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
def test_branch_roots_residual_existence_and_monotonicity(p):
    rng = np.random.default_rng(13)
    t = 10.0 ** rng.uniform(-3, 1, size=40)
    vanish = branch_vanish_lambda(p, t)
    frac = np.sort(np.concatenate([rng.uniform(0, 1.2, 400), [0.0, 1 - 1e-9, 1.0, 1 + 1e-9]]))
    lam = frac[:, None] * vanish  # each column: one t, multipliers increasing
    upper, lower = branch_roots(p, lam, t, True), branch_roots(p, lam, t, False)
    np.testing.assert_array_equal(upper[0], t)
    assert np.all(np.isnan(lower[0]))
    live = (lam > 0) & (lam <= vanish * (1 - 1e-9))
    gone = lam > vanish
    x_arg = (lam * (1.0 - p)) ** (1.0 / (2.0 - p))
    target = np.broadcast_to(t, lam.shape)[live]
    for roots in (upper, lower):
        assert np.all(np.isnan(roots[gone]))
        x = roots[live]
        assert not np.any(np.isnan(x))
        assert np.max(np.abs(x + lam[live] * x ** (p - 1.0) - target)) <= 1e-11
    ok = ~np.isnan(upper[1:])
    assert np.all(lower[1:][ok] <= x_arg[1:][ok]) and np.all(x_arg[1:][ok] <= upper[1:][ok])
    # the p < 1 projection's certified pruning relies on this monotonicity
    assert np.nanmax(np.diff(upper, axis=0)) <= 0
    assert np.nanmin(np.diff(lower, axis=0)) >= 0


def test_flush_to_zero():
    # enormous multipliers drive the solution into the flush region
    out = prox_power_many(1.2, 1e280, np.array([1.0]))
    assert out[0] == 0.0


def test_prox_broadcast_matches_scalar():
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 3.0, size=8)
    lams = np.array([1e-3, 0.3, 2.0])
    batch = prox_power_many(0.5, lams[:, None], t[None, :])
    for i, lam in enumerate(lams):
        single = prox_power_many(0.5, float(lam), t)
        np.testing.assert_allclose(batch[i], single, atol=1e-13)
