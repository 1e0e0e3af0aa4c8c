import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpseq.errors import InvalidParameterError
from lpseq.shrinkage import (
    FLUSH_TOL,
    ROOT_FLOOR,
    _branch_vanish_lambda,
    branch_roots,
    psi_many,
    soft_threshold,
)
from prox_reference import power_objective, prox_jump_lambda, prox_power_many

# independently computed to 1e-12 by a 200-step bisection (mpmath, 40 digits)
PSI_15_05_1 = 0.6096117967977924
# jump of the p=1/2, lam=1 prox: ties at x = 2t/3, giving t = 3 / 2**(1/3)
JUMP_T_HALF = 2.3811015779522992


def test_psi_closed_form_examples():
    assert psi_many(2.0, 1.0, [2.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert psi_many(1.5, 1.0, [2.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert psi_many(3.0, 2.0, [3.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_psi_derived_fixture():
    assert psi_many(1.5, 0.5, [1.0])[0] == pytest.approx(PSI_15_05_1, abs=1e-12)


def test_psi_edge_cases():
    assert psi_many(1.7, 0.0, [3.0])[0] == 3.0
    assert psi_many(1.7, 2.0, [0.0])[0] == 0.0
    assert psi_many(1.0, 2.0, [5.0])[0] == 3.0
    assert psi_many(1.0, 2.0, [1.0])[0] == 0.0
    # lam = 0 leaves t as is, with no warning at t = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1.5, 2.0, 3.0):
            np.testing.assert_array_equal(psi_many(p, 0.0, [0.0, 2.0]), [0.0, 2.0])
        # lam*exp((p-1)*log t) passes double range before the tiny lam scales
        # it back; the root is finite all the same
        for p, lam, t in ((2.5, 1e-300, 1e300), (10.0, 1e-300, 1e150)):
            psi = psi_many(p, lam, [t])[0]
            assert 0 < psi <= t
            power = math.exp(math.log(lam) + (p - 1.0) * math.log(psi))
            assert abs(psi + power - t) <= 1e-12 * t
    # a column of multipliers against magnitudes of 0, flushed ones and ones
    # up to 1e3, and the wide rows above, at p from 1 + 1e-9 to 1e4 (at 1.5
    # a closed form once rounded psi above t): psi lies in [0, t] and meets
    # psi_many's residual bound, measured on the returned psi, so up to the
    # rounding of lam*psi**(p-1), which psi's own rounding moves (p-1)-fold;
    # a psi flushed to 0 has its root below FLUSH_TOL
    rng = np.random.default_rng(31)
    t = 10.0 ** rng.uniform(-6, 3, size=300)
    t[:10] = 0.0
    t[10:20] = 10.0 ** rng.uniform(-320, -301, size=10)  # flushed roots
    lams = np.array([0.0, 1e-300, 1e-6, 0.3, 7.0, 1e5, 1e280])[:, None]
    blocks = ((lams, np.broadcast_to(t, (lams.size, t.size))),
              (np.full((2, 1), 1e-300), np.array([[1e300], [1e150]])))
    eps = np.finfo(float).eps
    for p in (1.0 + 1e-9, 1.001, 1.1, 1.3, 1.5, 1.7, 2.5, 4.0, 50.0, 1e4):
        for lam, T in blocks:
            psi = psi_many(p, lam, T)
            assert np.all((psi >= 0) & (psi <= T))
            with np.errstate(divide="ignore", invalid="ignore"):  # log 0; 0*inf at t or lam 0
                log_lam, log_psi = np.log(lam), np.log(psi)
                power = np.exp(log_lam + (p - 1.0) * log_psi)
                floor = ROOT_FLOOR * eps * T * (1.0 + np.abs(np.log(T)))
                rounding = np.nan_to_num(
                    4.0 * eps * power * (1.0 + np.abs(log_lam) + p * (1.0 + np.abs(log_psi))))
                flushed = FLUSH_TOL + np.exp(log_lam + (p - 1.0) * np.log(FLUSH_TOL)) >= T
            live = psi > 0
            resid = np.abs(psi + power - T)[live]
            assert np.all(resid <= np.fmax(1e-12, floor[live]) + rounding[live]), p
            assert np.all(flushed[~live]), p


def test_psi_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        psi_many(0.5, 1.0, [1.0])
    # the mirror case: branch_roots(1.5, ...) returned -1.0
    for p in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(InvalidParameterError):
            branch_roots(p, 1.0, 1.0, True)
    # a negative or NaN multiplier or magnitude has no root in [0, t]: at
    # lam = -1 the closed forms gave 2.618 (p = 1.5) and 1/0 (p = 2), and
    # p = 1.3 returned t
    for p in (1.0, 1.3, 1.5, 2.0, 3.0, 4.5):
        for lam, t in ((-1.0, [1.0]), (math.nan, [1.0]), ([[1.0], [-1e-300]], [1.0]),
                       (1.0, [1.0, -1.0]), (1.0, [math.nan]), (0.0, [-0.5])):
            with pytest.raises(InvalidParameterError):
                psi_many(p, lam, t)


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.8, 2.0, 2.6, 3.0, 4.5, 50.0])
def test_psi_residual_on_random_grid(p):
    rng = np.random.default_rng(7)
    t = 10.0 ** rng.uniform(-6, 2, size=300)
    lam = 10.0 ** rng.uniform(-6, 3, size=300)
    psi = psi_many(p, lam, t)
    resid = np.abs(psi + lam * psi ** (p - 1.0) - t)
    assert np.all(psi >= 0)
    assert np.all(psi <= t + 1e-15)
    assert resid.max() <= 1e-11


@pytest.mark.parametrize("p", [1.0 + 1e-9, 1.001, 1.3, 1.5, 2.0, 2.5, 3.0, 10.0])
def test_psi_near_double_range(p):
    # t near 1.8e308, where psi + lam*psi**(p-1) passes double range before it
    # meets t: the root returned 0.0 or NaN, and at p = 1.5 the closed form's
    # u*u rounded above t.  The residual relative to t is taken in logs, since
    # psi**(p-1) overflows at p = 3
    rng = np.random.default_rng(30)
    t = rng.uniform(0.5, 1.0, 2000) * np.finfo(float).max
    lam = 10.0 ** rng.uniform(-3.0, 3.0, 2000)
    t[0], lam[0] = 9.959842587084872e307, 8.715648425215976e307  # root about 1.24e307
    psi = psi_many(p, lam, t)
    assert np.all((psi > 0) & (psi <= t))
    power = np.exp(np.log(lam) + (p - 1.0) * np.log(psi) - np.log(t))
    assert np.max(np.abs(psi / t + power - 1.0)) <= 1e-12


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
    psi = psi_many(1.0 + 1e-9, lam, [t])[0]
    assert abs(psi - soft_threshold([t], lam)[0]) <= 1e-6


def test_soft_threshold_examples():
    np.testing.assert_array_equal(soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0),
                                  [2.0, 0.0, 0.0])
    assert soft_threshold([0.0], 5.0)[0] == 0.0
    for lam in (-0.1, math.nan):
        with pytest.raises(InvalidParameterError):
            soft_threshold([1.0], lam)


def test_prox_trivial_cases():
    assert prox_power_many(0.5, 7.0, [0.0])[0] == 0.0
    assert prox_power_many(0.5, 0.0, [3.0])[0] == 3.0
    # p >= 1 identical to the fixed-point solve
    assert prox_power_many(1.5, 0.5, [1.0])[0] == pytest.approx(PSI_15_05_1, abs=1e-12)


def test_prox_jump_threshold_both_sides():
    below = prox_power_many(0.5, 1.0, [JUMP_T_HALF - 1e-6])[0]
    above = prox_power_many(0.5, 1.0, [JUMP_T_HALF + 1e-6])[0]
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
        x = prox_power_many(float(p[i]), float(lam[i]), [float(t[i])])[0]
        fx = float(power_objective(p[i], lam[i], t[i], np.array([x]))[0])
        gvals = power_objective(p[i], lam[i], t[i], grid * t[i])
        assert fx <= float(gvals.min()) + 1e-9


def test_prox_tie_prefers_zero():
    # exactly at the tie the sparser output wins
    t = JUMP_T_HALF
    x_tie = 2.0 * t / 3.0
    lam = float((t - x_tie) * x_tie**0.5)
    assert prox_power_many(0.5, lam, [t])[0] == 0.0


def test_branch_helpers_consistency():
    p = 0.5
    t = np.array([2.0])
    lam_vanish = float(_branch_vanish_lambda(p, t)[0])
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
    vanish = _branch_vanish_lambda(p, t)
    frac = np.sort(np.concatenate([rng.uniform(0, 1.2, 400), [0.0, 1 - 1e-9, 1.0, 1 + 1e-9]]))
    lam = frac[:, None] * vanish  # each column: one t, multipliers increasing
    upper, lower = branch_roots(p, lam, t, True), branch_roots(p, lam, t, False)
    np.testing.assert_array_equal(upper[0], t)
    np.testing.assert_array_equal(lower[0], 0.0)
    live = (lam > 0) & (lam <= vanish * (1 - 1e-9))
    gone = lam >= vanish
    meet = np.broadcast_to((1.0 - p) / (2.0 - p) * t, lam.shape)
    x_arg = (lam * (1.0 - p)) ** (1.0 / (2.0 - p))
    target = np.broadcast_to(t, lam.shape)[live]
    for roots in (upper, lower):
        np.testing.assert_array_equal(roots[gone], meet[gone])
        x = roots[live]
        assert not np.any(np.isnan(roots))
        assert np.max(np.abs(x + lam[live] * x ** (p - 1.0) - target)) <= 1e-11
    below = (lam > 0) & (lam < vanish)
    assert np.all(lower[below] <= x_arg[below]) and np.all(x_arg[below] <= upper[below])
    # the p < 1 projection's certified pruning relies on this monotonicity
    assert np.max(np.diff(upper, axis=0)) <= 0
    assert np.min(np.diff(lower, axis=0)) >= 0
    # at lam = 1e-310 the lower root's lam*x**(p-1) passes double range before
    # lam scales it back; the root is below double range, not NaN
    assert 0.0 <= branch_roots(p, 1e-310, [1.0], False)[0] <= 1e-300


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
def test_branch_roots_mixed_mask_matches_one_branch_calls(p):
    # the p < 1 solver takes upper and lower roots from one call with a mixed
    # mask; each must come out bit for bit as from a call on its branch alone
    rng = np.random.default_rng(29)
    t = 10.0 ** rng.uniform(-3, 2, size=25)
    vanish = _branch_vanish_lambda(p, t)
    lam = np.concatenate([[0.0], np.geomspace(1e-6, 2.0, 30) * vanish.max()])[:, None]
    upper = rng.random((lam.size, t.size)) < 0.5
    mixed = branch_roots(p, lam, t, upper)
    alone = np.where(upper, branch_roots(p, lam, t, True), branch_roots(p, lam, t, False))
    np.testing.assert_array_equal(mixed, alone)
    live = (lam > 0) & (lam < vanish)
    assert live.any() and (lam >= vanish).any()  # roots, and meeting points held past vanish


@pytest.mark.parametrize("p", [0.05, 0.5, 0.9])
def test_branch_roots_block_matches_lone_calls(p):
    # a block broadcasts only the arguments whose shape is not its own: a
    # column of lam against a row of t with an (n, j) mask, at lam = 0, below
    # and at or past _branch_vanish_lambda; each element comes out bit for bit
    # as from a call on it alone, with a scalar lam and a 0-d t
    rng = np.random.default_rng(31)
    t = 10.0 ** rng.uniform(-3, 2, size=12)
    vanish = _branch_vanish_lambda(p, t)
    lam = np.concatenate([[0.0], rng.uniform(0, 1, 6) * vanish.min(), vanish[[2, 7]],
                          [vanish.max(), 2 * vanish.max()], rng.uniform(0, 1, 4) * vanish.max()])
    upper = rng.random((lam.size, t.size)) < 0.5
    block = branch_roots(p, lam[:, None], t, upper)
    assert block.shape == upper.shape and (lam[:, None] >= vanish).any()
    for i, j in np.ndindex(block.shape):
        lone = branch_roots(p, float(lam[i]), np.asarray(t[j]), bool(upper[i, j]))
        assert lone.shape == () and lone.tobytes() == block[i, j].tobytes(), (i, j)
    # a scalar lam against the row, and a 0-d t against the column
    np.testing.assert_array_equal(branch_roots(p, float(lam[3]), t, upper[3]), block[3])
    np.testing.assert_array_equal(
        branch_roots(p, lam[:, None], np.asarray(t[4]), upper[:, 4:5])[:, 0], block[:, 4])


@pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0, 3.0])
def test_psi_many_zero_dim_t(p):
    # a 0-d t is solved as one element and returned as a 0-d array, bit for
    # bit the one-element result (at p = 1 and 1.5 it raised TypeError)
    for lam, t in ((0.5, 2.0), (0.0, 2.0), (0.5, 0.0), (3.0, 0.1), (1e-3, 1e5)):
        got = psi_many(p, lam, t)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.tobytes() == psi_many(p, [lam], [t])[0].tobytes()


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


def test_root_stop_floor_leaves_small_magnitudes_alone(monkeypatch):
    # up to t = 100 the rounding floor is below the default tol: the roots
    # come out as with the absolute stop alone, bit for bit
    import lpseq.shrinkage as shrinkage

    rng = np.random.default_rng(21)
    t = 10.0 ** rng.uniform(-3, 2, size=400)
    upper = rng.random(400) < 0.5

    def roots(p, lam):
        return branch_roots(p, lam, t, upper) if p < 1 else psi_many(p, lam, t)

    for p in (0.5, 1.3, 2.6):
        if p < 1:
            lam = rng.random(400) * _branch_vanish_lambda(p, t)
        else:
            lam = 10.0 ** rng.uniform(-3, 1, size=400)
        got = roots(p, lam)
        with monkeypatch.context() as m:
            m.setattr(shrinkage, "ROOT_FLOOR", 0.0)
            np.testing.assert_array_equal(roots(p, lam), got)


def test_root_stops_at_rounding_floor(monkeypatch):
    # at t ~ 1e4 an absolute |f| <= 1e-12 lies below double resolution; the
    # root stops at its rounding floor instead of running all ROOT_STEPS
    import lpseq.shrinkage as shrinkage

    exps = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            exps.append(1)
            return np.exp(x)

    rng = np.random.default_rng(22)
    p, lam = 1.3, 0.7
    t = 1e4 * (1.0 + rng.random(1000))
    monkeypatch.setattr(shrinkage, "np", CountingNumpy())
    psi = psi_many(p, lam, t)
    monkeypatch.undo()
    assert len(exps) // 2 <= 10  # two exp calls per Newton step; all 60 without the floor
    floor = shrinkage.ROOT_FLOOR * np.finfo(float).eps * t * (1.0 + np.log(t))
    assert np.all(np.abs(psi + lam * psi ** (p - 1.0) - t) <= np.maximum(1e-12, floor))
