import csv
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from lpseq.errors import InvalidParameterError
from lpseq.rates import (
    C_LOWER,
    C_UPPER,
    RateQuery,
    RegimeLabel,
    classify_regime,
    control_function,
    example_scalings,
    _unit_control,
    p_threshold,
    rate_bounds,
)


def test_control_examples():
    # p >= 2: min of the two envelopes
    assert control_function(RateQuery(p=3.0, d=100, sigma=0.1)) == pytest.approx(1.0)
    # third branch: sigma below d**(-1/p)
    assert control_function(RateQuery(p=1.5, d=10**4, sigma=1e-4)) == pytest.approx(1e-4)
    # first branch: saturated at the squared radius
    q = RateQuery(p=1.5, d=50, sigma=1.0)
    assert control_function(q) == pytest.approx(1.0)
    # p = 0 at full sparsity: log(e d / d) = 1
    assert control_function(RateQuery(p=0.0, d=30, sigma=0.2, sparsity=30)) == \
        pytest.approx(0.04 * 30)


def test_control_middle_branch_formula():
    p, d, sigma = 1.5, 10**4, 0.02
    expected = (sigma**2 * math.log(math.e * d * sigma**p)) ** (1 - p / 2)
    assert control_function(RateQuery(p=p, d=d, sigma=sigma)) == pytest.approx(expected)


def test_rate_bounds_constants():
    lower, upper, certified = rate_bounds(RateQuery(p=1.5, d=50, sigma=1.0))
    assert lower == pytest.approx(1.0 / 868.0)
    assert upper == pytest.approx(6.0)
    assert certified
    assert C_LOWER == pytest.approx(1 / 868) and C_UPPER == 6.0


def test_rate_bounds_positive_and_scaling():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = float(rng.uniform(0.2, 4.0))
        d = int(rng.integers(1, 10**5))
        sigma = float(10.0 ** rng.uniform(-5, 1))
        q = RateQuery(p=p, d=d, sigma=sigma)
        m = control_function(q)
        assert m > 0
        lo, hi, _ = rate_bounds(q)
        assert 0 < lo <= hi
    # radius scaling is exact: bounds scale by r**2
    base = RateQuery(p=1.5, d=100, sigma=0.05)
    scaled = RateQuery(p=1.5, d=100, sigma=0.05 * 3.0, radius=3.0)
    assert control_function(scaled) == pytest.approx(9.0 * control_function(base))


def test_rate_bounds_one_sided_below_p1():
    _, _, certified = rate_bounds(RateQuery(p=0.5, d=100, sigma=0.1))
    assert not certified
    _, _, certified = rate_bounds(RateQuery(p=0.0, d=100, sigma=0.1, sparsity=5))
    assert not certified


def test_rescaling_identity_exact():
    rng = np.random.default_rng(1)
    for _ in range(40):
        p = float(rng.uniform(0.2, 4.0))
        d = int(rng.integers(2, 10**4))
        sigma = float(10.0 ** rng.uniform(-4, 0.5))
        r = float(10.0 ** rng.uniform(-1, 1))
        big = control_function(RateQuery(p=p, d=d, sigma=sigma, radius=r))
        unit = control_function(RateQuery(p=p, d=d, sigma=sigma / r, radius=1.0))
        assert big == r * r * unit  # exact float identity by construction


def _log_control(p, d, sigma, r):
    """log of the control function at p > 0, in logs throughout, thresholds included."""
    log_u, log_d = math.log(sigma) - math.log(r), math.log(d)
    if p >= 2:
        return min(2 * math.log(r) + (1 - 2 / p) * log_d, 2 * math.log(sigma) + log_d)
    if 2 * log_u >= -math.log1p(log_d):
        return 2 * math.log(r)
    if p * log_u <= -log_d:
        return 2 * math.log(sigma) + log_d
    return (p * math.log(r) + (2 - p) * math.log(sigma)
            + (1 - p / 2) * math.log(1 + log_d + p * log_u))


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_rate_bounds_scale_free(p):
    # sigma and r from 1e-300 to 1e300: no bound is nan (r*r overflowing
    # against (sigma/r)**2 underflowing gave inf*0), each matches the formula
    # evaluated in logs, past double range is inf, and wherever the
    # unit-ball rescaling r*r*m(sigma/r) stays normal it is the value bit for bit
    scales = [10.0**k for k in range(-300, 301, 20)]
    for d in (2, 100, 7017):
        for sigma in scales:
            for r in scales:
                q = RateQuery(p=p, d=d, sigma=sigma, radius=r)
                m, (lower, upper, _) = control_function(q), rate_bounds(q)
                assert not (math.isnan(m) or math.isnan(lower) or math.isnan(upper))
                log_m = _log_control(p, d, sigma, r)
                if log_m > math.log(sys.float_info.max):
                    assert m == upper == math.inf
                elif log_m > math.log(sys.float_info.min):
                    assert m == pytest.approx(math.exp(log_m), rel=1e-12)
                    assert (lower, upper) == (C_LOWER * m, C_UPPER * m) or p < 1
                else:
                    assert 0.0 <= m < 1.01 * sys.float_info.min
                u = sigma / r
                rescaled = r * r * _unit_control(p, d, u)
                if u * u >= sys.float_info.min and sys.float_info.min <= rescaled < math.inf:
                    assert m == rescaled
    # the reported case: sigma**2 * d = 1 at radius 1e200
    assert rate_bounds(RateQuery(p=1.5, d=100, sigma=0.1, radius=1e200)) == pytest.approx(
        (C_LOWER, C_UPPER, True), rel=1e-15)


def test_n_sample_identity_exact():
    for n in (2, 5, 17):
        tau = 0.8
        a = control_function(RateQuery(p=1.5, d=200, n=n, tau=tau))
        b = control_function(RateQuery(p=1.5, d=200, sigma=tau / math.sqrt(n)))
        assert a == b


def test_monotone_in_sigma():
    sigmas = np.geomspace(1e-5, 10.0, 400)
    for p in (0.5, 1.5, 3.0):
        vals = [control_function(RateQuery(p=p, d=500, sigma=float(s))) for s in sigmas]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_branch_continuity_within_factor_four():
    # straddle both interior branch boundaries of the p < 2 control function
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = float(rng.uniform(0.3, 1.9))
        d = int(rng.integers(10, 10**5))
        for s2 in (1.0 / (1.0 + math.log(d)), d ** (-2.0 / p)):
            lo = control_function(RateQuery(p=p, d=d, sigma=math.sqrt(s2) * 0.999))
            hi = control_function(RateQuery(p=p, d=d, sigma=math.sqrt(s2) * 1.001))
            ratio = hi / lo
            assert 1.0 / 4.0 <= ratio <= 4.0


def test_query_validation():
    with pytest.raises(InvalidParameterError):
        RateQuery(p=1.5, d=0, sigma=0.1)
    with pytest.raises(InvalidParameterError):
        RateQuery(p=1.5, d=10)  # no sigma
    with pytest.raises(InvalidParameterError):
        RateQuery(p=1.5, d=10, n=3)  # n > 1 needs tau
    with pytest.raises(InvalidParameterError):
        RateQuery(p=0.0, d=10, sigma=0.1)  # p = 0 needs sparsity
    with pytest.raises(InvalidParameterError):
        RateQuery(p=1.5, d=10, sigma=0.1, radius=0.0)
    # each noise, sparsity and radius where it is used, and nowhere else:
    # these were silently ignored
    for kwargs in (dict(d=10, sigma=0.1, tau=0.3), dict(d=10, n=3, tau=0.3, sigma=0.1),
                   dict(d=10, sigma=0.1, sparsity=3), dict(p=math.inf, d=10, sigma=0.1, sparsity=3),
                   dict(d=10, sigma=0.1, radius=math.inf), dict(p=0.0, d=10, sigma=0.1, sparsity=11)):
        with pytest.raises(InvalidParameterError):
            RateQuery(**{"p": 1.5, **kwargs})
    # d, n and sparsity are counts: a float or a bool is refused, as LpBall
    # refuses them; d = 2.5 used to give a control value and a regime label
    for kwargs in (dict(d=2.5, sigma=0.1), dict(d=True, sigma=0.1), dict(d=10.0, sigma=0.1),
                   dict(d=10, n=2.5, tau=0.3), dict(d=10, n=True, sigma=0.1),
                   dict(p=0.0, d=10, sigma=0.1, sparsity=2.0)):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            RateQuery(**{"p": 1.5, **kwargs})
    # numpy integers pass
    numpy_counts = RateQuery(p=0.0, d=np.int64(10), sigma=0.1, sparsity=np.int32(2), n=np.int64(1))
    assert control_function(numpy_counts) == control_function(RateQuery(p=0.0, d=10, sigma=0.1,
                                                                         sparsity=2))


def test_classifier_examples():
    assert classify_regime(RateQuery(p=3.0, d=100, sigma=0.1)).label == \
        RegimeLabel.OPTIMAL_HIGH_P
    assert classify_regime(RateQuery(p=0.5, d=10**4, sigma=0.05)).label == \
        RegimeLabel.OPTIMAL_NEAR_ONE
    rep = classify_regime(RateQuery(p=1.5, d=10**4, sigma=0.02))
    assert rep.label == RegimeLabel.SUBOPTIMAL
    # 0.02 lies in (d**(-2/3), d**(-1/3)) but below 1/(sqrt(3) d**(1/3))
    assert rep.subinterval == "sigma2"
    assert rep.label.value == "suboptimal_thm2.2"


def test_classifier_subinterval_one():
    # noise just below the upper endpoint lands in the spike band
    d = 10**4
    rep = classify_regime(RateQuery(p=1.5, d=d, sigma=0.2))
    assert rep.label == RegimeLabel.SUBOPTIMAL
    assert rep.subinterval == "sigma1"


def test_classifier_band_splits_into_the_two_subintervals():
    # sigma1 = (d**(-1/q)/sqrt(q), sig_hi) overlaps sigma2 = (sig_lo, d**(-1/q))
    # and takes precedence; every band point lies in one of the two
    d, p = 10**4, 1.5
    start = 1.0 / (math.sqrt(3.0) * d ** (1.0 / 3.0))
    for sigma, sub in ((start, "sigma2"), (math.nextafter(start, 1.0), "sigma1"),
                       (d ** (-1.0 / 3.0), "sigma1")):
        assert classify_regime(RateQuery(p=p, d=d, sigma=sigma)).subinterval == sub
    for p in np.linspace(1.2, 1.95, 7):
        for sigma in np.geomspace(1e-6, 1.0, 200):
            rep = classify_regime(RateQuery(p=float(p), d=d, sigma=float(sigma)))
            assert (rep.subinterval != "none") == (rep.label == RegimeLabel.SUBOPTIMAL)


def test_classifier_extreme_noise_and_sparse():
    d = 10**4
    assert classify_regime(RateQuery(p=1.5, d=d, sigma=1e-4)).label == \
        RegimeLabel.OPTIMAL_EXTREME_NOISE
    assert classify_regime(RateQuery(p=1.5, d=d, sigma=5.0)).label == \
        RegimeLabel.OPTIMAL_EXTREME_NOISE
    assert classify_regime(RateQuery(p=0.0, d=d, sigma=0.1, sparsity=7)).label == \
        RegimeLabel.OPTIMAL_SPARSE


def test_classifier_boundary_points():
    d = 1000
    assert classify_regime(RateQuery(p=2.0, d=d, sigma=0.3)).label == \
        RegimeLabel.BOUNDARY
    assert classify_regime(RateQuery(p=p_threshold(d), d=d, sigma=0.3)).label == \
        RegimeLabel.BOUNDARY
    sig_lo = d ** (-1.0 / 1.5)
    assert classify_regime(RateQuery(p=1.5, d=d, sigma=sig_lo)).label == \
        RegimeLabel.BOUNDARY


def test_classifier_bounds_ordering():
    rep = classify_regime(RateQuery(p=1.5, d=100, sigma=0.1))
    assert rep.lower_bound <= rep.upper_bound
    assert rep.p_threshold == pytest.approx(1.0 + 1.0 / (1.0 + math.log(100)))


def test_example_scalings_formulas():
    ex = example_scalings("log_subopt", 1000)
    assert ex.p == 1.5
    assert ex.d == pytest.approx(1000 ** 0.75 * math.log(1000))
    assert ex.predicted_minimax == pytest.approx(
        math.sqrt((math.log(math.log(1000)) / 1000) ** 0.5))

    ex = example_scalings("poly_subopt", 400)
    assert ex.d == pytest.approx(math.exp(20.0))
    assert ex.predicted_mle_risk == 1.0
    # the optimality gap grows like n**((1-delta)/4)
    assert ex.predicted_ratio == pytest.approx(400 ** 0.125)

    with pytest.raises(InvalidParameterError):
        example_scalings("other", 100)
    with pytest.raises(InvalidParameterError):
        example_scalings("log_subopt", 100, delta=1.5)
    for n in (2, 3.5, True):  # 3.5 used to pass
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            example_scalings("log_subopt", n)
    # exp(sqrt(n)) passes double range: math.exp raised OverflowError
    assert example_scalings("poly_subopt", 10**6).d == math.inf
    # an n past double range: n ** (p/2) and sqrt(n) raised OverflowError
    n, log_n = 10**400, 400 * math.log(10)
    ex = example_scalings("log_subopt", n)
    assert ex.d == pytest.approx(1e300 * log_n, rel=1e-12)
    assert ex.predicted_minimax == pytest.approx(
        math.exp(0.25 * (math.log(math.log(log_n)) - log_n)), rel=1e-12)
    assert ex.predicted_mle_risk == pytest.approx(log_n ** (1 / 3) * 1e-100, rel=1e-12)
    ex = example_scalings("poly_subopt", n)
    assert ex.d == math.inf and ex.predicted_mle_risk == 1.0
    assert ex.predicted_minimax == pytest.approx(1e-50, rel=1e-12)


def test_regime_map_script_smoke(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "regime_map.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--d", "100", "--p-grid", "4",
                                      "--sigma-grid", "3"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["p", "sigma", "control_value", "lower_bound", "upper_bound",
                       "label", "subinterval"]
    assert len(rows) == 1 + 4 * 3
    assert {row[5] for row in rows[1:]} <= {label.value for label in RegimeLabel}
