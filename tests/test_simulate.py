import dataclasses
import json
import math

import numpy as np
import pytest

from lpseq.errors import InvalidParameterError
from lpseq.estimators import EstimatorSpec
from lpseq.instances import spike_instance
from lpseq.projection import LpBall, project
from lpseq.simulate import (
    ExperimentConfig,
    TrialKey,
    cell_id_for,
    default_d_grid,
    estimate_risk,
    fit_log_slope,
    rows_to_csv,
    run_experiment,
    sample_observation,
    summarize_figure,
)


def small_config(**kw):
    base = dict(regime="fig2a", p=1.5, d_grid=(10, 25), reps=3,
                estimators=("zero", "identity"), seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


def cell_ids(cfg):
    return [cell_id_for(cfg, d, k) for d in cfg.d_grid for k in cfg.estimators]


def test_default_grid_formula():
    grid = default_d_grid(max_d=10_000)
    assert grid[0] == 100
    assert grid == tuple(int(math.floor(10 ** (2 + 8 * k / 39))) for k in range(len(grid)))
    assert grid[-1] <= 10_000 < int(math.floor(10 ** (2 + 8 * len(grid) / 39)))
    assert default_d_grid(count=3) == grid[:3]


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        small_config(regime="fig3")
    with pytest.raises(InvalidParameterError):
        small_config(reps=0)
    with pytest.raises(InvalidParameterError):
        small_config(d_grid=(10, 10))
    with pytest.raises(InvalidParameterError):
        small_config(estimators=("mle", "bogus"))
    with pytest.raises(InvalidParameterError):
        small_config(sigma_rule="weird")
    with pytest.raises(InvalidParameterError):
        small_config(sigma_rule=(0.1,))  # misaligned with d_grid
    with pytest.raises(InvalidParameterError):
        small_config(regime="custom")  # custom needs explicit sigmas
    for p in (2.5, 2.0, 0.0):  # the threshold level is defined for p in (0, 2)
        with pytest.raises(InvalidParameterError, match="soft_threshold"):
            small_config(p=p, estimators=("mle", "soft_threshold"))
    assert small_config(p=2.5, estimators=("mle",)).p == 2.5


def test_config_json_round_trip(tmp_path):
    cfg = small_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    again = ExperimentConfig.from_json(path)
    assert again == cfg


def test_config_rejects_unknown_keys(tmp_path):
    payload = small_config().to_dict()
    payload["unknown_knob"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(InvalidParameterError, match="unknown_knob"):
        ExperimentConfig.from_json(path)


def test_sigma_rules():
    cfg = small_config(sigma_rule="spike")
    assert cfg.sigma_for(10) == pytest.approx(10 ** (1 / 1.5 - 1))
    cfg = small_config(sigma_rule="flat", regime="fig2b")
    assert cfg.sigma_for(25) == pytest.approx(25**-0.5)
    cfg = small_config(regime="custom", sigma_rule=(0.3, 0.4))
    assert cfg.sigma_for(25) == 0.4


def test_sample_observation_limits():
    theta = spike_instance(50)
    key = TrialKey(0, "cell", 0)
    y = sample_observation(theta, 1e-12, key)
    assert np.max(np.abs(y - theta)) <= 1e-10
    # unbiasedness and variance calibration
    draws = np.stack([
        sample_observation(theta, 1.0, TrialKey(0, "calib", t)) for t in range(10_000)
    ])
    centered = draws - theta
    stderr = 1.0 / math.sqrt(10_000)
    assert np.max(np.abs(centered.mean(axis=0))) <= 4 * stderr
    var = centered.var()
    assert abs(var - 1.0) <= 0.05


def test_observation_reproducible_and_distinct():
    theta = np.zeros(8)
    a = sample_observation(theta, 1.0, TrialKey(7, "c", 3))
    b = sample_observation(theta, 1.0, TrialKey(7, "c", 3))
    np.testing.assert_array_equal(a, b)
    c = sample_observation(theta, 1.0, TrialKey(7, "c", 4))
    assert not np.array_equal(a, c)
    d = sample_observation(theta, 1.0, TrialKey(8, "c", 3))
    assert not np.array_equal(a, d)


def test_estimate_risk_zero_estimator_exact():
    theta = spike_instance(10)
    out = estimate_risk(EstimatorSpec(kind="zero"), theta, 0.5, 5, seed=1)
    assert out.mse_mean == 1.0
    assert out.mse_stderr == 0.0
    assert out.reps == 5


def test_estimate_risk_identity_chi_square():
    d, sigma, reps = 60, 0.7, 400
    theta = spike_instance(d)
    out = estimate_risk(EstimatorSpec(kind="identity"), theta, sigma, reps, seed=2)
    assert abs(out.mse_mean - sigma**2 * d) <= 4 * out.mse_stderr


def test_run_experiment_row_layout():
    cfg = small_config()
    result = run_experiment(cfg)
    assert len(result.rows) == len(cfg.d_grid) * len(cfg.estimators)
    assert sorted(result.control) == sorted(cfg.d_grid)
    kinds = [r.estimator for r in result.rows]
    assert kinds == ["zero", "identity", "zero", "identity"]


def test_csv_deterministic_and_order_invariant():
    cfg = small_config(estimators=("zero", "identity", "soft_threshold"))
    full = run_experiment(cfg)
    a = rows_to_csv(full)
    # resuming from every other row gives the same CSV, in cell order
    ids = cell_ids(cfg)
    subset = dict(list(zip(ids, full.rows))[1::2])
    b = rows_to_csv(run_experiment(cfg, completed=subset))
    assert a == b
    header = a.splitlines()[0]
    assert header == ("experiment_id,regime,p,d,sigma,estimator,reps,"
                      "mse_mean,mse_stderr,seed")


def test_run_experiment_resume_skips_completed(monkeypatch):
    import lpseq.simulate as sim

    cfg = small_config()
    full = run_experiment(cfg)
    ids = cell_ids(cfg)

    def no_cell(*args, **kwargs):
        raise AssertionError("a completed cell was rerun")

    monkeypatch.setattr(sim, "estimate_risk", no_cell)
    seen = []
    resumed = run_experiment(cfg, completed=dict(zip(ids, full.rows)),
                             on_cell_done=lambda cid, row: seen.append(cid))
    assert resumed.rows == full.rows
    assert seen == []


def test_run_experiment_resumed_csv_is_complete(tmp_path):
    cfg = small_config()
    full = run_experiment(dataclasses.replace(cfg, output=str(tmp_path / "full.csv")))
    ids = cell_ids(cfg)
    half = dict(list(zip(ids, full.rows))[:2])
    seen = []
    run_experiment(dataclasses.replace(cfg, output=str(tmp_path / "resumed.csv")),
                   completed=half, on_cell_done=lambda cid, row: seen.append(cid))
    assert seen == ids[2:]
    assert (tmp_path / "resumed.csv").read_text() == (tmp_path / "full.csv").read_text()


def test_run_experiment_threads_must_be_one():
    with pytest.raises(InvalidParameterError, match="threads"):
        run_experiment(small_config(), threads=2)


def test_reps_one_smoke():
    cfg = small_config(reps=1, d_grid=(100,), estimators=("zero",))
    result = run_experiment(cfg)
    assert len(result.rows) == 1
    assert result.rows[0].mse_stderr == 0.0


def test_pathwise_risk_monotonicity():
    # same noise path, growing amplitude: projection error never shrinks
    rng = np.random.default_rng(3)
    for p in (1.0, 1.5, 2.0, math.inf):
        ball = LpBall(p=p, dim=20, radius=1.0)
        theta = spike_instance(20)
        for _ in range(5):
            xi = rng.standard_normal(20)
            errs = [np.linalg.norm(project(ball, theta + s * xi).point - theta)
                    for s in (0.1, 0.4, 1.0, 3.0)]
            assert all(b >= a - 1e-7 for a, b in zip(errs, errs[1:]))


def test_fit_log_slope():
    ds = np.array([100, 300, 1000, 5000])
    assert fit_log_slope(list(zip(ds, ds**-0.5))) == pytest.approx(-0.5, abs=1e-12)
    assert fit_log_slope([(10, 2.0), (100, 2.0)]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        fit_log_slope([(10, 1.0)])
    with pytest.raises(InvalidParameterError):
        fit_log_slope([(10, 1.0), (20, -1.0)])
    with pytest.raises(InvalidParameterError):
        fit_log_slope([(10, 1.0), (10, 2.0)])


def test_summary_anchor_and_slopes():
    cfg = small_config(estimators=("mle", "zero"), d_grid=(10, 25, 60), reps=4)
    result = run_experiment(cfg)
    summary = summarize_figure(result)
    assert "mle" in summary["slopes"]
    assert "minimax_reference" in summary["slopes"]
    d0 = min(cfg.d_grid)
    mle0 = next(r.mse_mean for r in result.rows if r.estimator == "mle" and r.d == d0)
    assert summary["minimax_anchor"] == pytest.approx(mle0 / result.control[d0])
