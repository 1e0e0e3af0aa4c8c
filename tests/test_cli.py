import csv
import dataclasses
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from lpseq import cli, simulate
from lpseq.cli import main
from lpseq.projection import project

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(":")
        pairs[key.strip()] = value.strip()
    return pairs


def test_project_p2(capsys):
    code, out, err = run_cli(capsys, "project", "--p", "2", "--radius", "1",
                             "--input", "3,4")
    assert code == 0
    kv = parse_kv(out)
    point = np.array([float(v) for v in kv["point"].split(",")])
    np.testing.assert_allclose(point, [0.6, 0.8], atol=1e-9)
    assert "config" in err  # resolved config echoed on stderr


def test_readme_cli_lines_parse():
    # every command in README's CLI block uses flags that exist; parsed, not run
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("lpseq ")]
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(line, comments=True)[1:]).command
                for line in lines}
    assert commands == {"project", "rates", "simulate", "reproduce", "verify"}


def test_project_p0_sparsity(capsys):
    code, out, _ = run_cli(capsys, "project", "--p", "0", "--sparsity", "2",
                           "--input", "3,-1,2")
    assert code == 0
    point = np.array([float(v) for v in parse_kv(out)["point"].split(",")])
    np.testing.assert_array_equal(point, [3.0, 0.0, 2.0])


def test_project_p_inf(capsys):
    for p in ("inf", "Infinity", " INF "):
        code, out, _ = run_cli(capsys, "project", "--p", p, "--radius", "1",
                               "--input", "2,-0.5")
        assert code == 0
        point = np.array([float(v) for v in parse_kv(out)["point"].split(",")])
        np.testing.assert_array_equal(point, [1.0, -0.5])


def test_project_reads_file(tmp_path, capsys):
    path = tmp_path / "vec.txt"
    path.write_text("3\n4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "project", "--p", "2", "--input", str(path))
    assert code == 0
    point = [float(v) for v in parse_kv(out)["point"].split(",")]
    assert point == pytest.approx([0.6, 0.8], abs=1e-9)


def test_project_parse_error_exit_2(capsys):
    code, _, _ = run_cli(capsys, "project", "--p", "2", "--input", "3,abc")
    assert code == 2
    code, _, _ = run_cli(capsys, "project", "--p", "0", "--input", "1,2")
    assert code == 2  # p = 0 without --sparsity
    code, _, err = run_cli(capsys, "project", "--p", "0.5", "--radius", "1e-300",
                           "--input", "1e10,1")
    assert code == 2 and "overflows" in err  # max|y|/r leaves double range
    code, out, err = run_cli(capsys, "project", "--p", "1.5", "--input", " ")
    assert code == 2 and out == "" and "empty input vector" in err


@pytest.mark.parametrize("argv", [
    ["project", "--p", "1.5", "--sparsity", "2", "--input", "1,2"],
    ["project", "--p", "0", "--sparsity", "1", "--radius", "5", "--input", "1,2"],
    ["project", "--p", "inf", "--sparsity", "2", "--input", "1,2"],
    ["rates", "--p", "1.5", "--d", "100", "--sigma", "0.1", "--sparsity", "3"],
    ["rates", "--p", "1.5", "--d", "100", "--n", "1", "--tau", "0.3", "--sigma", "0.1"],
    ["rates", "--p", "0", "--d", "100", "--sigma", "0.1", "--sparsity", "3", "--radius", "5"],
])
def test_contradictory_flags_exit_2(capsys, argv):
    # each of these used to exit 0 and ignore a flag
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "[lpseq] error:" in err


@pytest.mark.parametrize("argv, echoed", [
    (["project", "--p", "1.5", "--input", "3,4"],
     {"p": 1.5, "dim": 2, "radius": 1.0, "sparsity": None}),
    (["project", "--p", "inf", "--radius", "2", "--input", "3,4,5"],
     {"p": math.inf, "dim": 3, "radius": 2.0, "sparsity": None}),
    (["project", "--p", "0", "--sparsity", "1", "--input", "3,4"],
     {"p": 0.0, "dim": 2, "radius": None, "sparsity": 1}),
    (["rates", "--p", "1.5", "--d", "100", "--n", "4", "--tau", "0.2"],
     {"p": 1.5, "d": 100, "sigma": None, "radius": 1.0, "sparsity": None, "n": 4, "tau": 0.2}),
    (["rates", "--p", "0", "--d", "100", "--sigma", "0.1", "--sparsity", "3"],
     {"p": 0.0, "d": 100, "sigma": 0.1, "radius": None, "sparsity": 3, "n": 1, "tau": None}),
])
def test_echo_is_the_object_built(capsys, argv, echoed):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    line = next(line for line in err.splitlines() if " config: " in line)
    assert json.loads(line.split(" config: ", 1)[1]) == echoed


def test_project_gap_reported_for_quasinorm(capsys):
    code, out, _ = run_cli(capsys, "project", "--p", "0.5", "--input", "2,1")
    assert code == 0
    assert "duality_gap" in parse_kv(out)


def test_project_quasinorm_huge_radius_certified(capsys):
    # the enumeration's certificate is 0 at any radius; the multiplier, in
    # units of r**(2-p), passes double range and prints as inf
    code, out, _ = run_cli(capsys, "project", "--p", "0.5", "--radius", "1e300",
                           "--input", "3e300,4e300")
    assert code == 0
    kv = parse_kv(out)
    assert kv["duality_gap"] == "0.0"
    assert kv["multiplier"] == "inf"
    assert kv["point"] == "0.0,1e+300"


def test_unknown_flag_is_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--p", "2", "--input", "1,2", "--bogus"])
    assert exc.value.code == 2


def test_rates_examples(capsys):
    code, out, _ = run_cli(capsys, "rates", "--p", "3", "--d", "100",
                           "--sigma", "0.1")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["control_value"]) == pytest.approx(1.0)
    assert kv["label"] == "optimal_thm2.1(i)"

    code, out, _ = run_cli(capsys, "rates", "--p", "0.5", "--d", "10000",
                           "--sigma", "0.05")
    assert parse_kv(out)["label"] == "optimal_thm2.1(ii)"

    code, out, _ = run_cli(capsys, "rates", "--p", "1.5", "--d", "10000",
                           "--sigma", "0.02")
    assert parse_kv(out)["label"] == "suboptimal_thm2.2"


def test_rates_invalid_exit_2(capsys):
    code, _, _ = run_cli(capsys, "rates", "--p", "1.5", "--d", "0", "--sigma", "0.1")
    assert code == 2


def test_rates_radius_must_be_finite(capsys):
    code, out, err = run_cli(capsys, "rates", "--p", "1.5", "--d", "100", "--sigma", "0.1",
                             "--radius", "inf")
    assert code == 2
    assert out == ""
    assert "radius must be positive and finite" in err


def test_verify_suite_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "monotone", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "monotone", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "PASS" in out1


def test_verify_reports_suite_time(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "kkt")
    assert code == 0
    assert re.search(r"^\[lpseq\] suite kkt: \d+\.\d+ s$", err, re.MULTILINE)
    assert "suite kkt" not in out  # stdout stays the report lines


def test_reproduce_smoke(tmp_path, capsys):
    out_dir = tmp_path / "fig"
    code, out, err = run_cli(capsys, "reproduce",
                             "--figure", "2a", "--max-d", "100", "--reps", "1",
                             "--seed", "3", "--out", str(out_dir))
    assert code == 0
    rows = list(csv.DictReader((out_dir / "results.csv").open()))
    assert len(rows) == 2  # one d, two estimators
    assert {r["estimator"] for r in rows} == {"mle", "soft_threshold"}
    slopes = json.loads((out_dir / "slopes.json").read_text())
    assert "minimax_anchor" in slopes
    spec = json.loads((out_dir / "plot_spec.json").read_text())
    assert spec["data"] == "results.csv"
    assert not (out_dir / "cursor.json").exists()
    assert json.loads(out.strip())["slopes"] is not None
    # each cell reports its solver health on stderr
    done = [line for line in err.splitlines() if "cell done" in line]
    assert len(done) == 2 and "est=mle kkt_max=" in done[0] and "iterations_max=" in done[0]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_reproduce_seed_out_of_range_exit_2(tmp_path, capsys, seed):
    out_dir = tmp_path / "fig"
    code, out, err = run_cli(capsys, "reproduce", "--figure", "2a", "--max-d", "100",
                             "--reps", "1", "--seed", seed, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert "seed must be an integer in [0, 2**64)" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_seed_out_of_range_exit_2(capsys, seed):
    code, out, err = run_cli(capsys, "verify", "--suite", "kkt", "--seed", seed)
    assert code == 2
    assert out == ""
    assert "seed must be an integer in [0, 2**64)" in err


def test_reproduce_resumes_from_cursor(tmp_path, capsys):
    out_dir = tmp_path / "fig"
    run_cli(capsys, "reproduce", "--figure", "2b",
            "--max-d", "160", "--reps", "2", "--seed", "5", "--out", str(out_dir))
    first = (out_dir / "results.csv").read_text()
    # rerun with identical flags: same output
    run_cli(capsys, "reproduce", "--figure", "2b",
            "--max-d", "160", "--reps", "2", "--seed", "5", "--out", str(out_dir))
    assert (out_dir / "results.csv").read_text() == first


def test_reproduce_over_another_configs_cursor_starts_over(tmp_path, capsys):
    flags = ["reproduce", "--figure", "2a", "--max-d", "100", "--reps", "2", "--seed", "3"]
    clean, reused = tmp_path / "clean", tmp_path / "reused"
    assert run_cli(capsys, *flags, "--out", str(clean))[0] == 0
    reused.mkdir()
    foreign = {"cell": {"mse_mean": 9.0, "mse_stderr": 0.0, "reps": 2, "d": 7, "sigma": 1.0,
                        "p": 1.5, "estimator": "zero", "seed": 0}}
    (reused / "cursor.json").write_text(json.dumps({"fingerprint": "other", "cells": foreign}),
                                        encoding="utf-8")
    code, _, err = run_cli(capsys, *flags, "--out", str(reused))
    assert code == 0 and "cursor belongs to a different config; starting over" in err
    assert (reused / "results.csv").read_bytes() == (clean / "results.csv").read_bytes()
    assert not (reused / "cursor.json").exists()


def test_project_solver_diagnostic_exit_3(capsys, monkeypatch):
    # exit 3 exactly when the KKT residual exceeds 10 * LAMBDA_GAP_TOL = 1e-9
    for kkt, expected in ((1e-9, 0), (1e-6, 3)):
        monkeypatch.setattr(cli, "project", lambda ball, y: dataclasses.replace(
            project(ball, y), kkt_residual=kkt))
        code, out, err = run_cli(capsys, "project", "--p", "2", "--input", "3,4")
        assert code == expected
        point = [float(v) for v in parse_kv(out)["point"].split(",")]  # printed either way
        np.testing.assert_allclose(point, [0.6, 0.8], atol=1e-9)
        assert ("diagnostic" in err) == (expected == 3)


def test_project_near_one_flushed_zero_exit_0(capsys):
    for extra in (["--input", "2,1,0.5"], ["--radius", "3", "--input", "6,3,1.5"]):
        code, out, _ = run_cli(capsys, "project", "--p", "1.000001", *extra)
        assert code == 0
        assert float(parse_kv(out)["kkt_residual"]) <= 1e-9


@pytest.mark.parametrize("argv, expected", [
    (["--p", "2", "--input", "30000,40000"], [0.6, 0.8]),
    (["--p", "2.5", "--radius", "1e150", "--input", "3e150,4e150"],
     [6.744927412036669e149, 8.293388899537692e149]),
    (["--p", "2.5", "--input", "1e200,1e200"], [0.757858283255199] * 2),
    (["--p", "1.5", "--input", "1e300,-1e300"], [2 ** (-2 / 3), -(2 ** (-2 / 3))]),
    (["--p", "3", "--input", "1e300,1e300"], [2 ** (-1 / 3)] * 2),
])
def test_project_extreme_scales_exit_0(capsys, argv, expected):
    # in-process, numpy warnings would never reach the captured stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "project", *argv)
    kv = parse_kv(out)
    assert code == 0
    assert float(kv["kkt_residual"]) <= 1e-9
    assert int(kv["iterations"]) <= 5
    point = [float(v) for v in kv["point"].split(",")]
    assert point == pytest.approx(expected, rel=1e-9)


def test_reproduce_partial_exit_4_then_resume(tmp_path, capsys, monkeypatch):
    import lpseq.simulate as sim

    out_dir = tmp_path / "fig"
    real = sim.estimate_risk
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("synthetic cell failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "estimate_risk", flaky)
    code, _, err = run_cli(capsys, "reproduce", "--figure", "2a",
                           "--max-d", "160", "--reps", "1", "--seed", "1",
                           "--out", str(out_dir))
    assert code == 4
    assert (out_dir / "cursor.json").exists()
    monkeypatch.setattr(sim, "estimate_risk", real)
    code, _, _ = run_cli(capsys, "reproduce", "--figure", "2a",
                         "--max-d", "160", "--reps", "1", "--seed", "1",
                         "--out", str(out_dir))
    assert code == 0
    rows = list(csv.DictReader((out_dir / "results.csv").open()))
    assert len(rows) == 4  # two dims x two estimators, completed after resume
    assert not (out_dir / "cursor.json").exists()


def test_reproduce_resumed_matches_clean_run(tmp_path, capsys, monkeypatch):
    import lpseq.simulate as sim

    flags = ["reproduce", "--figure", "2a", "--max-d", "300", "--reps", "2",
             "--seed", "4"]
    clean, resumed = tmp_path / "clean", tmp_path / "resumed"
    assert run_cli(capsys, *flags, "--out", str(clean))[0] == 0

    real = sim.estimate_risk
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:
            raise RuntimeError("synthetic cell failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "estimate_risk", flaky)
    assert run_cli(capsys, *flags, "--out", str(resumed))[0] == 4
    monkeypatch.setattr(sim, "estimate_risk", real)
    assert run_cli(capsys, *flags, "--out", str(resumed))[0] == 0
    for name in ("results.csv", "slopes.json", "plot_spec.json"):
        assert (resumed / name).read_bytes() == (clean / name).read_bytes()


def test_simulate_from_config(tmp_path, capsys):
    cfg = {
        "regime": "custom",
        "p": 1.5,
        "d_grid": [10, 20],
        "sigma_rule": [0.5, 0.4],
        "reps": 2,
        "estimators": ["zero"],
        "seed": 9,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2

    # --out writes the same bytes, creating the directories it names
    csv_out = tmp_path / "new" / "dir" / "out.csv"
    code, written, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(csv_out))
    assert code == 0 and written == ""
    assert csv_out.read_bytes() == out.encode("utf-8")
    assert f"[lpseq] wrote {csv_out}" in err

    cfg["mystery"] = 1
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "mystery" in err

    # rejected before any cell runs: no CSV, and a parse error, not exit 1
    del cfg["mystery"]
    cfg.update(p=2.5, estimators=["mle", "soft_threshold"])
    path.write_text(json.dumps(cfg), encoding="utf-8")
    csv_out = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(csv_out))
    assert code == 2
    assert "soft_threshold" in err
    assert not csv_out.exists()


def test_simulate_past_double_range_and_default_grid(tmp_path, capsys):
    # at radius 1e200, sigma/r = 1e-201: sparsity_scaling raised ZeroDivisionError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"regime": "fig2b", "p": 1.5, "sigma_rule": "flat",
                                "radius": 1e200, "d_grid": [100], "reps": 2}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [row["estimator"] for row in rows] == ["mle", "soft_threshold"]
    assert all(math.isfinite(float(row["mse_mean"])) for row in rows)
    # "d_grid": null runs the default grid
    path.write_text(json.dumps({"regime": "fig2a", "p": 1.5, "sigma_rule": "spike",
                                "d_grid": None, "reps": 1, "estimators": ["zero"]}),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    grid = [int(row["d"]) for row in csv.DictReader(out.splitlines())]
    assert tuple(grid) == simulate.default_d_grid()


@pytest.mark.parametrize("change", [
    {"p": 0},
    {"p": "1.5"},
    {"d_grid": 20},
    {"sigma_rule": 0.5},
    {"d_grid": [0, 20]},
    {"d_grid": [10.5, 20]},
    {"reps": 2.5},
    {"seed": 1.5},
    {"regime": "fig2b", "sigma_rule": "flat", "d_grid": [1, 20]},
    {"output": "out.csv"},  # the CSV path is the --out option, not a config key
    {"radius": math.inf},
    {"sigma_rule": [0.5, math.inf]},
    {"sigma_rule": [0.5, 0.0]},
    {"estimators": []},
    {"estimators": ["zero", "zero"]},  # two cells with one id
    {"seed": -1},  # the Philox key takes seeds mod 2**64: -1 would draw as 2**64 - 1
    {"seed": 2**64},
])
def test_simulate_malformed_config_exit_2(tmp_path, monkeypatch, capsys, change):
    monkeypatch.chdir(tmp_path)
    cfg = {"regime": "custom", "p": 1.5, "d_grid": [10, 20], "sigma_rule": [0.5, 0.4],
           "reps": 2, "estimators": ["zero"], "seed": 9}
    cfg.update(change)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "config error" in err
