"""Reruns the golden outputs under ``tests/data/golden`` in-process.

``scripts/make_golden.py`` wrote them: two ``lpseq reproduce`` runs and
README's five ``lpseq project`` examples.  Every CSV column but ``mse_mean``
and ``mse_stderr`` must match exactly; those two, every number in
``slopes.json`` (the slopes and the anchored reference curve follow from the
means), and the projected points and multipliers must match to ``REL``
relative.  A projection's ``kkt_residual`` and, for p < 1, its
``duality_gap`` are rounding-level certificates, held to
``10 * LAMBDA_GAP_TOL`` absolute, and its ``iterations`` count is solver
work, not output, so it is not compared.
"""

import csv
import json
import math
import shlex
from pathlib import Path

import pytest

from lpseq.cli import main
from lpseq.projection import LAMBDA_GAP_TOL

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
PROJECT = json.loads((GOLDEN / "project.json").read_text())
REL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


def assert_json_close(got, want, where="slopes.json"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, float):
        assert close(got, want), (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("figure", sorted(MANIFEST["reproduce"]))
def test_reproduce_matches_golden(figure, tmp_path, capsys):
    assert main(MANIFEST["reproduce"][figure] + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    want_dir = GOLDEN / f"fig{figure}"
    with open(tmp_path / "results.csv") as got_fh, open(want_dir / "results.csv") as want_fh:
        got, want = list(csv.DictReader(got_fh)), list(csv.DictReader(want_fh))
    assert len(got) == len(want) > 0
    for got_row, want_row in zip(got, want):
        assert list(got_row) == list(want_row)
        for column, value in want_row.items():
            if column in ("mse_mean", "mse_stderr"):
                assert close(float(got_row[column]), float(value)), (column, got_row, want_row)
            else:
                assert got_row[column] == value, (column, got_row, want_row)
    assert_json_close(json.loads((tmp_path / "slopes.json").read_text()),
                      json.loads((want_dir / "slopes.json").read_text()))


def parse_lines(stdout: str) -> dict:
    return dict(line.split(": ", 1) for line in stdout.splitlines())


@pytest.mark.parametrize("example", PROJECT, ids=lambda ex: " ".join(ex["argv"][1:3]))
def test_project_example_matches_golden(example, capsys):
    readme = [shlex.split(line)[1:] for line in (ROOT / "README.md").read_text().splitlines()
              if line.startswith("lpseq project ")]
    assert example["argv"] in readme
    assert main(example["argv"]) == example["exit"]
    got, want = parse_lines(capsys.readouterr().out), parse_lines(example["stdout"])
    assert list(got) == list(want)
    got_point, want_point = got["point"].split(","), want["point"].split(",")
    assert len(got_point) == len(want_point)
    assert all(close(float(a), float(b)) for a, b in zip(got_point, want_point)), got
    assert close(float(got["multiplier"]), float(want["multiplier"])), got
    for certificate in ("kkt_residual", "duality_gap"):
        if certificate in want:
            assert abs(float(got[certificate]) - float(want[certificate])) <= 10 * LAMBDA_GAP_TOL
