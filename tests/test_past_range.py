"""A result past double range is inf: no ``OverflowError`` or ``ZeroDivisionError`` escapes.

Python's float powers and ``math`` functions raise where IEEE arithmetic
gives inf.  ``errors.inf_past_range`` is the package's one rule for that;
``instances.sparsity_scaling`` keeps its own handler, because its fallback
is 0 or inf as sigma sets.  The sweep reaches the small-p powers, and the
AST check keeps the rule in those two places.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from lpseq.errors import inf_past_range
from lpseq.instances import flat_sparse_instance
from lpseq.projection import LpBall, lp_norm, project
from lpseq.rates import RateQuery, control_function, example_scalings

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lpseq"

SMALL_P = [1e-15, 1e-9, 1e-6, 1e-3, 0.01]


def test_inf_past_range():
    assert inf_past_range(pow, 2.0, 10.0) == 1024.0
    assert inf_past_range(pow, 10.0, 400.0) == math.inf
    assert inf_past_range(pow, 0.0, -1.0) == math.inf
    assert inf_past_range(math.exp, 1000.0) == math.inf


def test_small_p_sweep_raises_nothing():
    # the inside test's (1 + 1e-10)**(1/p) and the norms' s**(1/p) raised
    # OverflowError from p = 0.01 down
    rng = np.random.default_rng(28)
    for p in SMALL_P:
        for d in (2, 3, 100, 3000):
            spike = 0.1 * rng.standard_normal(d)
            spike[0] += 3.0
            decay = np.exp(-np.arange(d) / max(1.0, d / 5))
            for y in (rng.standard_normal(d), spike, decay):
                assert lp_norm(y, p) > 0.0
                for r in (1e-3, 1.0, 10.0):
                    res = project(LpBall(p, d, r), y)
                    assert np.all(np.isfinite(res.point))
                    assert lp_norm(res.point, p) >= 0.0
    for p in SMALL_P:
        for d in (2, 10**6):
            for sigma in (1e-300, 1e-3, 1.0, 1e300):
                for r in (1e-300, 1.0, 1e300):
                    assert not math.isnan(control_function(RateQuery(p, d, sigma, r)))
    # the p in (1, 2) constructions, next to either end
    for eps in (1e-15, 1e-9, 1e-3):
        for scenario in ("log_subopt", "poly_subopt"):
            for n in (3, 10**6, 10**400):
                assert example_scalings(scenario, n, eps).d > 0
        for p in (1.0 + eps, 2.0 - eps):
            for sigma in (1e-300, 1e-3, 1.0, 1e300):
                assert 1 <= flat_sparse_instance(sigma, p, 100).k <= 50


def test_lp_norm_past_range_in_logs():
    # the root s**(1/p) passes double range where the norm does not
    assert lp_norm(np.full(3, 1e-200), 1e-3) == pytest.approx(3**1000 / 10**200, rel=1e-12)
    # about 1e347: past double range
    assert lp_norm(np.random.default_rng(0).standard_normal(3000), 0.01) == math.inf


def _handlers(tree: ast.Module) -> list:
    """Top-level definitions holding an ``except`` that names OverflowError or
    ZeroDivisionError, once per such clause."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(getattr(kind, "id", None) in ("OverflowError", "ZeroDivisionError")
                       for kind in kinds):
                    found.append(getattr(top, "name", None))
    return found


def test_one_owner_of_the_past_range_rule():
    owners = []
    for path in sorted(PACKAGE.glob("*.py")):
        owners += [f"{path.name}:{name}"
                   for name in _handlers(ast.parse(path.read_text(encoding="utf-8")))]
    assert owners == ["errors.py:inf_past_range", "instances.py:sparsity_scaling"]
