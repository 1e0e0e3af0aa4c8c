"""A result past double range is inf: no ``OverflowError`` or ``ZeroDivisionError`` escapes.

Python's float powers and ``math`` functions raise where IEEE arithmetic
gives inf.  ``errors.inf_past_range`` is the package's one rule for that.
The sweep reaches the small-p powers and the p in (1, 2) constructions next
to either end, and the AST check keeps the rule in that one place.
"""

import ast
import decimal
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from lpseq.errors import inf_past_range
from lpseq.instances import flat_sparse_instance, sparsity_scaling
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
    for eps in (1e-15, 1e-9, 1e-6, 1e-3):
        for scenario in ("log_subopt", "poly_subopt"):
            for n in (3, 10**6, 10**400):
                assert example_scalings(scenario, n, eps).d > 0
        for p in (1.0 + eps, 2.0 - eps):
            for sigma in (1e-300, 1e-3, 1.0, 1e300):
                assert 1 <= flat_sparse_instance(sigma, p, 100).k <= 50


def _flat_constructions(sigma: float, p: float, d: int):
    """``sparsity_scaling``'s formula and ``flat_sparse_instance``'s size
    ``lambda_floor**(-p/(2-p))``, as written, in 50-digit decimal arithmetic
    whose exponent range no power here leaves."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 50, decimal.MAX_EMAX, decimal.MIN_EMIN
        sigma, p, d = Decimal(sigma), Decimal(p), Decimal(d)
        q = p / (p - 1)
        scaling = (1 / (sigma**q * d)) ** ((p - 1) / (2 - p))
        delta = Decimal("0.5") * Decimal("0.15") ** q
        m = d - d % 4
        lam_floor = sigma * m ** (1 / q) / 2 * (delta / 4) ** (1 / q)
        return scaling, lam_floor ** (-p / (2 - p))


def test_flat_constructions_next_to_p_1():
    # q = p/(p-1) passes 1e3: sigma**q and delta = 0.5*0.15**q underflowed, so
    # sparsity_scaling read d and the instance took k = d//2 with a zero floor
    sigmas = [10.0**e for e in range(-300, 301, 25)] + [10.0**(e / 8) for e in range(-24, 9)]
    inside = 0
    for p in (1.0 + 1e-3, 1.0 + 1e-6):
        for d in (4, 100, 1001):
            for sigma in sigmas:
                scaling, size = _flat_constructions(sigma, p, d)
                got = sparsity_scaling(sigma, p, d)
                if scaling > Decimal(np.finfo(float).max):
                    assert got == d
                else:
                    assert got == pytest.approx(max(float(scaling), 1.0), rel=1e-12, abs=0.0)
                k = flat_sparse_instance(sigma, p, d).k
                assert k == min(max(math.ceil(size), 1), d // 2), (p, d, sigma)
                inside += 1 < k < d // 2
    assert inside >= 20


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
    assert owners == ["errors.py:inf_past_range"]
