"""numpy's floating-point policy for the solvers is set once per public entry.

The solvers use IEEE infinities, NaNs and zero divisions on purpose.  The
public entries that reach them, ``projection.project_many`` and
``shrinkage.psi_many`` and ``branch_roots``, each ignore numpy's
floating-point warnings for the whole call with one
``@np.errstate(all="ignore")``.  The private kernels run under their caller's
error state and set none of their own, and no other module of the package
sets one: where plain Python floats pass double range they raise instead.
"""

import ast
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lpseq.errors import InvalidParameterError
from lpseq.projection import LpBall, project, project_many
from lpseq.shrinkage import branch_roots, psi_many

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lpseq"
ENTRIES = {"projection.py": {"project_many"}, "shrinkage.py": {"psi_many", "branch_roots"}}


def _names_errstate(node) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "errstate")
            or (isinstance(node, ast.Name) and node.id == "errstate")
            or (isinstance(node, ast.alias) and node.name == "errstate"))


def _ignores_all(decorator) -> bool:
    return (isinstance(decorator, ast.Call) and _names_errstate(decorator.func)
            and not decorator.args
            and [(k.arg, getattr(k.value, "value", None)) for k in decorator.keywords]
            == [("all", "ignore")])


def test_errstate_only_decorates_the_entries():
    modules = sorted(PACKAGE.glob("*.py"))
    assert set(ENTRIES) < {path.name for path in modules}
    for path in modules:
        entries = ENTRIES.get(path.name, set())
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed, decorated = set(), set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in entries:
                for decorator in node.decorator_list:
                    if _ignores_all(decorator):
                        allowed.add(id(decorator.func))
                        decorated.add(node.name)
        stray = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if _names_errstate(node) and id(node) not in allowed]
        assert stray == [], "np.errstate outside the entries' decorators"
        assert decorated == entries


def _entry_calls():
    """Calls of the three entries that meet 0/0, log 0 and overflow inside."""
    psi_many(1.5, 0.0, 0.0)  # 0-d; log 0 and inf - inf in the root kernel
    psi_many(1.3, 1e300, 1e-300)
    branch_roots(0.5, 1e300, 1e300, True)
    project(LpBall(p=1.3, dim=3, radius=1.0), np.array([1e300, -1e-300, 0.0]))
    project_many(LpBall(p=0.5, dim=3, radius=1.0), np.array([[3.0, 0.0, -1.0]]))
    with pytest.raises(InvalidParameterError):
        psi_many(1.5, -1.0, 1.0)
    return np.geterr()


def test_entries_restore_the_callers_error_state():
    before = np.geterr()
    try:
        np.seterr(all="raise")
        assert _entry_calls() == np.geterr() == {key: "raise" for key in before}
        with ThreadPoolExecutor(max_workers=2) as pool:  # each thread keeps its own state
            states = list(pool.map(lambda _: _entry_calls(), range(4)))
        assert all(state == states[0] for state in states)
        assert np.geterr() == {key: "raise" for key in before}
    finally:
        np.seterr(**before)
