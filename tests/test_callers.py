"""Every top-level function and class of lpseq has a caller outside the tests.

A helper that only the tests reach is code the package carries for nothing:
either the package should use it, or it belongs with the tests.  A name
counts as used when the code of ``src/``, ``scripts/`` or ``perfbench/``
refers to it outside its own definition, as a name, an attribute or a string
(the benchmark looks names up by string), or when ``lpseq.__all__`` exports it.
Likewise every defaulted parameter of a private function must be passed by
some call there, by keyword or by position, and every module-level UPPER_CASE
constant must be read there outside its own assignment, so that a retired
bar or tolerance does not linger as an orphan.
"""

import ast
from pathlib import Path

import lpseq

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lpseq"


def _references(tree: ast.Module) -> set:
    """Names, attributes and identifier strings the module refers to, each
    outside the top-level definition of the same name."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_top_level_name_has_a_caller():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
    used = set(lpseq.__all__)
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    assert defined  # the scan sees the package
    assert sorted(f"{file}:{name}" for name, file in defined.items() if name not in used) == []


def test_every_default_of_a_private_function_is_passed():
    # a defaulted parameter that no call in the package, the scripts or the
    # benchmark passes, by keyword or by position, serves only the tests
    defaults = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[0] == "_":
                args = node.args.posonlyargs + node.args.args
                first = len(args) - len(node.args.defaults)
                params = {arg.arg: first + k for k, arg in enumerate(args[first:])}
                params.update((arg.arg, None) for arg, default in
                              zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None)
                defaults[node.name] = params
    passed = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                for param, index in defaults.get(name, {}).items():
                    # a **mapping (keyword None) or *sequence may pass any of them
                    if (any(kw.arg in (param, None) for kw in call.keywords)
                            or index is not None and (starred or len(call.args) > index)):
                        passed.add((name, param))
    assert defaults  # the scan sees the package
    assert sorted(f"{name}:{param}" for name, params in defaults.items() for param in params
                  if (name, param) not in passed) == []


def test_every_constant_has_a_reader():
    constants = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    constants[target.id] = path.name
    read = set(lpseq.__all__)
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                # a Name that is loaded, an attribute, or a name looked up by string
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    assert constants  # the scan sees the package
    assert sorted(f"{file}:{name}" for name, file in constants.items() if name not in read) == []
