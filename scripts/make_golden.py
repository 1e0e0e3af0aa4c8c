"""Write the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python3 scripts/make_golden.py

Runs, in-process, ``lpseq reproduce --figure 2a|2b --max-d 1000 --reps 20
--seed 0`` and README's five ``lpseq project`` examples, and writes under
``tests/data/golden/``: each run's ``results.csv`` and ``slopes.json``, and
``project.json`` with each example's argv, exit code and stdout.
``manifest.json`` records the python and numpy versions that wrote them.
Rerun it when a change moves an output past the test's bounds, and state the
deviation that made it necessary.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from lpseq import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden"

REPRODUCE = {figure: ["reproduce", "--figure", figure, "--max-d", "1000", "--reps", "20",
                      "--seed", "0"] for figure in ("2a", "2b")}
PROJECT = (
    ["project", "--p", "1.5", "--radius", "1", "--input", "2,2"],
    ["project", "--p", "0", "--sparsity", "2", "--input", "3,-1,2"],
    ["project", "--p", "inf", "--radius", "1", "--input", "2,-0.5"],
    ["project", "--p", "0.5", "--radius", "1", "--input", "1.2,0.3,-0.2,0.1"],
    ["project", "--p", "3", "--radius", "1", "--input", "9e307,1"],
)


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI call; its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for figure, argv in REPRODUCE.items():
        target = GOLDEN / f"fig{figure}"
        target.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = run(argv + ["--out", tmp])
            if code != 0:
                raise SystemExit(f"reproduce --figure {figure} exited {code}")
            for name in ("results.csv", "slopes.json"):
                shutil.copyfile(Path(tmp) / name, target / name)
    project = [dict(zip(("argv", "exit", "stdout"), (argv, *run(argv)))) for argv in PROJECT]
    (GOLDEN / "project.json").write_text(json.dumps(project, indent=1) + "\n")
    manifest = {"python": platform.python_version(), "numpy": np.__version__,
                "reproduce": REPRODUCE}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
