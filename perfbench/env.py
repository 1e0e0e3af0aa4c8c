"""Process set-up shared by the benchmark entry point and the set-up probe.

Pins the BLAS/OpenMP thread pools to one thread (this must happen before
numpy is imported) and makes ``import lpseq`` load the checkout's own
``src/lpseq``, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgramError(RuntimeError):
    """The checkout does not hold the lpseq sources the benchmark measures."""


def prepare() -> None:
    """Pin thread pools and put the checkout's ``src`` first on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "lpseq" / "__init__.py").is_file():
        raise MissingProgramError(f"no lpseq package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_origin() -> None:
    """Fail unless the imported lpseq is the one under ``src``."""
    import lpseq

    origin = Path(lpseq.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgramError(f"lpseq was imported from {origin}, not {SRC}")
