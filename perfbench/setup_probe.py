"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing lpseq (numpy included) and building the workload's
inputs.  Prints the seconds it took on stdout:

    python3 perfbench/setup_probe.py fig2a 0
"""

from __future__ import annotations

import sys
import time

import env


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    env.prepare()
    t0 = time.perf_counter()
    import lpseq  # noqa: F401
    import workloads

    workloads.build_inputs(workload, seed)
    elapsed = time.perf_counter() - t0
    env.check_origin()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
