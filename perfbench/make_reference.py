"""Record the reference objectives of the nonconvex_p05 check.

For each input of the default seed's pool, stores the objective
``0.5 * ||x - y||**2`` of the point ``project`` returns.  The benchmark then
fails any later call on those inputs whose objective is higher.  Takes about
half a minute:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import env


def main() -> int:
    env.prepare()
    env.check_origin()
    from lpseq.projection import project

    import workloads

    inputs = workloads.build_inputs("nonconvex_p05", workloads.DEFAULT_SEED)
    objectives = [workloads.objective(project(inputs.ball, y).point, y) for y in inputs.ys]
    payload = {"workload": "nonconvex_p05", "seed": workloads.DEFAULT_SEED,
               "p": inputs.ball.p, "dim": inputs.ball.dim, "radius": inputs.ball.radius,
               "objectives": objectives}
    workloads.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
