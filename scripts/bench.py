"""Run every benchmark workload and write one snapshot, ``BENCH_<label>.json``.

    python3 scripts/bench.py --label NAME [--checkout PATH]

For each workload declared in ``BENCHMARK.json`` this runs
``perfbench/run.py`` at its default seed and run length (``run_seconds``)
twice in a fresh interpreter, untraced (end-to-end metrics) and traced
(per-layer metrics), and keeps from the run record it writes under
``perfbench/out/``: the metrics, the outcome (``correct``, ``attempted``,
``failed``), the host slowdown over the run and the run's provenance.
``--checkout`` measures another checkout of the repository, such as a parent
commit, with that checkout's own benchmark; the snapshot is still written at
the root of this one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(checkout: Path, workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` run; returns the parts of its record a snapshot keeps."""
    subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"),
                    "--workload", workload, "--trace", str(trace)],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    record = json.loads((checkout / "perfbench" / "out"
                         / f"{workload}-seed0-trace{trace}.json").read_text())
    kept = {key: record[key] for key in ("correct", "attempted", "failed", "provenance")}
    kept["metrics"] = {name: m["value"] for name, m in record["metrics"].items()}
    if not trace:
        kept["host_slowdown"] = record["detail"]["host_slowdown"]
        kept["unadjusted"] = record["detail"]["unadjusted"]
    return kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    snapshot = {"label": args.label, "seed": 0, "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"bench: {workload}", file=sys.stderr)
        snapshot["workloads"][workload] = {
            "end_to_end": run_workload(args.checkout, workload, 0),
            "per_layer": run_workload(args.checkout, workload, 1),
        }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"bench: wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
