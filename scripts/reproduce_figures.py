#!/usr/bin/env python3
"""Rerun both risk-figure recipes and print the slope summaries.

Example:
    python scripts/reproduce_figures.py --out results/ --max-d 10000 --reps 100
"""

import argparse
import json
import sys
from pathlib import Path

from lpseq.cli import main as lpseq_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory root")
    parser.add_argument("--max-d", type=int, default=10_000)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for figure in ("2a", "2b"):
        out_dir = Path(args.out) / f"figure{figure}"
        argv = ["reproduce", "--figure", figure, "--max-d", str(args.max_d),
                "--reps", str(args.reps), "--seed", str(args.seed),
                "--out", str(out_dir)]
        code = lpseq_main(argv)
        if code != 0:
            print(f"figure {figure} run exited with {code}", file=sys.stderr)
            return code
        slopes = json.loads((out_dir / "slopes.json").read_text())["slopes"]
        print(f"figure {figure}: " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
