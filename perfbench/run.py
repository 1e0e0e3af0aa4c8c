"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig2a --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` repeats the same operations with every layer call recorded and
prints the per-layer metrics.  The metric names and units are the ones
declared in ``BENCHMARK.json``.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
record (provenance, per-repeat wall and CPU times, check details) and, for a
traced run, the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import env
from hostspeed import REFERENCE_S, probe

SETUP_PROBES = 9
OUT = env.ROOT / "perfbench" / "out"


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git(*args):
    if not (env.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=env.ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    import numpy

    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((env.SRC / "lpseq").rglob("*.py")):
        digest.update(path.relative_to(env.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_digest": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in env.THREAD_VARS},
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


class SetupProbes:
    """Set-up timed in fresh interpreters, spread evenly over the run.

    Called with the elapsed seconds between blocks of work, it starts the
    next set-up once its moment has come; ``finish`` runs any still missing.
    Each set-up is bracketed by host-speed probes.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = [sys.executable, str(env.ROOT / "perfbench" / "setup_probe.py"),
                     workload, str(seed)]
        self.due = [(k + 0.5) * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.samples: list[tuple[float, float]] = []  # (seconds, host slowdown)

    def _probe(self) -> None:
        before = probe()
        done = subprocess.run(self.args, capture_output=True, text=True, timeout=120,
                              check=True)
        slowdown = (before + probe()) / (2.0 * REFERENCE_S)
        self.samples.append((float(done.stdout.strip().splitlines()[-1]), slowdown))

    def __call__(self, elapsed: float) -> bool:
        if len(self.samples) < len(self.due) and elapsed >= self.due[len(self.samples)]:
            self._probe()
            return True
        return False

    def finish(self) -> list[tuple[float, float]]:
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return self.samples


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(out, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, adjusted for host speed.

    Each timing is divided by the host's slowdown over it (``hostspeed``).
    Throughput is the median over repeats.  A project call's latency is the
    median of its timings; the p50 and tail are taken over distinct calls.
    """
    def adjusted(timings):
        return statistics.median(wall / slowdown for wall, slowdown in timings)

    def raw(timings):
        return statistics.median(wall for wall, _ in timings)

    rates = [s["estimates"] * s["slowdown"] / s["wall_s"] for s in out.samples]
    latencies = [adjusted(t) for t in out.calls.values()]
    pct, tail_s = tail(latencies)
    values = {
        "estimates_per_s": statistics.median(rates),
        "project_ms_p50": 1e3 * statistics.median(latencies),
        "project_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": out.peak_rss_mb,
        "setup_s": adjusted(setup),
    }
    slowdowns = [s["slowdown"] for s in out.samples]
    detail = {
        "project_ms_tail_percentile": pct, "project_calls": len(latencies),
        "project_min_visits": min(len(t) for t in out.calls.values()),
        "host_slowdown": {"min": min(slowdowns), "median": statistics.median(slowdowns),
                          "max": max(slowdowns)},
        "unadjusted": {
            "estimates_per_s": statistics.median(s["estimates"] / s["wall_s"]
                                                 for s in out.samples),
            "project_ms_p50": 1e3 * statistics.median(raw(t) for t in out.calls.values()),
            "setup_s": raw(setup),
        },
        "repeats": out.samples, "setup": setup,
    }
    return values, detail


def _exact(entry: dict, layers) -> dict:
    """The counters of one traced pass that must repeat exactly."""
    recs = entry["projections"]
    counters = {f"{layer}.{key}": entry[layer][key]
                for layer in layers for key in ("calls", "elements", "max_elements")}
    counters.update({
        "projection.iterations": sum(r.iterations for r in recs),
        "projection.unchanged": sum(r.unchanged for r in recs),
        "projection.kkt_residual_max": max((r.kkt_residual for r in recs if r.p > 1),
                                           default=0.0),
        "projection.duality_gap_max": max((r.duality_gap for r in recs if r.p < 1),
                                          default=0.0),
    })
    return counters


def per_layer(out, layers) -> tuple[dict, dict]:
    passes = out.passes
    counters = [_exact(p, layers) for p in passes]
    first = counters[0]
    for k, other in enumerate(counters[1:], start=1):
        for key, value in first.items():
            if other[key] != value:
                out.problem(f"counter {key} differs: pass 0 {value!r}, pass {k} {other[key]!r}")
                out.checks["counters_identical"] = False
    out.checks.setdefault("counters_identical", True)

    def median(layer, key):
        return statistics.median(p[layer][key] for p in passes)

    values = {}
    for layer in layers:
        for key in ("calls", "elements"):
            values[f"{layer}.{key}"] = first[f"{layer}.{key}"]
        for key in ("self_s", "busy_s"):
            values[f"{layer}.{key}"] = median(layer, key)
    project_calls = first["projection.project.calls"]
    values.update({
        "projection.iterations": first["projection.iterations"],
        "projection.feasible_input_frac":
            first["projection.unchanged"] / project_calls if project_calls else 0.0,
        "projection.kkt_residual_max": first["projection.kkt_residual_max"],
        "projection.duality_gap_max": first["projection.duality_gap_max"],
        "max_block_bytes": 8 * max(first[f"{layer}.max_elements"] for layer in layers),
        "trace.pass_s": statistics.median(p["pass_s"] for p in passes),
    })
    total_self = sum(values[f"{layer}.self_s"] for layer in layers)
    detail = {
        "passes": len(passes),
        "self_share": {layer: values[f"{layer}.self_s"] / total_self if total_self else 0.0
                       for layer in layers},
        "pass_s": [p["pass_s"] for p in passes],
        "counters": first,
        "all_layer_values": values,
    }
    return values, detail


def main(argv=None) -> int:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    try:
        env.prepare()
        import lpseq  # noqa: F401  (first import compiles the checkout's sources)

        env.check_origin()
    except env.MissingProgramError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    declared = spec["per_layer" if args.trace else "end_to_end"]
    inputs = workloads.build_inputs(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = spans.Tracer()
        out = workloads.trace(inputs, args.seconds, tracer)
        values, detail = per_layer(out, spans.LAYER_SPANS)
        tracer.write(OUT / f"{args.workload}-spans.npz")
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        out = workloads.measure(inputs, args.seconds, probes)
        values, detail = end_to_end(out, probes.finish())

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run lacks: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = out.failed == 0 and not out.problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), "correct": correct,
        "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
        "checks": out.checks, "problems": out.problems, "detail": detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in out.checks.items():
        print(f"check {name} {value!r}")
    for message in out.problems:
        print(f"problem {message}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
