#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 bench/spread.py --workload mcdoc-2k --seeds 1 2 3 4 5

Each seed runs ``bench/run.py`` in its own process, one after another.  For
every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  ``--record`` stores the summary, the core count and
the git commit in recorded.json as the workload's reference numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", action="store_true",
                        help="store the summary in bench/recorded.json")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {name: summarize(vals) for name, vals in values.items()}
    print(f"{'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for name, s in summary.items():
        print(f"{name:<16} {s['median']:>10.4g} {s['q1']:>10.4g} {s['q3']:>10.4g} "
              f"{s['spread']:>8.3f} {bounds.get(name, float('nan')):>6}")
    if args.record:
        record(args, summary)
    return 0


def record(args, summary: dict) -> None:
    path = ROOT / "bench" / "recorded.json"
    data = json.loads(path.read_text())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    data.setdefault("numbers", {})[args.workload] = {
        "git_sha": commit or None,
        "cores": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "metrics": {k: {q: round(v, 6) for q, v in s.items()} for k, s in summary.items()},
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
