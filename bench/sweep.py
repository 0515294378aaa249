"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --workload containment --seeds 1-10 --out bench/out/sweep.json

For every workload and seed it runs ``run.py`` once, in order, and reports
per metric the median, the quartiles from ``statistics.quantiles(n=4)`` and
their distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  With ``--out`` it also writes every run's result plus the
Python version, CPU count and git revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summarise(runs: List[dict], bounds: Dict[str, float]) -> Dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        row = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
               "min": min(values), "max": max(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        if name in bounds:
            row["bound"] = bounds[name]
        out[name] = row
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every result and the summary as JSON here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
              "git_revision": git_revision(), "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    ok = True
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                ok = False
            result = json.loads(lines[-1]) if lines else {}
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result.get('correct')} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()),
                  flush=True)
        good = [r for r in runs if "metrics" in r]
        summary = summarise(good, bounds) if good else {}
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, row in summary.items():
            spread = f"{row['spread']:.4f}" if "spread" in row else "-"
            print(f"  {workload:17s} {name:34s} median {row['median']:<12.6g} "
                  f"spread {spread}  bound {row.get('bound', '-')}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
