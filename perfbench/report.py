"""Run the benchmark over workloads and seeds and print every metric with its spread.

Usage, from the repository root:

    python3 perfbench/report.py --seeds 1-10 [--trace 1]

Every workload in BENCHMARK.json runs once per seed. Each (workload, seed)
pair is one fresh ``perfbench/run.py`` process with the run length from
BENCHMARK.json. For every metric the table shows the median of
the runs, the interquartile range as a share of that median (quartiles from
``statistics.quantiles(values, n=4)``) and, for end-to-end metrics, the
metric's bound from BENCHMARK.json; a spread above a third of its bound is
flagged and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark process; returns its result line."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, IQR / median); the share is None below two values or at median 0."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        print(f"\n{workload}  ({len(results)} runs, "
              f"{sum(r['attempted'] for r in results)} operations, "
              f"{sum(r['failed'] for r in results)} failed)")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, rel = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None and (rel is None or rel > bound / 3):
                flag, steady = "  > bound/3", False
            rel_text = "-" if rel is None else f"{rel:.4f}"
            bound_text = "" if bound is None else f"  bound {bound}"
            print(f"  {m['name']:28s} {med:14.6g} {m['unit']:9s} "
                  f"spread {rel_text}{bound_text}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
