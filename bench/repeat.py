"""How steady is the benchmark?  ``python3 bench/repeat.py [N]``.

Runs the full benchmark N times (default 6) on one seed, so that only the
host differs between runs, and prints for each workload x end-to-end metric
the median, the quartiles, the spread (interquartile distance / median), the
largest relative deviation from the median, and how far the median of the
second half of the runs lies on the worse side of the first half's.  Exits
non-zero if a spread or a half-against-half shift exceeds the metric's bound
in ``BENCHMARK.json``, or if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload],
        cwd=BENCH.parent, stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"repeat: {workload}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"repeat: {workload}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    shift = (second - first) / first
    return shift if better == "lower" else -shift


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="?", type=int, default=6)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("need at least 4 runs to compare two halves")

    samples: Dict[str, Dict[str, List[float]]] = {w: {} for w in WORKLOADS}
    for run in range(args.runs):
        for workload in WORKLOADS:
            for name, value in run_once(workload).items():
                samples[workload].setdefault(name, []).append(value)
            print(f"[repeat] run {run + 1}/{args.runs} {workload} done", flush=True)

    print(f"{'workload':13s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'max dev':>7s} {'2nd half':>8s} {'bound':>6s}")
    bad = 0
    half = args.runs // 2
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            values = samples[workload][metric["name"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            max_dev = max(abs(v - median) for v in values) / median
            shift = worse_by(
                statistics.median(values[:half]),
                statistics.median(values[-half:]),
                metric["better"],
            )
            over = max(spread, shift) > metric["bound"]
            bad += over
            print(f"{workload:13s} {metric['name']:12s} {median:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {spread:7.1%} {max_dev:7.1%} {shift:+8.1%} "
                  f"{metric['bound']:6.0%}{'  OVER' if over else ''}")
            print(f"{'':13s} runs: {' '.join(f'{v:.4g}' for v in values)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
