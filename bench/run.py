"""The benchmark: ``python3 bench/run.py`` runs every workload and prints
every metric by name with its unit; see bench/README.md.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--quick]

With ``--workload`` it runs that one workload and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.  A workload runs in
fresh child processes (``child.py``), one after another: each sets up,
measures for a third of the run length and checks its outputs.  The op
times of the three are pooled for the percentiles and the throughput;
``setup_s`` and ``peak_rss_mb`` are medians over the three.  This parent
imports nothing heavy: it starts children, cleans up after them, and prints.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SPEEDUP = "core.runtime.speedup_vs_default"

# A run is this many fresh processes: three set-ups behind setup_s, and a
# third of the measured phase in each.
CHILDREN = 3
# No metric rests on fewer ops, so >= 10 samples lie beyond op_ms_tail.
MIN_OPS = 100
# p90, not p95/p99: on a shared 2-vCPU host the higher percentiles of a
# CPU-bound op measure the neighbours rather than the program.
TAIL_PERCENTILE = 90.0
QUICK_SECONDS = 2.0
BUDGET_SECONDS = 170.0  # one invocation with --workload must end within 180 s
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env() -> Dict[str, str]:
    """No ``REPRO_*`` knob reaches the program, and BLAS is pinned to one
    thread before NumPy is imported: on a 2-vCPU host two spinning BLAS
    threads burn twice the CPU and run ~8 % slower."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dict.fromkeys(BLAS_PINS, "1"))
    return env


def source_digest() -> str:
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, seed: int, seconds: float, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.seconds = seconds
        self.children = 1 if quick else CHILDREN
        self.child_seconds = seconds / self.children
        self.deadline: Optional[float] = None
        self.cache_dir = BENCH / ".cache" / source_digest()
        self.problems: List[str] = []
        self.train_s = 0.0

    # ------------------------------------------------------------------
    def child(self, workload: str, phase: str, trace: bool, expected: float) -> dict:
        """Run one child to completion; returns its result.

        A child that runs past 3x its expected duration is killed with its
        whole process group and reported failed, never waited on.  Shared
        memory segments it left behind are unlinked and reported.
        """
        OUT.mkdir(parents=True, exist_ok=True)
        result_path = OUT / f"{workload or phase}.{os.getpid()}.result.json"
        log_path = OUT / f"{workload or phase}.stderr.log"
        timeout = 3.0 * expected
        if self.deadline is not None:
            timeout = min(timeout, max(self.deadline - time.monotonic(), 1.0))
        cmd = [
            sys.executable, str(BENCH / "child.py"),
            "--workload", workload, "--phase", phase,
            "--seed", str(self.seed), "--seconds", str(self.child_seconds),
            "--trace", str(int(trace)), "--quick", str(int(self.quick)),
            "--cache-dir", str(self.cache_dir), "--result", str(result_path),
        ]
        with open(log_path, "ab") as log:
            log.write(f"\n=== {phase} trace={int(trace)} seed={self.seed}\n".encode())
            log.flush()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            stragglers = _kill_group(proc, grace=0.0 if code is None else 2.0)
        leaked = sorted(glob.glob(f"/dev/shm/granii-shm-{proc.pid}-*"))
        for path in leaked:
            os.unlink(path)
        where = f"{workload or phase}/{phase}"
        if leaked:
            self.problems.append(f"{where}: leaked shared memory {leaked}")
        if code is None:
            raise ChildFailed(f"{where}: killed after {timeout:.0f} s (see {log_path})")
        if stragglers:
            self.problems.append(f"{where}: left processes behind; killed")
        if code != 0 or not result_path.exists():
            raise ChildFailed(f"{where}: exit code {code} (see {log_path})")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return result

    def prepare(self) -> None:
        """Train the cpu cost models once per source tree (~27 s; they are
        fitted to simulated device times, so the result is deterministic)."""
        if not (self.cache_dir / "costmodels_cpu_default.json").exists():
            print("[bench] training cost models (first run in this tree)", flush=True)
            self.train_s = self.child("", "prepare", False, expected=60.0)["train_s"]

    # ------------------------------------------------------------------
    def end_to_end(self, workload: str) -> dict:
        results = [self.measure(workload, False) for _ in range(self.children)]
        merged = summarise(results)
        if SPEEDUP in merged["layer"]:
            merged["layer"][SPEEDUP] = statistics.median(
                r["layer"][SPEEDUP] for r in results
            )
        if merged["measured_ops"] < MIN_OPS and not self.quick:
            self.problems.append(
                f"{workload}: {merged['measured_ops']} measured ops, "
                f"fewer than {MIN_OPS}"
            )
        if any(r["choices"] != merged["choices"] for r in results):
            self.problems.append(f"{workload}: equal seeds chose different plans")
        return merged

    def measure(self, workload: str, trace: bool) -> dict:
        result = self.child(
            workload, "measure", trace, expected=20.0 + 2.0 * self.child_seconds
        )
        for line in result["mismatches"]:
            self.problems.append(f"{workload}: output mismatch: {line}")
        if result["failed"]:
            self.problems.append(f"{workload}: {result['failed']} failed ops")
        return result

    def per_layer(self, workload: str, untraced: dict) -> Dict[str, float]:
        traced = self.measure(workload, True)
        layer = dict(traced["layer"])
        # measured with tracing off, like every end-to-end metric
        layer[SPEEDUP] = untraced["layer"].get(SPEEDUP, 0.0)
        layer["bench.trace_overhead_share"] = (
            summarise([traced])["op_ms_p50"] / untraced["op_ms_p50"] - 1.0
        )
        layer["core.costmodel.train_s"] = self.train_s
        unknown = sorted(set(layer) - set(PER_LAYER))
        if unknown:
            raise ChildFailed(f"{workload}: metrics not in BENCHMARK.json: {unknown}")
        # a layer this workload never enters did no work: 0
        return {name: float(layer.get(name, 0.0)) for name in PER_LAYER}


def percentile(samples: List[float], q: float) -> float:
    """Linear interpolation between order statistics, as NumPy's default."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarise(results: List[dict]) -> dict:
    """One run from its children: every end-to-end metric, the counts."""
    op_ms = [t for r in results for t in r["op_ms"]]
    merged = dict(results[0])
    merged.update(
        setup_s=statistics.median(r["setup_s"] for r in results),
        op_ms_p50=percentile(op_ms, 50.0),
        op_ms_tail=percentile(op_ms, TAIL_PERCENTILE),
        ops_per_s=sum(r["phase_ops"] for r in results)
        / sum(r["phase_seconds"] for r in results),
        peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in results),
        host_slowdown=statistics.median(r["host_slowdown"] for r in results),
        measured_ops=len(op_ms),
        attempted=sum(r["attempted"] for r in results),
        failed=sum(r["failed"] for r in results),
    )
    return merged


def _kill_group(proc: subprocess.Popen, grace: float) -> bool:
    """Empty the child's process group; True if anything had to be killed.

    An exited child gets ``grace`` seconds for its helpers to follow it
    (multiprocessing's resource tracker ends when it sees its parent gone);
    whatever is left after that gets SIGKILL until the group is empty.
    """
    deadline = time.monotonic() + grace
    killed = False
    for _ in range(400):
        overdue = time.monotonic() >= deadline
        try:
            os.killpg(proc.pid, signal.SIGKILL if overdue else 0)
        except (ProcessLookupError, PermissionError):
            break
        killed = killed or overdue
        proc.poll()  # reaps the child itself once it is dead
        time.sleep(0.05)
    proc.wait()
    return killed


def host_line() -> str:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"host: nproc={os.cpu_count()} cpu={model!r} "
        f"python={platform.python_version()} blas_threads=1"
    )


def print_metrics(workload: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"{workload:13s} {name:45s} {values[name]:14.6g} {unit}")


def print_end_to_end(workload: str, result: dict) -> None:
    print_metrics(workload, result, END_TO_END)
    if SPEEDUP in result["layer"]:  # the paper's headline quantity
        print_metrics(workload, result["layer"], {SPEEDUP: PER_LAYER[SPEEDUP]})


def print_counts(workload: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{workload:13s} {'fail_share':45s} {failed / attempted:14.6g} ratio "
        f"(attempted {attempted}, succeeded {attempted - failed}, failed {failed}; "
        f"{result['measured_ops']} timed ops)"
    )
    print(f"{workload:13s} chosen {json.dumps(result['choices'], sort_keys=True)}")
    print(
        f"{workload:13s} {result['host']}; times are scaled to the reference "
        f"host, this one ran at {result['host_slowdown']:.2f}x its tick"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, ~2 s per workload, one set-up sample")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no src/repro beside bench/; nothing to measure", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(SPEC["run_seconds"])
    runner = Runner(args.seed, seconds, args.quick)
    for log in OUT.glob("*.stderr.log"):
        log.unlink()
    print(host_line(), flush=True)
    try:
        runner.prepare()
        if args.workload:
            runner.deadline = time.monotonic() + BUDGET_SECONDS
            return run_one(runner, args.workload, bool(args.trace))
        for workload in WORKLOADS:
            result = runner.end_to_end(workload)
            print_end_to_end(workload, result)
            print_counts(workload, result)
            if args.trace:
                print_metrics(workload, runner.per_layer(workload, result), PER_LAYER)
            sys.stdout.flush()
    except ChildFailed as exc:
        print(f"bench: FAILED: {exc}", file=sys.stderr)
        return 1
    for problem in runner.problems:
        print(f"bench: FAILED: {problem}", file=sys.stderr)
    return 1 if runner.problems else 0


def run_one(runner: Runner, workload: str, trace: bool) -> int:
    """The driver's form: one workload, one JSON line last."""
    if trace:
        runner.child_seconds = runner.seconds / 2  # one untraced child, one traced
        result = summarise([runner.measure(workload, False)])
        values, units = runner.per_layer(workload, result), PER_LAYER
        print_metrics(workload, values, units)
    else:
        result = runner.end_to_end(workload)
        values, units = result, END_TO_END
        print_end_to_end(workload, result)
    print_counts(workload, result)
    for problem in runner.problems:
        print(f"bench: FAILED: {problem}", file=sys.stderr)
    sys.stderr.flush()
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }), flush=True)
    return 1 if runner.problems else 0


if __name__ == "__main__":
    sys.exit(main())
