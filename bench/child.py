"""One workload, in one fresh process.  Started by ``run.py`` only.

Phases: ``prepare`` trains the cpu cost models into the cache directory;
``measure`` runs set-up, the measured phase, the correctness gate and — when
traced — the per-layer probes.  The result is one JSON file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# the six primitives that take the most time across the four workloads
KERNEL_PRIMITIVES = (
    "gemm", "spmm", "spmm_unweighted", "elementwise", "attention", "row_broadcast",
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="")
    parser.add_argument("--phase", choices=("prepare", "measure"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    # the first thing the program does, and the first thing setup_s counts
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - t0

    from repro.core.costmodel import get_cost_models
    from repro.kernels.registry import push_kernel_wrapper, remove_kernel_wrapper
    from repro.kernels.sharded import release_segments, shutdown_pool

    if args.phase == "prepare":
        t0 = time.perf_counter()
        get_cost_models("cpu", cache_dir=args.cache_dir)
        _write(args.result, {"train_s": time.perf_counter() - t0})
        return 0

    from harness.select_sweep import SelectSweep
    from harness.serve_mix import ServeMix
    from harness.stats import HostClock, ms, p50
    from harness.steady import Steady
    from harness.tracing import NO_SPANS, Tracer

    workload = {
        w.name: w
        for w in (Steady("inference"), Steady("training"), SelectSweep(), ServeMix())
    }[args.workload]
    tracer = Tracer() if args.trace else NO_SPANS
    clock = HostClock()
    inputs = workload.generate(args.seed, bool(args.quick), args.seconds)

    before = clock.block(9)
    t0 = time.perf_counter()
    cost_models = get_cost_models("cpu", cache_dir=args.cache_dir)
    load_s = time.perf_counter() - t0
    state = workload.setup(inputs, cost_models, tracer)
    setup_s = import_s + time.perf_counter() - t0
    # like every op time, scaled by how slow the host clock ticks around it
    setup_s /= 0.5 * (before + clock.block(9))
    result = {"setup_s": setup_s, "host": _host()}

    try:
        if args.trace:
            push_kernel_wrapper(tracer.kernel_timer)
        measured = workload.measure(state, args.seconds, tracer, clock)
        if args.trace:
            remove_kernel_wrapper(tracer.kernel_timer)
        # before the harness's own reference computations inflate it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check = workload.check(state)
        result.update(
            op_ms=ms(measured["op_seconds"]),  # run.py pools them over its children
            phase_ops=measured["phase_ops"],
            phase_seconds=measured["phase_seconds"],
            peak_rss_mb=peak_rss_mb,
            host_slowdown=p50(clock.ticks),
            attempted=measured["attempted"],
            failed=measured["failed"] + len(check["mismatches"]),
            mismatches=check["mismatches"],
            choices=check["choices"],
            layer=measured["layer"],
        )
        if args.trace:
            layer = result["layer"]
            layer.update(workload.probe(state))
            layer.update(_span_metrics(tracer))
            layer["core.costmodel.load_s"] = load_s
            layer["bench.host_speed_index_ms"] = (
                1e3 * clock.REFERENCE_S * p50(clock.ticks)
            )
            tracer.dump(HERE / "out" / f"trace_{args.workload}.json")
    finally:
        if hasattr(workload, "teardown"):
            workload.teardown(state)
        shutdown_pool()
        release_segments()
    _write(args.result, result)
    return 0


def _span_metrics(tracer) -> dict:
    """Per-layer numbers that come straight from the recorded spans."""
    from harness.stats import p50

    ops = tracer.op_durations()
    n_ops = max(len(ops), 1)
    op_seconds, covered = tracer.coverage()
    kernels = tracer.totals("kernels.")
    kernel_seconds = sum(s for s, _ in kernels.values())
    out = {
        "kernels.registry.dispatch_calls_per_op":
            sum(c for _, c in kernels.values()) / n_ops,
        "kernels.busy_share": kernel_seconds / op_seconds if op_seconds else 0.0,
        "bench.unattributed_share":
            1.0 - covered / op_seconds if op_seconds else 0.0,
    }
    other = kernel_seconds
    for primitive in KERNEL_PRIMITIVES:
        seconds, calls = kernels.get("kernels." + primitive, (0.0, 0))
        out[f"kernels.{primitive}.ms_per_op"] = 1e3 * seconds / n_ops
        out[f"kernels.{primitive}.calls_per_op"] = calls / n_ops
        other -= seconds
    out["kernels.other.ms_per_op"] = 1e3 * other / n_ops
    for stage in ("forward", "backward", "optim"):
        per_op = defaultdict(float)
        for row in tracer.spans:
            if row[0] == "tensor." + stage:
                per_op[row[4]] += row[2] - row[1]
        out[f"tensor.{stage}_ms_p50"] = 1e3 * p50(list(per_op.values()))
    fingerprints = [
        r[2] - r[1] for r in tracer.spans
        if r[0] == "serving.fingerprint" and r[4] in ops
    ]
    out["serving.fingerprint.ms_p50"] = 1e3 * p50(fingerprints)
    out["serving.fingerprint.calls"] = float(len(fingerprints))
    return out


def _host() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')}"


def _write(path: str, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main())
