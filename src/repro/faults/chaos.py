"""Chaos driver: the guarded runtime under systematic fault schedules.

Runs every model in the zoo under a battery of deterministic fault
schedules (kernel crashes, flaky kernels, silent corruption, stalls,
over-allocation, poisoned inputs, starved memory budgets) and verifies
the robustness contract end to end:

- every run terminates in either the **correct result** — bit-for-bit
  the guarded model's clean output matches the unoptimized baseline,
  with any failures absorbed as recorded demotions — or a **structured**
  :class:`~repro.errors.GraniiError`;
- **zero** raw errors (``FaultInjected``, ``IndexError``, NumPy
  broadcast errors, ...) escape a guarded executor.

Numerics are checked on a final *clean* call (faults disabled): all
surviving plans compute the same function, so whatever rung the ladder
landed on must reproduce the baseline.  Exit status is non-zero if any
schedule escapes or mismatches, which makes this directly usable as a CI
job::

    PYTHONPATH=src python -m repro.faults.chaos --seed 0 --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import config
from ..core.costmodel import get_cost_models
from ..core.runtime import GraniiEngine
from ..errors import GraniiError, GraniiInputError
from ..graphs.generators import erdos_renyi
from ..models import MODEL_NAMES, build_layer
from . import FaultPlan, fault_injection

__all__ = ["main", "run_case", "FAULT_SCHEDULES"]

# name -> (fault rules, extra env overrides for the case)
FAULT_SCHEDULES: List[Tuple[str, str, Dict[str, str]]] = [
    ("spmm-crash", "spmm:raise:1.0,spmm_unweighted:raise:1.0", {}),
    ("spmm-flaky", "spmm:raise:0.5,spmm_unweighted:raise:0.5", {}),
    ("any-crash", "*:raise:0.3", {}),
    ("corrupt", "spmm:corrupt:1.0,spmm_unweighted:corrupt:1.0", {}),
    ("stall", "spmm:slow:1.0:0.4,spmm_unweighted:slow:1.0:0.4",
     {"REPRO_DEADLINE_FLOOR_MS": "150"}),
    ("overalloc", "spmm:overalloc:1.0,spmm_unweighted:overalloc:1.0", {}),
    ("mem-starved", "", {"REPRO_MEM_BUDGET_MB": "0.01"}),
]
QUICK_SCHEDULES = ("spmm-crash", "any-crash", "corrupt", "mem-starved")
QUICK_MODELS = ("gcn", "gat")

IN_SIZE, OUT_SIZE = 16, 8


def _fresh_engine(cost_models) -> GraniiEngine:
    return GraniiEngine(
        device="cpu",
        system="dgl",
        cost_models=cost_models,
        spmm_strategy="auto",
        verify_plans=True,  # the only defense against silent corruption
        guarded=True,
    )


def run_case(
    model_name: str,
    schedule: str,
    faults: str,
    env: Dict[str, str],
    graph,
    feats: np.ndarray,
    reference: np.ndarray,
    cost_models,
    seed: int,
    runs: int,
) -> Dict[str, object]:
    """One (model, fault schedule) chaos run; returns a result record.

    Outcomes: ``ok_plan`` (correct, no demotions), ``ok_fallback``
    (correct via recorded demotions), ``structured_error`` (a
    :class:`GraniiError` surfaced), ``mismatch`` / ``raw_escape``
    (contract violations).
    """
    model = build_layer(
        model_name, IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0)
    )
    restore = config.override_env(env)
    record: Dict[str, object] = {
        "model": model_name,
        "schedule": schedule,
        "seed": seed,
    }
    t0 = time.perf_counter()
    try:
        engine = _fresh_engine(cost_models)
        report = engine.optimize(model, graph, feats)
        selection = report.selections[0]
        plan = FaultPlan.from_string(faults, seed=seed)
        with fault_injection(plan):
            for _ in range(runs):
                model(graph, feats)
        # clean verification call: faults off, whatever rung survived
        # must reproduce the baseline (all plans compute the same function)
        out = model(graph, feats)
        out_data = np.asarray(getattr(out, "data", out))
        if np.allclose(out_data, reference, rtol=1e-4, atol=1e-6):
            record["outcome"] = (
                "ok_fallback" if selection.demotions else "ok_plan"
            )
        else:
            record["outcome"] = "mismatch"
            record["max_abs_err"] = float(
                np.max(np.abs(out_data - reference))
            )
        record["demotions"] = [d.describe() for d in selection.demotions]
        record["faults_fired"] = int(sum(plan.fired.values()))
        record["breakers"] = selection.breaker_state
    except GraniiError as exc:
        record["outcome"] = "structured_error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - the contract violation bucket
        record["outcome"] = "raw_escape"
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        restore()
    record["seconds"] = round(time.perf_counter() - t0, 3)
    return record


def _input_cases(graph, feats, cost_models, seed: int) -> List[Dict[str, object]]:
    """Admission-gate scenarios: malformed inputs must raise structured."""
    records = []
    for name, mutate in (
        ("input-nan", "nan"),
        ("input-width", "width"),
        ("input-edges", "edges"),
    ):
        model = build_layer("gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0))
        record: Dict[str, object] = {
            "model": "gcn", "schedule": name, "seed": seed,
        }
        try:
            engine = _fresh_engine(cost_models)
            engine.optimize(model, graph, feats)
            if mutate == "nan":
                bad = feats.copy()
                bad[3, 2] = np.nan
                model(graph, bad)
            elif mutate == "width":
                model(graph, feats[:, : IN_SIZE // 2].copy())
            else:
                mp = model.as_mp_graph(graph)
                saved = int(mp.adj.indices[0])
                mp.adj.indices[0] = graph.num_nodes + 7
                try:
                    model(graph, feats)
                finally:
                    mp.adj.indices[0] = saved
            record["outcome"] = "missed_admission"  # no error raised
        except GraniiInputError as exc:
            record["outcome"] = "ok_structured"
            record["error"] = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001
            record["outcome"] = "raw_escape"
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return records


BAD_OUTCOMES = ("raw_escape", "mismatch", "missed_admission")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.chaos", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--seed", type=int, default=0, help="fault RNG seed")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced model/schedule matrix (CI smoke)",
    )
    parser.add_argument(
        "--models", default="", help="comma-separated model subset"
    )
    parser.add_argument(
        "--runs", type=int, default=3, help="faulted calls per case"
    )
    parser.add_argument(
        "--nodes", type=int, default=300, help="synthetic graph size"
    )
    parser.add_argument("--output", default="", help="write results JSON here")
    args = parser.parse_args(argv)

    models = [m for m in args.models.split(",") if m] or list(
        QUICK_MODELS if args.quick else MODEL_NAMES
    )
    schedules = [
        s for s in FAULT_SCHEDULES
        if not args.quick or s[0] in QUICK_SCHEDULES
    ]

    graph = erdos_renyi(args.nodes, avg_degree=8, seed=7)
    rng = np.random.default_rng(args.seed)
    feats = rng.standard_normal((graph.num_nodes, IN_SIZE))
    cost_models = get_cost_models("cpu")

    results: List[Dict[str, object]] = []
    for model_name in models:
        baseline = build_layer(
            model_name, IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0)
        )
        reference = np.asarray(baseline(graph, feats).data)
        for schedule, faults, env in schedules:
            record = run_case(
                model_name, schedule, faults, env, graph, feats,
                reference, cost_models, args.seed, args.runs,
            )
            results.append(record)
            print(
                f"{record['model']:>6} | {record['schedule']:<12} -> "
                f"{record['outcome']:<16} "
                f"(demotions={len(record.get('demotions', []))}, "
                f"faults={record.get('faults_fired', 0)}, "
                f"{record['seconds']}s)"
            )
    for record in _input_cases(graph, feats, cost_models, args.seed):
        results.append(record)
        print(
            f"{record['model']:>6} | {record['schedule']:<12} -> "
            f"{record['outcome']}"
        )

    counts: Dict[str, int] = {}
    for record in results:
        counts[str(record["outcome"])] = counts.get(str(record["outcome"]), 0) + 1
    bad = [r for r in results if r["outcome"] in BAD_OUTCOMES]
    print(
        f"\n{len(results)} cases: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    if bad:
        print(f"CONTRACT VIOLATIONS ({len(bad)}):")
        for record in bad:
            print(f"  {record['model']}/{record['schedule']}: "
                  f"{record.get('error', record['outcome'])}")
    else:
        print("contract held: every case recovered or raised structured.")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.output}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
