"""Engine chaos: the guarded runtime under systematic fault schedules.

Each case runs one zoo model under one deterministic fault schedule
(kernel crashes, flaky kernels, silent corruption, stalls,
over-allocation, starved memory budgets) or one malformed input, and
checks the robustness contract end to end:

- every run terminates in either the **correct result** — bit-for-bit
  the guarded model's clean output matches the unoptimized baseline,
  with any failures absorbed as recorded demotions — or a **structured**
  :class:`~repro.errors.GraniiError`;
- **zero** raw errors (``FaultInjected``, ``IndexError``, NumPy
  broadcast errors, ...) escape a guarded executor.

Numerics are checked on a final *clean* call (faults disabled): all
surviving plans compute the same function, so whatever rung the ladder
landed on must reproduce the baseline.  The cases are entries of the
check registry (``chaos/<model>/<schedule>``)::

    PYTHONPATH=src python -m repro.checks --seed 0 --quick --only chaos
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .. import config
from ..core.runtime import GraniiEngine
from ..errors import GraniiError, GraniiInputError
from ..graphs.generators import erdos_renyi
from ..models import build_layer
from . import FaultPlan, fault_injection

__all__ = [
    "ADMISSION_CASES",
    "BAD_OUTCOMES",
    "FAULT_SCHEDULES",
    "chaos_inputs",
    "reference_output",
    "run_admission_case",
    "run_case",
]

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
# malformed inputs the admission gate must reject with GraniiInputError
ADMISSION_CASES = ("input-nan", "input-width", "input-edges")

IN_SIZE, OUT_SIZE = 16, 8
NODES = 300
RUNS = 3  # faulted calls per case

BAD_OUTCOMES = ("raw_escape", "mismatch", "missed_admission")


def chaos_inputs(seed: int):
    """The graph and features every case runs on."""
    graph = erdos_renyi(NODES, avg_degree=8, seed=7)
    feats = np.random.default_rng(seed).standard_normal(
        (graph.num_nodes, IN_SIZE)
    )
    return graph, feats


def reference_output(model_name: str, graph, feats: np.ndarray) -> np.ndarray:
    """The unoptimized baseline's output, which every case must match."""
    baseline = build_layer(
        model_name, IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0)
    )
    return np.asarray(baseline(graph, feats).data)


def _fresh_engine(cost_models) -> GraniiEngine:
    return GraniiEngine(
        device="cpu",
        system="dgl",
        cost_models=cost_models,
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
    try:
        engine = _fresh_engine(cost_models)
        report = engine.optimize(model, graph, feats)
        selection = report.selections[0]
        plan = FaultPlan.from_string(faults, seed=seed)
        with fault_injection(plan):
            for _ in range(RUNS):
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
    except GraniiError as exc:
        record["outcome"] = "structured_error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - the contract violation bucket
        record["outcome"] = "raw_escape"
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        restore()
    return record


def run_admission_case(
    name: str, graph, feats: np.ndarray, cost_models, seed: int
) -> Dict[str, object]:
    """One admission-gate case: a malformed input must raise structured."""
    model = build_layer("gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0))
    record: Dict[str, object] = {
        "model": "gcn", "schedule": name, "seed": seed,
    }
    try:
        engine = _fresh_engine(cost_models)
        engine.optimize(model, graph, feats)
        if name == "input-nan":
            bad = feats.copy()
            bad[3, 2] = np.nan
            model(graph, bad)
        elif name == "input-width":
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
    return record
