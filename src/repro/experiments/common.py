"""Shared evaluation machinery for the paper's tables and figures.

All experiments compare three execution strategies for a *workload* —
(model, graph, embedding sizes, system, device, mode):

- **default**: the baseline system's fixed composition (§VI-B),
- **granii**: the composition GRANII's online stage selects (including its
  amortised decision overhead),
- **optimal**: the best promoted composition in hindsight.

"Time" is the deterministic simulated execution time from the device
models (setup amortised over the iteration count, backward pass added in
training mode), which plays the role of the paper's wall-clock
measurements on real CPUs/GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core import GraniiEngine, ShapeEnv, compile_model, select_default_plan
from ..core.codegen import PlannedCandidate
from ..core.costmodel import get_cost_models
from ..core.features import featurize_graph
from ..core.ir import sized_env
from ..core.plan import Plan
from ..framework import System, get_system
from ..graphs import Graph, load
from ..hardware import Device, GraphStats, get_device
from ..kernels import KernelCall

__all__ = [
    "Workload",
    "WorkloadResult",
    "EMBEDDING_PAIRS",
    "GAT_EMBEDDING_PAIRS",
    "embedding_pairs_for",
    "measured_plan_time",
    "overhead_seconds",
    "evaluate_workload",
    "geomean",
    "model_compile_kwargs",
]

# The evaluation embedding grid (paper: 32..2048, increasing / equal /
# decreasing combinations).  GAT is only evaluated on increasing sizes,
# the sole regime where the choice is non-trivial (§VI-B).
EMBEDDING_PAIRS: Tuple[Tuple[int, int], ...] = (
    (32, 32),
    (32, 256),
    (256, 32),
    (256, 256),
    (128, 1024),
    (1024, 128),
    (1024, 1024),
    (2048, 256),
)

GAT_EMBEDDING_PAIRS: Tuple[Tuple[int, int], ...] = (
    (32, 64),
    (32, 256),
    (128, 1024),
    (1024, 2048),
)


def embedding_pairs_for(model: str) -> Tuple[Tuple[int, int], ...]:
    return GAT_EMBEDDING_PAIRS if model == "gat" else EMBEDDING_PAIRS


def model_compile_kwargs(model: str) -> Dict[str, int]:
    return {"hops": 2} if model in ("sgc", "tagcn", "appnp") else {}


@dataclass(frozen=True)
class Workload:
    """One cell of the evaluation grid."""

    model: str
    graph_code: str
    in_size: int
    out_size: int
    system: str = "dgl"
    device: str = "h100"
    mode: str = "inference"  # or 'training'
    iterations: int = 100
    scale: str = "default"

    @property
    def key(self) -> Tuple:
        return (
            self.model, self.graph_code, self.in_size, self.out_size,
            self.system, self.device, self.mode, self.iterations, self.scale,
        )


@dataclass
class WorkloadResult:
    """Per-strategy amortised time (seconds per iteration) for one cell."""

    workload: Workload
    default_seconds: float
    granii_seconds: float
    optimal_seconds: float
    default_label: str
    granii_label: str
    optimal_label: str
    plan_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.default_seconds / self.granii_seconds

    @property
    def optimal_speedup(self) -> float:
        return self.default_seconds / self.optimal_seconds


def shape_env_for(graph: Graph, model: str, in_size: int, out_size: int) -> ShapeEnv:
    from ..models import uses_self_loops

    if uses_self_loops(model):
        nnz = graph.num_edges_with_self_loops()
    else:
        nnz = graph.num_edges
    return sized_env(graph.num_nodes, nnz, in_size, out_size)[0]


def measured_plan_time(
    plan: Plan,
    env: ShapeEnv,
    device: Device,
    system: System,
    stats: GraphStats,
    iterations: int = 100,
    mode: str = "inference",
    count_setup: bool = True,
) -> float:
    """'Ground-truth' amortised per-iteration time of one plan."""
    setup, per_iter = plan.kernel_calls(env, system.degree_method)
    total = sum(
        device.time_call(c, stats) * system.efficiency(c) for c in per_iter
    )
    if mode == "training":
        total += sum(
            device.time_call(c, stats) * system.efficiency(c)
            for c in plan.backward_calls(env)
        )
    if count_setup:
        total += (
            sum(device.time_call(c, stats) * system.efficiency(c) for c in setup)
            / max(iterations, 1)
        )
    return total


def overhead_seconds(
    device: Device, stats: GraphStats, n: int, nnz: int, num_costed: int
) -> float:
    """GRANII's on-device decision overhead (§VI-C1 'Overheads').

    Feature extraction is a handful of O(N+E) passes over the graph;
    selection evaluates the cost models once per costed candidate.
    """
    passes = [
        KernelCall("degree_indptr", {"m": n, "nnz": nnz}),
        KernelCall("edge_softmax", {"m": n, "nnz": nnz}),  # an O(E) pass
        KernelCall("elementwise", {"m": n, "k": 1}),
        KernelCall("elementwise", {"m": n, "k": 1}),
    ]
    feature_time = sum(device.time_call(c, stats) for c in passes)
    # Host-side cost-model evaluations: a few hundred tree traversals per
    # candidate (microseconds each in a compiled GBT implementation).
    selection_time = 2.0e-5 * num_costed
    return feature_time + selection_time


# ----------------------------------------------------------------------
# cached per-graph artifacts
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def _graph_artifacts(graph_code: str, scale: str):
    graph = load(graph_code, scale)
    return graph, GraphStats.from_graph(graph), featurize_graph(graph)


_ENGINES: Dict[Tuple, GraniiEngine] = {}


def _engine_for(workload: Workload) -> GraniiEngine:
    """An engine pricing with the fit of the same analytic oracle the
    workload's times come from (``cpu`` included: its default set is
    fitted to this host's kernels, which these simulated rows do not run)."""
    key = (workload.device, workload.system, workload.mode, workload.iterations, workload.scale)
    if key not in _ENGINES:
        _ENGINES[key] = GraniiEngine(
            device=workload.device,
            system=workload.system,
            iterations=workload.iterations,
            mode=workload.mode,
            scale=workload.scale,
            cost_models=get_cost_models(
                workload.device, workload.scale, timing="analytic"
            ),
        )
    return _ENGINES[key]


def evaluate_workload(workload: Workload) -> WorkloadResult:
    """Measure default vs GRANII vs optimal for one grid cell."""
    graph, stats, graph_vec = _graph_artifacts(workload.graph_code, workload.scale)
    device = get_device(workload.device)
    system = get_system(workload.system)
    compiled = compile_model(workload.model, **model_compile_kwargs(workload.model))
    env = shape_env_for(graph, workload.model, workload.in_size, workload.out_size)

    def true_time(planned: PlannedCandidate) -> float:
        return measured_plan_time(
            planned.plan, env, device, system, stats,
            iterations=workload.iterations, mode=workload.mode,
        )

    plan_seconds = {
        f"{p.label}#{i}": true_time(p) for i, p in enumerate(compiled.promoted)
    }

    # default ----------------------------------------------------------
    default = select_default_plan(
        compiled, system, workload.in_size, workload.out_size
    )
    default_seconds = true_time(default)

    # granii -----------------------------------------------------------
    engine = _engine_for(workload)
    viable = compiled.viable(workload.in_size, workload.out_size)
    if len(viable) == 1:
        chosen = viable[0]
        num_costed = 0
    else:
        costs = [
            engine.predict_plan_cost(p.plan, env, graph_vec) for p in viable
        ]
        chosen = viable[int(np.argmin(costs))]
        num_costed = len(viable)
    granii_seconds = true_time(chosen) + (
        overhead_seconds(device, stats, graph.num_nodes, env["E"], num_costed)
        / max(workload.iterations, 1)
    )

    # optimal ----------------------------------------------------------
    best_idx = int(
        np.argmin([true_time(p) for p in compiled.promoted])
    )
    optimal = compiled.promoted[best_idx]

    return WorkloadResult(
        workload=workload,
        default_seconds=default_seconds,
        granii_seconds=granii_seconds,
        optimal_seconds=true_time(optimal),
        default_label=default.label,
        granii_label=chosen.label,
        optimal_label=optimal.label,
        plan_seconds=plan_seconds,
    )


def geomean(values: Sequence[float]) -> float:
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(values <= 0):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(values))))
