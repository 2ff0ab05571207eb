"""Ablations of GRANII's design choices (the DESIGN.md candidates).

1. **Broadcast rewrite** (Appendix C): without converting row-broadcasts
   into diagonal multiplications, they remain association barriers and
   the SDDMM precomputation is never discovered.
2. **Two-stage decoupling**: offline pruning + cheap conditions vs an
   online-only system that costs *every* enumerated tree, vs an
   offline-only system that never consults the cost models.
3. **Learned vs analytic cost model**: selection by FLOP counts misses
   hardware effects (bandwidth-bound kernels, binning atomics).
4. **Featurizer contents**: graph features matter; zeroing all but the
   call dimensions degrades selection on graph-sensitive cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import compile_model
from ..core.codegen import enumerate_model
from ..core.assoc import enumerate_candidates
from ..core.features import featurize_graph
from ..core.ir import flatten
from ..core.modelir import build_model_ir
from ..core.plan import Plan
from ..framework import get_system
from ..graphs import EVALUATION_CODES
from ..hardware import get_device
from .common import (
    Workload,
    _engine_for,
    _graph_artifacts,
    embedding_pairs_for,
    geomean,
    measured_plan_time,
    model_compile_kwargs,
    shape_env_for,
)

__all__ = [
    "rewrite_ablation",
    "staging_ablation",
    "cost_model_ablation",
    "featurizer_ablation",
]


# ----------------------------------------------------------------------
# 1. broadcast rewrite
# ----------------------------------------------------------------------
@dataclass
class RewriteAblation:
    with_rewrite_candidates: int
    without_rewrite_candidates: int
    with_rewrite_best: float  # best achievable time on a probe cell
    without_rewrite_best: float

    @property
    def rewrite_gain(self) -> float:
        return self.without_rewrite_best / self.with_rewrite_best


def rewrite_ablation(
    model: str = "gcn",
    graph_code: str = "BL",
    in_size: int = 32,
    out_size: int = 32,
    device: str = "a100",
    system: str = "wisegraph",
    scale: str = "default",
) -> RewriteAblation:
    """Enumerate with and without the Appendix C rewrite and compare the
    best achievable composition on a probe cell."""
    compiled = compile_model(model, **model_compile_kwargs(model))
    raw_ir = flatten(build_model_ir(model, **model_compile_kwargs(model)))
    barrier_candidates = enumerate_candidates([raw_ir])
    graph, stats, _ = _graph_artifacts(graph_code, scale)
    env = shape_env_for(graph, model, in_size, out_size)
    dev, sys_ = get_device(device), get_system(system)

    def best_time(candidates) -> float:
        return min(
            measured_plan_time(Plan(c), env, dev, sys_, stats)
            for c in candidates
        )

    return RewriteAblation(
        with_rewrite_candidates=compiled.enumerated_count,
        without_rewrite_candidates=len(barrier_candidates),
        with_rewrite_best=min(
            measured_plan_time(p.plan, env, dev, sys_, stats)
            for p in compiled.promoted
        ),
        without_rewrite_best=best_time(barrier_candidates),
    )


# ----------------------------------------------------------------------
# 2. two-stage decoupling
# ----------------------------------------------------------------------
@dataclass
class StagingAblation:
    two_stage_candidates_costed: int
    online_only_candidates_costed: int
    two_stage_speedup: float
    online_only_speedup: float  # same selections, more costing work
    offline_only_speedup: float  # no cost models at all


def staging_ablation(
    model: str = "gcn",
    device: str = "h100",
    system: str = "dgl",
    scale: str = "default",
) -> StagingAblation:
    compiled = compile_model(model, **model_compile_kwargs(model))
    workloads = [
        Workload(model, code, k1, k2, system=system, device=device, scale=scale)
        for code in EVALUATION_CODES
        for k1, k2 in embedding_pairs_for(model)
    ]
    engine = _engine_for(workloads[0])
    dev, sys_ = get_device(device), get_system(system)
    two_stage, online_only, offline_only = [], [], []
    costed_two_stage = costed_online = 0
    all_plans = [
        Plan(c) for c in enumerate_model(model, **model_compile_kwargs(model))[1]
    ]
    for w in workloads:
        graph, stats, graph_vec = _graph_artifacts(w.graph_code, scale)
        env = shape_env_for(graph, model, w.in_size, w.out_size)

        def true_time(plan: Plan) -> float:
            return measured_plan_time(plan, env, dev, sys_, stats)

        from ..core.codegen import select_default_plan

        default_t = true_time(select_default_plan(compiled, sys_, w.in_size, w.out_size).plan)

        # two-stage: prune offline, cost the viable few
        viable = compiled.viable(w.in_size, w.out_size)
        if len(viable) > 1:
            costs = [engine.predict_plan_cost(p.plan, env, graph_vec) for p in viable]
            chosen = viable[int(np.argmin(costs))].plan
            costed_two_stage += len(viable)
        else:
            chosen = viable[0].plan
        two_stage.append(default_t / true_time(chosen))

        # online-only: cost every enumerated tree
        costs = [engine.predict_plan_cost(p, env, graph_vec) for p in all_plans]
        online_choice = all_plans[int(np.argmin(costs))]
        costed_online += len(all_plans)
        online_only.append(default_t / true_time(online_choice))

        # offline-only: scenario conditions alone; among viable plans pick
        # the structurally cheapest (fewest steps) without any input look
        fallback = min(viable, key=lambda p: len(p.plan.steps)).plan
        offline_only.append(default_t / true_time(fallback))

    return StagingAblation(
        two_stage_candidates_costed=costed_two_stage,
        online_only_candidates_costed=costed_online,
        two_stage_speedup=geomean(two_stage),
        online_only_speedup=geomean(online_only),
        offline_only_speedup=geomean(offline_only),
    )


# ----------------------------------------------------------------------
# 3 & 4. cost model variants
# ----------------------------------------------------------------------
def _selection_quality(
    predictor,
    model: str,
    device: str,
    system: str,
    scale: str,
) -> float:
    """Geomean of (optimal time / chosen time) over a grid — 1.0 is ideal."""
    compiled = compile_model(model, **model_compile_kwargs(model))
    dev, sys_ = get_device(device), get_system(system)
    ratios = []
    for code in EVALUATION_CODES:
        graph, stats, graph_vec = _graph_artifacts(code, scale)
        for k1, k2 in embedding_pairs_for(model):
            env = shape_env_for(graph, model, k1, k2)
            viable = compiled.viable(k1, k2)
            times = [
                measured_plan_time(p.plan, env, dev, sys_, stats) for p in viable
            ]
            scores = [predictor(p.plan, env, graph_vec) for p in viable]
            chosen = int(np.argmin(scores))
            ratios.append(min(times) / times[chosen])
    return geomean(ratios)


@dataclass
class CostModelAblation:
    learned_quality: float
    analytic_quality: float


def cost_model_ablation(
    model: str = "gcn",
    device: str = "a100",
    system: str = "wisegraph",
    scale: str = "default",
) -> CostModelAblation:
    """Learned GBT cost models vs an analytic FLOP-sum cost model."""
    engine = _engine_for(
        Workload(model, "RD", 32, 32, system=system, device=device, scale=scale)
    )

    def learned(plan, env, graph_vec):
        return engine.predict_plan_cost(plan, env, graph_vec)

    def analytic(plan, env, graph_vec):
        setup, per_iter = plan.kernel_calls(env, get_system(system).degree_method)
        return sum(c.flops for c in per_iter) + sum(c.flops for c in setup) / 100.0

    return CostModelAblation(
        learned_quality=_selection_quality(learned, model, device, system, scale),
        analytic_quality=_selection_quality(analytic, model, device, system, scale),
    )


@dataclass
class FeaturizerAblation:
    full_quality: float
    no_graph_features_quality: float


def featurizer_ablation(
    model: str = "gcn",
    device: str = "a100",
    system: str = "wisegraph",
    scale: str = "default",
) -> FeaturizerAblation:
    """Full featurizer vs one with the graph features blanked out.

    Both variants are *trained* the same way; the ablated one predicts
    with the structural graph features zeroed, so it cannot distinguish
    graphs of similar size but different density/skew.
    """
    engine = _engine_for(
        Workload(model, "RD", 32, 32, system=system, device=device, scale=scale)
    )
    num_graph_features = featurize_graph(_graph_artifacts("RD", scale)[0]).shape[0]

    def full(plan, env, graph_vec):
        return engine.predict_plan_cost(plan, env, graph_vec)

    def blanked(plan, env, graph_vec):
        return engine.predict_plan_cost(plan, env, np.zeros(num_graph_features))

    return FeaturizerAblation(
        full_quality=_selection_quality(full, model, device, system, scale),
        no_graph_features_quality=_selection_quality(blanked, model, device, system, scale),
    )
