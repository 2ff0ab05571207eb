"""Multi-layer evaluation shared by Table IV and Table V.

A stack of L layers is timed as the sum of per-layer iteration times plus
*deduplicated* setup costs: graph-only precomputation (the normalized
adjacency Ñ, GIN's B) is shared across layers and iterations, exactly as
a real implementation would cache it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core import compile_model, select_default_plan
from ..core.codegen import PlannedCandidate
from ..framework import get_system
from ..hardware import get_device
from .common import (
    _engine_for,
    _graph_artifacts,
    Workload,
    model_compile_kwargs,
    overhead_seconds,
    shape_env_for,
)

__all__ = ["MultiLayerTiming", "evaluate_multilayer"]


@dataclass
class MultiLayerTiming:
    """Per-strategy amortised per-iteration seconds for a layer stack."""

    default_seconds: float
    granii_seconds: float
    layer_labels_default: List[str]
    layer_labels_granii: List[str]

    @property
    def speedup(self) -> float:
        return self.default_seconds / self.granii_seconds


def _stack_time(
    chosen: Sequence[Tuple[PlannedCandidate, object]],
    device,
    system,
    stats,
    iterations: int,
    mode: str,
) -> float:
    per_iter_total = 0.0
    setup_seen: Dict[tuple, float] = {}
    for i, (planned, env) in enumerate(chosen):
        setup, per_iter = planned.plan.kernel_calls(env, system.degree_method)
        per_iter_total += sum(
            device.time_call(c, stats) * system.efficiency(c) for c in per_iter
        )
        if mode == "training":
            per_iter_total += sum(
                device.time_call(c, stats) * system.efficiency(c)
                for c in planned.plan.backward_calls(env, input_grad=i > 0)
            )
        for call in setup:
            key = (call.primitive, tuple(sorted(call.shape.items())))
            if key not in setup_seen:
                setup_seen[key] = (
                    device.time_call(call, stats) * system.efficiency(call)
                )
    return per_iter_total + sum(setup_seen.values()) / max(iterations, 1)


def evaluate_multilayer(
    model: str,
    graph_code: str,
    layer_dims: Sequence[int],
    system: str = "wisegraph",
    device: str = "h100",
    mode: str = "inference",
    iterations: int = 100,
    scale: str = "default",
) -> MultiLayerTiming:
    """Time a multi-layer stack under the default vs GRANII strategies.

    ``layer_dims`` is [in, hidden..., out]; layer i maps dims[i]→dims[i+1].
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least (in, out) dims")
    graph, stats, graph_vec = _graph_artifacts(graph_code, scale)
    dev = get_device(device)
    sys_ = get_system(system)
    compiled = compile_model(model, **model_compile_kwargs(model))
    engine = _engine_for(
        Workload(model, graph_code, layer_dims[0], layer_dims[-1],
                 system=system, device=device, mode=mode,
                 iterations=iterations, scale=scale)
    )

    default_chain: List[Tuple[PlannedCandidate, object]] = []
    granii_chain: List[Tuple[PlannedCandidate, object]] = []
    num_costed = 0
    for i, (k1, k2) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        env = shape_env_for(graph, model, k1, k2)
        default_chain.append(
            (select_default_plan(compiled, sys_, k1, k2), env)
        )
        viable = compiled.viable(k1, k2)
        if len(viable) == 1:
            chosen = viable[0]
        else:
            # the stack's input features carry no gradient: only layers
            # after the first price the input-gradient kernels
            costs = [
                engine.predict_plan_cost(p.plan, env, graph_vec, input_grad=i > 0)
                for p in viable
            ]
            chosen = viable[int(np.argmin(costs))]
            num_costed += len(viable)
        granii_chain.append((chosen, env))

    default_seconds = _stack_time(default_chain, dev, sys_, stats, iterations, mode)
    granii_seconds = _stack_time(granii_chain, dev, sys_, stats, iterations, mode)
    granii_seconds += overhead_seconds(
        dev, stats, graph.num_nodes, graph.num_edges_with_self_loops(), num_costed
    ) / max(iterations, 1)
    return MultiLayerTiming(
        default_seconds=default_seconds,
        granii_seconds=granii_seconds,
        layer_labels_default=[p.label for p, _ in default_chain],
        layer_labels_granii=[p.label for p, _ in granii_chain],
    )
