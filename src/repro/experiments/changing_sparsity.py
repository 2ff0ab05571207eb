"""Changing sparsity across layers (the §VI-F discussion point).

A hierarchical (pooling) GNN runs each layer on a different graph: the
input graph, then progressively coarsened versions whose density grows.
GRANII needs no new offline work for this — it re-runs only its online
component per (layer, level) — and its decisions *adapt* to each level's
sparsity, which a per-model static choice cannot.

This experiment builds a coarsening hierarchy over a sparse road-network
graph, asks GRANII for a GCN composition at every level, and compares
three strategies on total hierarchy cost:

- ``granii``: per-level online decisions,
- ``frozen``: the level-0 decision applied to every level,
- ``optimal``: per-level hindsight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core import compile_model
from ..core.features import featurize_graph
from ..graphs import Graph, coarsen_hierarchy, load
from ..hardware import GraphStats, get_device
from ..framework import get_system
from .common import Workload, _engine_for, measured_plan_time, shape_env_for
from .report import render_table

__all__ = ["ChangingSparsity", "run"]


@dataclass
class ChangingSparsity:
    rows: List[Dict]
    granii_total: float
    frozen_total: float
    optimal_total: float

    @property
    def adaptivity_gain(self) -> float:
        """How much per-level re-decision buys over freezing level 0."""
        return self.frozen_total / self.granii_total

    def render(self) -> str:
        body = [
            [r["level"], r["nodes"], f"{r['avg_degree']:.1f}",
             r["granii"], r["optimal"],
             f"{1e3 * r['granii_ms']:.3f}", f"{1e3 * r['optimal_ms']:.3f}"]
            for r in self.rows
        ]
        body.append([
            "total", "", "", "", "",
            f"{1e3 * self.granii_total:.3f}",
            f"{1e3 * self.optimal_total:.3f}",
        ])
        return render_table(
            ["Level", "Nodes", "AvgDeg", "GRANII choice", "Optimal",
             "GRANII (ms)", "Optimal (ms)"],
            body,
            title="Changing sparsity across layers (coarsening hierarchy)",
        )


def run(
    graph_code: str = "RD",
    levels: int = 4,
    k1: int = 64,
    k2: int = 64,
    device: str = "h100",
    system: str = "dgl",
    scale: str = "default",
    iterations: int = 100,
) -> ChangingSparsity:
    base = load(graph_code, scale)
    hierarchy = coarsen_hierarchy(base, levels)
    graphs: List[Graph] = [base] + [level.graph for level in hierarchy]
    compiled = compile_model("gcn")
    dev = get_device(device)
    sys_ = get_system(system)
    engine = _engine_for(
        Workload("gcn", graph_code, k1, k2, system=system, device=device, scale=scale)
    )
    viable = compiled.viable(k1, k2)

    rows: List[Dict] = []
    granii_total = frozen_total = optimal_total = 0.0
    frozen_choice = None
    for level, graph in enumerate(graphs):
        env = shape_env_for(graph, "gcn", k1, k2)
        stats = GraphStats.from_graph(graph)
        times = [
            measured_plan_time(p.plan, env, dev, sys_, stats, iterations=iterations)
            for p in viable
        ]
        vec = featurize_graph(graph)
        preds = [engine.predict_plan_cost(p.plan, env, vec) for p in viable]
        chosen = int(np.argmin(preds))
        if frozen_choice is None:
            frozen_choice = chosen
        best = int(np.argmin(times))
        granii_total += times[chosen]
        frozen_total += times[frozen_choice]
        optimal_total += times[best]
        rows.append(
            {
                "level": level,
                "nodes": graph.num_nodes,
                "avg_degree": graph.avg_degree,
                "granii": viable[chosen].label,
                "optimal": viable[best].label,
                "granii_ms": times[chosen],
                "optimal_ms": times[best],
            }
        )
    return ChangingSparsity(rows, granii_total, frozen_total, optimal_total)
