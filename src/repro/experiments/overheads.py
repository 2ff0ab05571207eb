"""GRANII's decision overheads (§VI-C1 'Overheads').

Two views, matching the paper's accounting:

- the *simulated on-device* overhead (feature extraction passes plus
  cost-model evaluations) expressed in absolute time and as a multiple of
  one GNN iteration on each device;
- the *actual wall-clock* overhead of this implementation's featurizer
  and selection (host Python): one ``GraniiEngine.select`` on an input
  the process has never seen — a fresh adjacency object, so the
  featurizer runs, priced by a model set that has priced nothing, so
  every plan is priced — which is what a new input pays.

Both are one-time costs per input graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from ..core import GraniiEngine, compile_model, select_default_plan
from ..core.costmodel import CostModelSet, get_cost_models
from ..framework import get_system
from ..graphs import EVALUATION_CODES, Graph, load
from ..hardware import DEVICE_NAMES, GraphStats, get_device
from ..models import build_layer
from ..sparse import CSRMatrix
from .common import measured_plan_time, overhead_seconds, shape_env_for
from .report import render_table

__all__ = ["Overheads", "run"]


@dataclass
class Overheads:
    rows: List[Dict]

    def render(self) -> str:
        body = [
            [r["graph"], r["device"], f"{1e3 * r['overhead_s']:.3f}",
             f"{r['iterations_equivalent']:.2f}",
             f"{1e3 * r['wallclock_s']:.1f}"]
            for r in self.rows
        ]
        return render_table(
            ["Graph", "HW", "Overhead (ms, simulated)", "x one iteration",
             "Wall-clock (ms, this impl.)"],
            body,
            title="Decision overheads (one-time per graph)",
        )

    def max_iterations_equivalent(self, device: str) -> float:
        return max(
            r["iterations_equivalent"] for r in self.rows if r["device"] == device
        )


def run(scale: str = "default", in_size: int = 256, out_size: int = 256) -> Overheads:
    rows: List[Dict] = []
    compiled = compile_model("gcn")
    system = get_system("dgl")
    layer = build_layer("gcn", in_size, out_size)
    # the fitted set, fitted (one-time, not selection time) or cached, and
    # a copy of it with an empty price memo: no input is priced before
    fitted = get_cost_models("h100", scale=scale)
    engine = GraniiEngine(
        device="h100", system="dgl", scale=scale,
        cost_models=CostModelSet.from_dict(fitted.to_dict()),
    )
    for code in EVALUATION_CODES:
        graph = load(code, scale)
        stats = GraphStats.from_graph(graph)
        env = shape_env_for(graph, "gcn", in_size, out_size)
        viable = compiled.viable(in_size, out_size)
        # wall-clock of this implementation's featurizer + selection on
        # an adjacency object never seen: select featurizes it
        adj = graph.adj
        fresh = Graph(CSRMatrix(
            adj.indptr.copy(), adj.indices.copy(),
            None if adj.values is None else adj.values.copy(), adj.shape,
        ))
        t0 = time.perf_counter()
        engine.select(compiled, fresh, layer)
        wall = time.perf_counter() - t0
        for device_name in DEVICE_NAMES:
            device = get_device(device_name)
            overhead = overhead_seconds(
                device, stats, graph.num_nodes, env["E"], len(viable)
            )
            default = select_default_plan(compiled, system, in_size, out_size)
            iter_time = measured_plan_time(
                default.plan, env, device, system, stats, count_setup=False
            )
            rows.append(
                {
                    "graph": code,
                    "device": device_name,
                    "overhead_s": overhead,
                    "iterations_equivalent": overhead / iter_time,
                    "wallclock_s": wall,
                }
            )
    return Overheads(rows)
