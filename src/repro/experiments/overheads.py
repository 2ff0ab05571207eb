"""GRANII's decision overheads (§VI-C1 'Overheads').

Two views, matching the paper's accounting:

- the *simulated on-device* overhead (feature extraction passes plus
  cost-model evaluations) expressed in absolute time and as a multiple of
  one GNN iteration on each device;
- the *actual wall-clock* overhead of this implementation's featurizer
  and selection (host Python), as measured by the runtime engine.

Both are one-time costs per input graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from ..core import GraniiEngine, compile_model, select_default_plan
from ..core.features import featurize_graph
from ..framework import get_system
from ..graphs import EVALUATION_CODES, load
from ..hardware import DEVICE_NAMES, GraphStats, get_device
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
    for code in EVALUATION_CODES:
        graph = load(code, scale)
        stats = GraphStats.from_graph(graph)
        env = shape_env_for(graph, "gcn", in_size, out_size)
        # wall-clock of this implementation's featurizer + selection
        t0 = time.perf_counter()
        graph_vec = featurize_graph(graph)
        wall_feature = time.perf_counter() - t0
        engine = GraniiEngine(device="h100", system="dgl", scale=scale)
        _ = engine.cost_models  # the one-time fit is not selection time
        viable = compiled.viable(in_size, out_size)
        t1 = time.perf_counter()
        for planned in viable:
            engine.predict_plan_cost(planned.plan, env, graph_vec)
        wall_select = time.perf_counter() - t1
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
                    "wallclock_s": wall_feature + wall_select,
                }
            )
    return Overheads(rows)
