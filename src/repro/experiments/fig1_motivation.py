"""Figure 1: speedup of increasingly input-aware selection strategies.

For GCN across graphs and embedding sizes, three strategies over the
*static* single-ordering baseline:

- ``static``: one fixed primitive ordering regardless of input,
- ``config``: ordering chosen from model configuration only (embedding
  sizes, Yan et al. [17]),
- ``all``: GRANII — configuration *and* input-graph aware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core import compile_model
from ..framework import get_system
from ..graphs import EVALUATION_CODES
from ..hardware import get_device
from .common import (
    EMBEDDING_PAIRS,
    Workload,
    _graph_artifacts,
    evaluate_workload,
    geomean,
    measured_plan_time,
    shape_env_for,
)
from .report import format_speedup, render_table

__all__ = ["Figure1", "run"]


@dataclass
class Figure1:
    per_cell: List[Dict]
    geomean_config: float
    geomean_all: float

    def render(self) -> str:
        rows = [
            [c["graph"], f"({c['in']},{c['out']})",
             format_speedup(c["config"]), format_speedup(c["all"])]
            for c in self.per_cell
        ]
        rows.append(
            ["geomean", "", format_speedup(self.geomean_config),
             format_speedup(self.geomean_all)]
        )
        return render_table(
            ["Graph", "(in,out)", "config", "all"],
            rows,
            title="Figure 1: GCN speedup over the static ordering",
        )


def run(scale: str = "default", device: str = "h100", system: str = "dgl") -> Figure1:
    compiled = compile_model("gcn")
    dev = get_device(device)
    sys_ = get_system(system)
    # static = the written message-passing order: dynamic, aggregate-first
    static = compiled.find(norm="dynamic", order="agg_first")[0]
    per_cell: List[Dict] = []
    for code in EVALUATION_CODES:
        graph, stats, _ = _graph_artifacts(code, scale)
        for k1, k2 in EMBEDDING_PAIRS:
            env = shape_env_for(graph, "gcn", k1, k2)
            static_t = measured_plan_time(static.plan, env, dev, sys_, stats)
            # config: reorder GEMM by embedding sizes, stay dynamic
            order = "update_first" if k1 >= k2 else "agg_first"
            config = compiled.find(norm="dynamic", order=order)[0]
            config_t = measured_plan_time(config.plan, env, dev, sys_, stats)
            # all: GRANII's input-aware choice (with its overhead)
            result = evaluate_workload(
                Workload("gcn", code, k1, k2, system=system, device=device, scale=scale)
            )
            granii_t = result.granii_seconds
            per_cell.append(
                {
                    "graph": code,
                    "in": k1,
                    "out": k2,
                    "config": static_t / config_t,
                    "all": static_t / granii_t,
                }
            )
    return Figure1(
        per_cell=per_cell,
        geomean_config=geomean([c["config"] for c in per_cell]),
        geomean_all=geomean([c["all"] for c in per_cell]),
    )
