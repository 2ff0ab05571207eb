"""Composing GRANII with kernel fusion (related-work claim, §VII).

The paper argues the optimizations of systems like FusedMM/Graphite
"can compose with GRANII": fusion just adds more candidates for the cost
models to rank.  This experiment compiles GAT with the FusedMM-style
attention-fusion peephole enabled and measures, over the evaluation
grid, the gain of GRANII's fusion-aware selection over (a) the baseline
default and (b) GRANII restricted to unfused candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core import compile_model, select_default_plan
from ..framework import get_system
from ..graphs import EVALUATION_CODES
from ..hardware import get_device
from .common import (
    GAT_EMBEDDING_PAIRS,
    Workload,
    _engine_for,
    _graph_artifacts,
    geomean,
    measured_plan_time,
    shape_env_for,
)
from .report import format_speedup, render_table

__all__ = ["FusionStudy", "run"]


@dataclass
class FusionStudy:
    rows: List[Dict]
    geomean_vs_default: float
    geomean_vs_unfused_granii: float
    fused_chosen_fraction: float

    def render(self) -> str:
        body = [
            [r["graph"], f"({r['in']},{r['out']})", r["chosen"],
             format_speedup(r["vs_default"]), format_speedup(r["vs_unfused"])]
            for r in self.rows
        ]
        body.append(
            ["geomean", "", "", format_speedup(self.geomean_vs_default),
             format_speedup(self.geomean_vs_unfused_granii)]
        )
        return render_table(
            ["Graph", "(in,out)", "chosen", "vs default", "vs unfused GRANII"],
            body,
            title="GAT with FusedMM-style fusion composed into GRANII",
        )


def run(
    device: str = "h100",
    system: str = "dgl",
    scale: str = "default",
    iterations: int = 100,
) -> FusionStudy:
    fused_compiled = compile_model("gat", fusion=True)
    plain_compiled = compile_model("gat")
    dev = get_device(device)
    sys_ = get_system(system)
    engine = _engine_for(
        Workload("gat", "RD", 32, 64, system=system, device=device, scale=scale)
    )
    rows: List[Dict] = []
    vs_default: List[float] = []
    vs_unfused: List[float] = []
    fused_chosen = 0
    for code in EVALUATION_CODES:
        graph, stats, graph_vec = _graph_artifacts(code, scale)
        for k1, k2 in GAT_EMBEDDING_PAIRS:
            env = shape_env_for(graph, "gat", k1, k2)

            def true_time(planned):
                return measured_plan_time(
                    planned.plan, env, dev, sys_, stats, iterations=iterations
                )

            def granii_pick(compiled):
                viable = compiled.viable(k1, k2)
                if len(viable) == 1:
                    return viable[0]
                preds = [
                    engine.predict_plan_cost(p.plan, env, graph_vec) for p in viable
                ]
                return viable[int(np.argmin(preds))]

            default = select_default_plan(plain_compiled, sys_, k1, k2)
            fused_choice = granii_pick(fused_compiled)
            plain_choice = granii_pick(plain_compiled)
            if "fused" in fused_choice.tags.get("gat", ""):
                fused_chosen += 1
            vs_default.append(true_time(default) / true_time(fused_choice))
            vs_unfused.append(true_time(plain_choice) / true_time(fused_choice))
            rows.append(
                {
                    "graph": code,
                    "in": k1,
                    "out": k2,
                    "chosen": fused_choice.label,
                    "vs_default": vs_default[-1],
                    "vs_unfused": vs_unfused[-1],
                }
            )
    return FusionStudy(
        rows=rows,
        geomean_vs_default=geomean(vs_default),
        geomean_vs_unfused_granii=geomean(vs_unfused),
        fused_chosen_fraction=fused_chosen / len(rows),
    )
