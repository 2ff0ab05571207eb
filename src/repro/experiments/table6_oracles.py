"""Table VI: GRANII vs single-factor oracle heuristics (§VI-G).

Each oracle fixes ONE factor and always uses the composition that wins a
majority of the evaluated settings sharing that factor's value:

- ``Config.``: groups by (in, out) embedding sizes,
- ``HW``: groups by device,
- ``Graph``: groups by input graph,
- ``Sys.``: groups by baseline system.

``Optimal`` is per-cell hindsight; ``GRANII`` is the learned selection.
The paper's finding: GRANII beats every oracle, Config. is the best
oracle, and single-factor decisions are insufficient.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..models import MODEL_NAMES
from .common import WorkloadResult, geomean
from .report import format_speedup, render_table
from .sweep import full_sweep

__all__ = ["Table6", "run", "oracle_speedup"]

ORACLES: Dict[str, Callable[[WorkloadResult], object]] = {
    "config": lambda r: (r.workload.in_size, r.workload.out_size),
    "hw": lambda r: r.workload.device,
    "graph": lambda r: r.workload.graph_code,
    "sys": lambda r: r.workload.system,
}


def oracle_speedup(results: List[WorkloadResult], factor) -> float:
    """Geomean speedup of the majority-vote single-factor oracle."""
    groups: Dict[object, List[WorkloadResult]] = defaultdict(list)
    for r in results:
        groups[factor(r)].append(r)
    speedups: List[float] = []
    for group in groups.values():
        # majority vote: the plan that is per-cell best most often
        votes = Counter(
            min(r.plan_seconds, key=r.plan_seconds.get) for r in group
        )
        chosen = votes.most_common(1)[0][0]
        for r in group:
            speedups.append(r.default_seconds / r.plan_seconds[chosen])
    return geomean(speedups)


@dataclass
class Table6:
    rows: Dict[str, Dict[str, float]]  # model -> column -> speedup

    def render(self) -> str:
        headers = ["GNN", "Optimal", "GRANII", "Config.", "HW", "Graph", "Sys."]
        body = []
        for model in MODEL_NAMES:
            row = self.rows[model]
            body.append(
                [model.upper()]
                + [format_speedup(row[c]) for c in
                   ("optimal", "granii", "config", "hw", "graph", "sys")]
            )
        return render_table(
            headers, body, title="Table VI: GRANII vs single-factor oracles"
        )


def run(scale: str = "default", mode: str = "inference") -> Table6:
    sweep = full_sweep(scale)
    rows: Dict[str, Dict[str, float]] = {}
    for model in MODEL_NAMES:
        results = sweep.filtered(model=model, mode=mode)
        row = {
            "optimal": geomean([r.optimal_speedup for r in results]),
            "granii": geomean([r.speedup for r in results]),
        }
        for name, factor in ORACLES.items():
            row[name] = oracle_speedup(results, factor)
        rows[model] = row
    return Table6(rows)
