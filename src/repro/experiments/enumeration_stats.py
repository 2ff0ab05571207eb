"""Enumeration and pruning statistics (§VI-B).

The paper reports, for GCN / GAT / GIN, the number of compositions found
through re-association and the number removed by offline pruning:
12 & 8, 2 & 0, 8 & 4.  Rule vocabularies differ slightly between any two
implementations, so exact equality is not expected; the structural facts
that must hold are (a) GAT enumerates exactly two compositions with
nothing pruned, and (b) pruning removes a large majority of GCN's (and
the hop-models') trees while keeping both normalization strategies and
both GEMM placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core import compile_model
from ..models import MODEL_NAMES
from .common import model_compile_kwargs
from .report import render_table

__all__ = ["EnumerationStats", "run", "PAPER_COUNTS"]

# (enumerated, pruned-away) from §VI-B of the paper
PAPER_COUNTS: Dict[str, Tuple[int, int]] = {
    "gcn": (12, 8),
    "gat": (2, 0),
    "gin": (8, 4),
}


@dataclass
class EnumerationStats:
    rows: List[Dict]

    def render(self) -> str:
        body = []
        for r in self.rows:
            paper = PAPER_COUNTS.get(r["model"])
            body.append(
                [
                    r["model"].upper(),
                    r["enumerated"],
                    r["pruned"],
                    r["promoted"],
                    f"{paper[0]} / {paper[1]}" if paper else "-",
                ]
            )
        return render_table(
            ["Model", "Enumerated", "Pruned", "Promoted", "Paper (enum/pruned)"],
            body,
            title="Enumeration & pruning statistics (§VI-B)",
        )

    def for_model(self, model: str) -> Dict:
        return next(r for r in self.rows if r["model"] == model)


def run() -> EnumerationStats:
    rows: List[Dict] = []
    for model in MODEL_NAMES:
        compiled = compile_model(model, **model_compile_kwargs(model))
        rows.append(
            {
                "model": model,
                "enumerated": compiled.enumerated_count,
                "pruned": compiled.pruned_count,
                "promoted": len(compiled.promoted),
            }
        )
    return EnumerationStats(rows)
