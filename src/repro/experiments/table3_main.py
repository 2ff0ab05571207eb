"""Table III: geomean speedups across systems, hardware, modes, models.

Reproduces the paper's headline table — per (system, hardware, mode) rows
with per-model geomean speedups of GRANII over the system default, plus
the overall inference/training geomeans (paper: 1.56× / 1.4×).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..models import MODEL_NAMES
from .report import format_speedup, render_table
from .sweep import SYSTEM_DEVICE_GRID, full_sweep

__all__ = ["Table3Row", "Table3", "run"]


@dataclass
class Table3Row:
    system: str
    device: str
    mode: str
    overall: float
    per_model: Dict[str, float]


@dataclass
class Table3:
    rows: List[Table3Row]
    overall_inference: float
    overall_training: float
    per_model_inference: Dict[str, float]
    per_model_training: Dict[str, float]

    def render(self) -> str:
        headers = ["System", "HW", "Mode", "Overall"] + [m.upper() for m in MODEL_NAMES]
        body = []
        for row in self.rows:
            body.append(
                [row.system, row.device, row.mode[0].upper(), format_speedup(row.overall)]
                + [format_speedup(row.per_model[m]) for m in MODEL_NAMES]
            )
        body.append(
            ["Overall", "", "I", format_speedup(self.overall_inference)]
            + [format_speedup(self.per_model_inference[m]) for m in MODEL_NAMES]
        )
        body.append(
            ["Overall", "", "T", format_speedup(self.overall_training)]
            + [format_speedup(self.per_model_training[m]) for m in MODEL_NAMES]
        )
        return render_table(
            headers, body,
            title="Table III: geomean speedups of GRANII (100 iterations)",
        )


def run(scale: str = "default") -> Table3:
    sweep = full_sweep(scale)
    rows: List[Table3Row] = []
    for system, device in SYSTEM_DEVICE_GRID:
        for mode in ("inference", "training"):
            per_model = {
                m: sweep.geomean_speedup(
                    system=system, device=device, mode=mode, model=m
                )
                for m in MODEL_NAMES
            }
            overall = sweep.geomean_speedup(
                system=system, device=device, mode=mode
            )
            rows.append(Table3Row(system, device, mode, overall, per_model))
    return Table3(
        rows=rows,
        overall_inference=sweep.geomean_speedup(mode="inference"),
        overall_training=sweep.geomean_speedup(mode="training"),
        per_model_inference={
            m: sweep.geomean_speedup(mode="inference", model=m) for m in MODEL_NAMES
        },
        per_model_training={
            m: sweep.geomean_speedup(mode="training", model=m) for m in MODEL_NAMES
        },
    )
