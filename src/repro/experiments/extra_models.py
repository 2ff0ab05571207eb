"""Beyond-paper models: GraphSAGE and APPNP across the evaluation grid.

The paper demonstrates generalizability with TAGCN and SGC (§VI-B); this
supplementary table extends the same evidence to two further model
families GRANII was never tuned for — GraphSAGE's two-branch update and
APPNP's teleport propagation — using exactly the same offline/online
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .report import format_speedup, render_table
from .sweep import SweepResult, run_sweep, sweep_workloads

__all__ = ["ExtraModels", "run", "EXTRA_MODELS"]

EXTRA_MODELS: Tuple[str, ...] = ("sage", "appnp")


@dataclass
class ExtraModels:
    sweep: SweepResult

    def geomean_for(self, model: str, **attrs) -> float:
        return self.sweep.geomean_speedup(model=model, **attrs)

    def render(self) -> str:
        body = []
        for model in EXTRA_MODELS:
            for system, device in (("wisegraph", "a100"), ("dgl", "h100"), ("dgl", "cpu")):
                body.append(
                    [
                        model.upper(), system, device,
                        format_speedup(
                            self.geomean_for(model, system=system, device=device)
                        ),
                        format_speedup(
                            self.sweep.geomean_optimal_speedup(
                                model=model, system=system, device=device
                            )
                        ),
                    ]
                )
        return render_table(
            ["Model", "System", "HW", "GRANII", "Optimal"],
            body,
            title="Beyond-paper models: GraphSAGE and APPNP (inference geomeans)",
        )


def run(scale: str = "default", iterations: int = 100) -> ExtraModels:
    workloads = sweep_workloads(
        models=EXTRA_MODELS,
        grid=(("wisegraph", "a100"), ("dgl", "h100"), ("dgl", "cpu")),
        modes=("inference",),
        scale=scale,
        iterations=iterations,
    )
    return ExtraModels(run_sweep(workloads))
