"""End-to-end validation on *real* measurements (no simulator).

The paper's methodology is: profile primitives on real hardware, train
cost models, select compositions for unseen inputs.  This experiment
runs that loop against this repository's actual NumPy kernels on the
host CPU:

1. profile every primitive's wall-clock time on the (disjoint) host
   training pool (:func:`~repro.core.profiler.collect_profile` with a
   :class:`~repro.hardware.realexec.RealExecutionBackend`, the collector
   the ``cpu`` cost models are fitted with);
2. train the per-primitive GBT cost models on those measurements;
3. on held-out evaluation graphs, let the models choose among GCN's
   promoted compositions and compare the choice against the measured
   wall-clock of actually executing each composition, as inference runs
   it (on Tensors, under ``no_grad``).

The reported *selection quality* is geomean(best wall-clock / chosen
wall-clock) — 1.0 means GRANII always picked the truly fastest
composition on real measurements.

Which composition wins here is a property of the host's kernels, not
of the simulated devices — the paper's core claim that the right
composition is hardware-dependent.  With the SpMM fold on SciPy's
``csr_matvecs`` an unweighted aggregation costs what a weighted one does,
so the precomputed normalization usually beats dynamic normalization's
two row broadcasts (docs/PERFORMANCE.md, "Host-timed cost models").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core import compile_model
from ..core.bindings import build_binding
from ..core.costmodel import train_cost_models
from ..core.features import featurize_graph
from ..core.profiler import collect_profile
from ..framework import MPGraph
from ..graphs import load
from ..hardware import time_fn
from ..hardware.realexec import RealExecutionBackend
from ..models import GCNLayer
from ..tensor import Tensor, no_grad
from .common import geomean, shape_env_for
from .report import render_table

__all__ = ["RealValidation", "run"]


@dataclass
class RealValidation:
    rows: List[Dict]
    selection_quality: float  # geomean(best wall / chosen wall)

    def render(self) -> str:
        body = [
            [r["graph"], f"({r['in']},{r['out']})", r["chosen"], r["best"],
             f"{1e3 * r['chosen_ms']:.2f}", f"{1e3 * r['best_ms']:.2f}"]
            for r in self.rows
        ]
        body.append(["geomean quality", "", "", "", "", f"{self.selection_quality:.3f}"])
        return render_table(
            ["Graph", "(in,out)", "chosen", "wall-clock best",
             "chosen (ms)", "best (ms)"],
            body,
            title="Real-execution validation: GRANII on measured NumPy kernels",
        )


def run(
    graph_codes: Tuple[str, ...] = ("CA", "BL", "MC", "AU"),
    pairs: Tuple[Tuple[int, int], ...] = ((32, 32), (64, 128), (128, 32)),
    scale: str = "small",
    seed: int = 0,
) -> RealValidation:
    backend = RealExecutionBackend(seed=seed)
    dataset = collect_profile(backend, sizes=(16, 64, 128), scale=scale)
    # train on real log-times
    models = train_cost_models(backend, dataset, num_rounds=80)

    compiled = compile_model("gcn")
    rng = np.random.default_rng(seed)
    rows: List[Dict] = []
    qualities: List[float] = []
    for code in graph_codes:
        graph = load(code, scale)
        graph_vec = featurize_graph(graph)
        g = MPGraph(graph.adj_with_self_loops())
        for k1, k2 in pairs:
            env = shape_env_for(graph, "gcn", k1, k2)
            layer = GCNLayer(k1, k2, rng=rng)
            feat = Tensor(rng.standard_normal((graph.num_nodes, k1)))
            walls, preds, labels = [], [], []
            for planned in compiled.promoted:
                binding = build_binding(layer, g, feat)
                cache: Dict[str, object] = {}

                def run():
                    with no_grad():
                        planned.plan.execute(binding, setup_cache=cache)

                run()
                wall, _ = time_fn(run, repeats=4)
                setup, per_iter = planned.plan.kernel_calls(env, "indptr")
                pred = models.predict_calls(per_iter, graph_vec)
                walls.append(wall)
                preds.append(pred)
                labels.append(planned.label)
            chosen = int(np.argmin(preds))
            best = int(np.argmin(walls))
            qualities.append(walls[best] / walls[chosen])
            rows.append(
                {
                    "graph": code,
                    "in": k1,
                    "out": k2,
                    "chosen": labels[chosen],
                    "best": labels[best],
                    "chosen_ms": walls[chosen],
                    "best_ms": walls[best],
                }
            )
    return RealValidation(rows, geomean(qualities))
