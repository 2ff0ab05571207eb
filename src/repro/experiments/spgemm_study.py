"""SpGEMM extension study: materialise propagation powers, or not?

With ``compile_model("sgc", spgemm=True)`` GRANII may precompute Ñ² as a
one-time SpGEMM and aggregate with a *single* (denser) SpMM per
iteration, instead of chaining two hops.  The trade is sharply
input-dependent:

- on sparse, local graphs (road networks) Ñ² stays sparse → the
  materialised power wins once the setup amortises over iterations;
- on dense power-law graphs Ñ² explodes toward N² → chaining wins at any
  iteration count.

The study evaluates both regimes at several iteration counts, using the
*exact* nnz(Ñ²) (computed by actually running the SpGEMM once) for
ground truth while GRANII decides from its input-oblivious fill
estimate — so estimation error is part of what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import numpy as np

from ..core import compile_model
from ..core.features import featurize_graph
from ..framework import get_system
from ..graphs import load
from ..graphs.graph import Graph
from ..hardware import GraphStats, get_device
from ..kernels import sampled_power_nnz, spgemm
from ..sparse import CSRMatrix
from .common import Workload, _engine_for, measured_plan_time, shape_env_for
from .report import format_speedup, render_table

__all__ = ["SpgemmStudy", "run", "molecule_batch_graph"]


def molecule_batch_graph(num_molecules: int = 2000, size: int = 8) -> Graph:
    """A batch of small disjoint molecule-like cliques (drug-discovery
    workloads from the paper's §I batch many small graphs into one block-
    diagonal adjacency).  Powers of a disjoint-clique adjacency keep the
    SAME pattern — the regime where materialising Ñ^k is a pure win."""
    n = num_molecules * size
    blocks_i, blocks_j = np.triu_indices(size, k=1)
    offsets = np.repeat(np.arange(num_molecules) * size, blocks_i.shape[0])
    rows = np.concatenate([offsets + np.tile(blocks_i, num_molecules),
                           offsets + np.tile(blocks_j, num_molecules)])
    cols = np.concatenate([offsets + np.tile(blocks_j, num_molecules),
                           offsets + np.tile(blocks_i, num_molecules)])
    adj = CSRMatrix.from_coo(rows, cols, None, (n, n)).unweighted()
    return Graph(adj, name=f"molecule_batch_{num_molecules}x{size}")


@dataclass
class SpgemmStudy:
    rows: List[Dict]

    def render(self) -> str:
        body = [
            [r["graph"], r["iterations"],
             f"{r['fill_ratio']:.1f}x",
             format_speedup(r["materialize_speedup"]),
             r["granii"],
             "yes" if r["granii_correct"] else "no"]
            for r in self.rows
        ]
        return render_table(
            ["Graph", "Iters", "nnz(N^2)/nnz(N)", "materialise speedup",
             "GRANII choice", "correct"],
            body,
            title="SpGEMM extension: materialising SGC's propagation power",
        )

    def cell(self, graph: str, iterations: int) -> Dict:
        return next(
            r for r in self.rows
            if r["graph"] == graph and r["iterations"] == iterations
        )


def run(
    graphs: Tuple[str, ...] = ("MOL", "BL", "RD"),
    iteration_counts: Tuple[int, ...] = (1, 100, 5000),
    device: str = "a100",
    system: str = "dgl",
    scale: str = "default",
) -> SpgemmStudy:
    compiled = compile_model("sgc", spgemm=True, hops=2)
    spgemm_plans = [p for p in compiled.promoted if "spgemm" in p.plan.primitives]
    chain_plans = [p for p in compiled.promoted if "spgemm" not in p.plan.primitives]
    dev, sys_ = get_device(device), get_system(system)
    engine = _engine_for(
        Workload("sgc", "BL", 64, 64, system=system, device=device, scale=scale)
    )
    rows: List[Dict] = []
    for code in graphs:
        if code == "MOL":
            graph = molecule_batch_graph(
                num_molecules=2000 if scale == "default" else 200
            )
        else:
            graph = load(code, scale)
        stats = GraphStats.from_graph(graph)
        adj = graph.adj_with_self_loops()
        exact_sq = spgemm(adj.unweighted(), adj.unweighted())
        graph_vec = featurize_graph(graph)
        for iterations in iteration_counts:
            # ground truth uses the exact fill of the materialised power
            true_env = shape_env_for(graph, "sgc", 64, 64)
            est_env = engine.shape_env(graph, _FakeLayer(64, 64))
            true_env.update(
                {k: v for k, v in est_env.items() if k.startswith("E@")}
            )
            true_env["E@2"] = exact_sq.nnz

            def truth(planned):
                return measured_plan_time(
                    planned.plan, true_env, dev, sys_, stats, iterations=iterations
                )

            best_chain = min(truth(p) for p in chain_plans)
            best_spgemm = min(truth(p) for p in spgemm_plans)
            # GRANII decides from an *inspected* estimate: a 5% row-sample
            # SpGEMM scaled up — cheap, and accurate where the oblivious
            # formula misjudges structured graphs (disjoint cliques)
            est_env["K1"], est_env["K2"] = 64, 64
            est_env["E@2"] = sampled_power_nnz(adj.unweighted(), depth=2)
            engine_iterations = engine.iterations
            engine.iterations = iterations
            try:
                preds = [
                    (
                        engine.predict_plan_cost(p.plan, est_env, graph_vec),
                        "materialise" if "spgemm" in p.plan.primitives else "chain",
                    )
                    for p in compiled.promoted
                ]
            finally:
                engine.iterations = engine_iterations
            granii_choice = min(preds)[1]
            truly_best = "materialise" if best_spgemm < best_chain else "chain"
            rows.append(
                {
                    "graph": code,
                    "iterations": iterations,
                    "fill_ratio": exact_sq.nnz / adj.nnz,
                    "materialize_speedup": best_chain / best_spgemm,
                    "granii": granii_choice,
                    "truly_best": truly_best,
                    "granii_correct": granii_choice == truly_best,
                }
            )
    return SpgemmStudy(rows)


class _FakeLayer:
    """Minimal stand-in giving shape_env the embedding sizes it needs."""

    wants_self_loops = True

    def __init__(self, in_size: int, out_size: int) -> None:
        self.in_size = in_size
        self.out_size = out_size
