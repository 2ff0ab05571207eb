"""System personalities: the DGL-like and WiseGraph-like baselines.

The paper evaluates GRANII against two underlying GNN systems whose
*default* primitive compositions differ (§VI-B, §VI-C1):

- **DGL** (v2.4): dynamic-normalization GCN with degrees read from the CSR
  row pointer; GIN/SGC never reorder the update GEMM; GAT always *reuses*
  the updated features.
- **WiseGraph**: computes normalization degrees with a PyTorch *binning*
  function (atomics-heavy on dense graphs); applies configuration-based
  operator reordering (update-first when the embedding size shrinks,
  after Yan et al. [17]); GAT *recomputes* the updated features whenever
  the embedding size grows.

A ``System`` bundles those default choices plus a per-kind kernel
efficiency factor (WiseGraph's joint workload partitioning makes its
sparse kernels slightly faster), which the evaluation harness folds into
simulated kernel times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..kernels import KernelCall

__all__ = ["System", "SYSTEMS", "get_system", "SYSTEM_NAMES"]


@dataclass(frozen=True)
class System:
    """One baseline GNN framework's default behaviour.

    ``reorder_models`` lists the models whose shipped implementation
    applies the configuration-based GEMM reordering of Yan et al. [17];
    §VI-C1 notes DGL's GCN does but its GIN/SGC do not, while WiseGraph
    reorders throughout.
    """

    name: str
    degree_method: str  # 'indptr' | 'binning'
    reorder_models: frozenset  # models with config-based GEMM reordering
    gat_policy: str  # 'reuse' | 'config'
    gcn_default: str  # 'dynamic' | 'precompute'
    kind_efficiency: Dict[str, float] = field(default_factory=dict)

    def efficiency(self, call: KernelCall) -> float:
        """Multiplier on simulated kernel time for this system's kernels."""
        return self.kind_factor(call.kind)

    def kind_factor(self, kind: str) -> float:
        """:meth:`efficiency` of any call of one kind (``call.kind``)."""
        return self.kind_efficiency.get(kind, 1.0)

    def default_gemm_first(self, model: str, in_size: int, out_size: int) -> bool:
        """Whether the baseline runs the update GEMM before aggregation."""
        if model.lower() in self.reorder_models:
            # Yan et al. [17]: update first when it shrinks the embedding.
            return in_size > out_size
        return False

    def default_gat_recompute(self, in_size: int, out_size: int) -> bool:
        """Whether the baseline GAT recomputes Θ during aggregation."""
        if self.gat_policy == "config":
            return in_size < out_size
        return False


SYSTEMS: Dict[str, System] = {
    "dgl": System(
        name="dgl",
        degree_method="indptr",
        reorder_models=frozenset({"gcn"}),
        gat_policy="reuse",
        gcn_default="dynamic",
        kind_efficiency={"sparse": 1.0, "dense": 1.0},
    ),
    "wisegraph": System(
        name="wisegraph",
        degree_method="binning",
        reorder_models=frozenset({"gcn", "gin", "sgc", "tagcn"}),
        gat_policy="config",
        gcn_default="dynamic",
        kind_efficiency={"sparse": 0.88, "dense": 0.97},
    ),
}

SYSTEM_NAMES: Tuple[str, ...] = tuple(SYSTEMS)


def get_system(name: str) -> System:
    name = name.lower()
    if name not in SYSTEMS:
        raise KeyError(f"unknown system {name!r}; choices: {SYSTEM_NAMES}")
    return SYSTEMS[name]
