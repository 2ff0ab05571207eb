"""Profiling-data collection for the cost models (paper §V).

The paper profiles each matrix primitive on SuiteSparse-derived graphs
with embedding sizes from 32 to 2048 and trains one XGBoost model per
(primitive, device).  We do the same against the device timing oracles:
for every training graph and embedding size, emit representative
invocations of each primitive and record the simulated time.  The
training pool is disjoint from the evaluation graphs (the paper's
train/test split).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs import Graph, training_graphs
from ..hardware import Device, GraphStats
from ..kernels import STRATEGY_PRICING_PRIMITIVES, KernelCall
from .features import call_features, featurize_graph

__all__ = ["ProfileDataset", "collect_profile", "PROFILED_PRIMITIVES", "DEFAULT_SIZES"]

PROFILED_PRIMITIVES = STRATEGY_PRICING_PRIMITIVES + (
    "gemm",
    "sddmm",
    "sddmm_diag",
    "gsddmm_attn",
    "edge_softmax",
    "fused_attn_spmm",
    "spgemm",
    "row_broadcast",
    "elementwise",
    "degree_indptr",
    "degree_binning",
    "diag_mul",
    "spadd_diag",
)

DEFAULT_SIZES = (32, 64, 128, 256, 512, 1024, 2048)


@dataclass
class ProfileDataset:
    """Per-primitive (features, log-time) training data.

    ``scale`` names the training pool profiled (``training_graphs``);
    None when the caller chose the graphs.
    """

    features: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    log_times: Dict[str, List[float]] = field(default_factory=dict)
    scale: Optional[str] = None

    def add(self, primitive: str, feats: np.ndarray, seconds: float) -> None:
        self.features.setdefault(primitive, []).append(feats)
        self.log_times.setdefault(primitive, []).append(float(np.log(seconds)))

    def matrices(self, primitive: str) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.stack(self.features[primitive]),
            np.array(self.log_times[primitive]),
        )

    @property
    def primitives(self) -> Tuple[str, ...]:
        return tuple(sorted(self.features))

    def size(self, primitive: str) -> int:
        return len(self.features.get(primitive, []))


def _representative_calls(
    n: int, nnz: int, k1: int, k2: int
) -> List[KernelCall]:
    """The primitive invocations a GNN layer of this shape would issue."""
    aggregations = [
        KernelCall(primitive, {"m": n, "nnz": nnz, "k": k})
        for primitive in STRATEGY_PRICING_PRIMITIVES
        for k in (k1, k2)
    ]
    return aggregations + [
        KernelCall("gemm", {"m": n, "k": k1, "n": k2}),
        KernelCall("gemm", {"m": n, "k": k2, "n": 1}),
        KernelCall("sddmm", {"m": n, "nnz": nnz, "k": k1}),
        KernelCall("sddmm_diag", {"m": n, "nnz": nnz}),
        KernelCall("gsddmm_attn", {"m": n, "nnz": nnz}),
        KernelCall("edge_softmax", {"m": n, "nnz": nnz}),
        KernelCall("fused_attn_spmm", {"m": n, "nnz": nnz, "k": k1}),
        KernelCall("fused_attn_spmm", {"m": n, "nnz": nnz, "k": k2}),
        KernelCall("spgemm", {
            "m": n, "nnz": nnz, "nnz_rhs": nnz,
            "nnz_out": min(nnz * max(nnz // max(n, 1), 1), n * n),
        }),
        KernelCall("row_broadcast", {"m": n, "k": k1}),
        KernelCall("row_broadcast", {"m": n, "k": k2}),
        KernelCall("elementwise", {"m": n, "k": k2}),
        KernelCall("elementwise", {"m": n, "k": 1}),
        KernelCall("degree_indptr", {"m": n, "nnz": nnz}),
        KernelCall("degree_binning", {"m": n, "nnz": nnz}),
        KernelCall("diag_mul", {"m": n}),
        KernelCall("spadd_diag", {"m": n, "nnz": nnz}),
    ]


def collect_profile(
    device: Device,
    graphs: Optional[Sequence[Graph]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    scale: str = "default",
) -> ProfileDataset:
    """Profile all primitives on the training pool for one device."""
    dataset = ProfileDataset()
    if graphs is None:
        graphs = training_graphs(scale=scale)
        dataset.scale = scale
    for graph in graphs:
        stats = GraphStats.from_graph(graph)
        graph_vec = featurize_graph(graph)
        n = graph.num_nodes
        nnz = max(graph.num_edges, 1)
        for k1 in sizes:
            for k2 in (sizes[0], sizes[len(sizes) // 2], sizes[-1]):
                for call in _representative_calls(n, nnz, k1, k2):
                    seconds = device.time_call(call, stats)
                    dataset.add(
                        call.primitive, call_features(call, graph_vec), seconds
                    )
    return dataset
