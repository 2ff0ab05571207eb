"""Profiling-data collection for the cost models (paper §V).

The paper profiles each matrix primitive on SuiteSparse-derived graphs
with embedding sizes from 32 to 2048 and trains one XGBoost model per
(primitive, device).  We do the same against a *timing source*: one of
the analytic device oracles (:class:`~repro.hardware.Device`, the
paper's testbeds) or this host's own kernels
(:class:`~repro.hardware.realexec.RealExecutionBackend`, what ``cpu``
plans run on).  For every training graph and embedding size, emit
representative invocations of each primitive and record their time.  The
training pool is disjoint from the evaluation graphs (the paper's
train/test split).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs import Graph, host_training_graphs, training_graphs
from ..kernels import STRATEGY_PRICING_PRIMITIVES, KernelCall
from .features import call_features, featurize_graph

__all__ = [
    "ProfileDataset",
    "collect_profile",
    "PROFILED_PRIMITIVES",
    "DEFAULT_SIZES",
    "HOST_SIZES",
]

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
# Embedding sizes timed on the host: the widths a layer has there (a
# 2048-wide operand on a 12 000-node graph would take most of the
# profile's time to measure and price nothing the engine asks for).
HOST_SIZES = (8, 16, 32, 64, 128)


@dataclass
class ProfileDataset:
    """Per-primitive (features, log-time) training data.

    ``scale`` names the training pool profiled (``training_graphs``);
    None when the caller chose the graphs.
    """

    features: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    log_times: Dict[str, List[float]] = field(default_factory=dict)
    scale: Optional[str] = None
    # the timing source's label ("analytic" or "host") and the primitives
    # it runs as another one's kernel (alias -> profiled primitive)
    timing: str = "analytic"
    aliases: Dict[str, str] = field(default_factory=dict)

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
    source,
    graphs: Optional[Sequence[Graph]] = None,
    sizes: Optional[Sequence[int]] = None,
    scale: str = "default",
) -> ProfileDataset:
    """Profile all primitives on a training pool against one timing source.

    ``source`` is a :class:`~repro.hardware.Device` (simulated time; the
    pool defaults to :func:`~repro.graphs.training_graphs` and the sizes
    to :data:`DEFAULT_SIZES`) or a
    :class:`~repro.hardware.realexec.RealExecutionBackend` (this host's
    wall clock; :func:`~repro.graphs.host_training_graphs` and
    :data:`HOST_SIZES`).  Each distinct (primitive, shape, graph) is
    timed once, however many rows of the dataset carry it, through the
    source's ``time_each`` (which may leave a task untimed: None, no
    row).  A primitive the source runs as another's kernel
    (``source.same_kernel``) is not profiled: its calls are that one's,
    and the fitted set prices it with that one's model.
    """
    host = source.timing == "host"
    aliases = dict(source.same_kernel)
    dataset = ProfileDataset(timing=source.timing, aliases=aliases)
    if sizes is None:
        sizes = HOST_SIZES if host else DEFAULT_SIZES
    if graphs is None:
        graphs = host_training_graphs(scale) if host else training_graphs(scale)
        dataset.scale = scale
    rows: List[Tuple[KernelCall, np.ndarray, int]] = []
    slots: Dict[tuple, int] = {}
    tasks: List[Tuple[Graph, KernelCall]] = []
    for graph in graphs:
        graph_vec = featurize_graph(graph)
        n = graph.num_nodes
        nnz = max(graph.num_edges, 1)
        for k1 in sizes:
            for k2 in (sizes[0], sizes[len(sizes) // 2], sizes[-1]):
                for call in _representative_calls(n, nnz, k1, k2):
                    if call.primitive in aliases:
                        continue  # the aliased primitive's own calls
                    key = (id(graph), call.primitive, tuple(sorted(call.shape.items())))
                    slot = slots.get(key)
                    if slot is None:
                        slot = slots[key] = len(tasks)
                        tasks.append((graph, call))
                    rows.append((call, graph_vec, slot))
    seconds = source.time_each(tasks)
    for call, graph_vec, slot in rows:
        if seconds[slot] is not None:  # None: the source did not time it
            dataset.add(
                call.primitive, call_features(call, graph_vec), seconds[slot]
            )
    return dataset
