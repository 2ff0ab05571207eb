"""Real-execution backend: wall-clock profiling of the NumPy kernels.

The simulated cpu/a100/h100 devices reproduce the paper's testbeds; this
backend instead treats *this repository's own NumPy kernels on the host
CPU* as a fourth target.  Profiling a :class:`~repro.kernels.registry.
KernelCall` here actually executes the matching kernel on operands drawn
from a real graph and measures wall-clock time — which is how the paper
gathers its training data (§V), and what lets the validation experiment
show GRANII's methodology working end-to-end on genuine measurements.
"""

from __future__ import annotations

import weakref
from typing import Dict

import numpy as np

from ..graphs import Graph
from ..kernels import (
    STRATEGY_PRICING_PRIMITIVES,
    KernelCall,
    degrees_by_binning,
    degrees_from_indptr,
    edge_softmax,
    gemm,
    gsddmm,
    row_broadcast,
    sddmm,
    sddmm_diag_scale,
    spadd_diag,
    spmm,
    spmm_unweighted,
)
from ..sparse import CSRMatrix, DiagonalMatrix
from .timer import time_fn

__all__ = ["RealExecutionBackend", "REAL_PROFILED_PRIMITIVES"]

REAL_PROFILED_PRIMITIVES = STRATEGY_PRICING_PRIMITIVES + (
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


class RealExecutionBackend:
    """Executes primitives for real and reports measured seconds.

    Operand caches are keyed per graph so repeated profiling of the same
    adjacency does not re-randomise inputs (and so the measurement cost
    stays dominated by the kernels themselves).
    """

    name = "numpy-cpu"

    def __init__(self, repeats: int = 2, seed: int = 0) -> None:
        self.repeats = repeats
        self._rng = np.random.default_rng(seed)
        self._dense_cache: Dict[tuple, np.ndarray] = {}
        # keyed on the graph object: an id() is recycled once a graph dies
        self._graph_ops = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    def _dense(self, rows: int, cols: int) -> np.ndarray:
        key = (rows, cols)
        if key not in self._dense_cache:
            self._dense_cache[key] = self._rng.standard_normal((rows, cols))
        return self._dense_cache[key]

    def _ops_for(self, graph: Graph) -> dict:
        if graph not in self._graph_ops:
            adj = graph.adj.unweighted()
            self._graph_ops[graph] = {
                "adj": adj,
                "adj_weighted": adj.with_values(
                    self._rng.random(adj.nnz) + 0.1
                ),
                "diag": DiagonalMatrix(self._rng.random(adj.shape[0]) + 0.1),
                "logits": self._rng.standard_normal(adj.nnz),
            }
        return self._graph_ops[graph]

    # ------------------------------------------------------------------
    def _kernel_thunk(self, call: KernelCall, graph: Graph):
        s = call.shape
        ops = self._ops_for(graph)
        adj: CSRMatrix = ops["adj"]
        wadj: CSRMatrix = ops["adj_weighted"]
        diag: DiagonalMatrix = ops["diag"]
        p = call.primitive
        if p == "gemm":
            a = self._dense(int(s["m"]), int(s["k"]))
            b = self._dense(int(s["k"]), int(s["n"]))
            return lambda: gemm(a, b)
        if p == "spmm":
            x = self._dense(adj.shape[1], int(s["k"]))
            return lambda: spmm(wadj, x)
        if p == "spmm_unweighted":
            x = self._dense(adj.shape[1], int(s["k"]))
            return lambda: spmm_unweighted(adj, x)
        if p == "sddmm":
            a = self._dense(adj.shape[0], int(s["k"]))
            b = self._dense(int(s["k"]), adj.shape[1])
            return lambda: sddmm(adj, a, b)
        if p == "sddmm_diag":
            return lambda: sddmm_diag_scale(adj, diag, diag)
        if p == "gsddmm_attn":
            u = self._dense(adj.shape[0], 1)
            v = self._dense(adj.shape[1], 1)
            return lambda: gsddmm(adj, u, v, op="add")
        if p == "edge_softmax":
            logits = ops["logits"]
            return lambda: edge_softmax(adj, logits)
        if p == "fused_attn_spmm":
            # the plan step's own implementation, as inference runs it
            from ..tensor import Tensor, attention_aggregate, no_grad

            value = Tensor(self._dense(adj.shape[1], int(s["k"])))
            score_dst = Tensor(self._dense(adj.shape[0], 1)[:, 0])
            score_src = Tensor(self._dense(adj.shape[1], 1)[:, 0])

            def fused():
                with no_grad():
                    return attention_aggregate(adj, score_dst, score_src, value)

            return fused
        if p == "spgemm":
            from ..kernels import spgemm as k_spgemm

            return lambda: k_spgemm(wadj, wadj)
        if p == "row_broadcast":
            d = self._dense(int(s["m"]), 1)[:, 0]
            x = self._dense(int(s["m"]), int(s["k"]))
            return lambda: row_broadcast(d, x)
        if p == "elementwise":
            x = self._dense(int(s["m"]), int(s["k"]))
            return lambda: np.maximum(x, 0.0)
        if p == "degree_indptr":
            return lambda: degrees_from_indptr(adj)
        if p == "degree_binning":
            return lambda: degrees_by_binning(adj)
        if p == "diag_mul":
            return lambda: DiagonalMatrix(diag.diag * diag.diag)
        if p == "spadd_diag":
            return lambda: spadd_diag(adj, diag.diag)
        raise KeyError(f"no real executor for primitive {p!r}")

    def time_call(self, call: KernelCall, graph: Graph) -> float:
        """Measured wall-clock seconds of one real kernel execution."""
        thunk = self._kernel_thunk(call, graph)
        seconds, _ = time_fn(thunk, repeats=self.repeats, warmup=1)
        return max(seconds, 1e-9)
