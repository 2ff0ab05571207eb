"""Real-execution backend: wall-clock profiling of the NumPy kernels.

The simulated cpu/a100/h100 devices reproduce the paper's testbeds; this
backend instead times *this repository's own kernels on the host CPU*,
the ones a ``cpu`` plan actually runs.  Profiling a
:class:`~repro.kernels.registry.KernelCall` here executes what a plan step
of that primitive executes, on operands drawn from a real graph, and
measures wall-clock time — which is how the paper gathers its training
data (§V) and what the ``cpu`` cost models are fitted to
(:func:`repro.core.costmodel.get_cost_models`).
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, List, Optional

import numpy as np

from ..graphs import Graph
from ..kernels import (
    degrees_by_binning,
    degrees_from_indptr,
    edge_softmax,
    gsddmm_blocked,
    sddmm_diag_scale,
    spadd_diag,
)
from ..kernels import spgemm as k_spgemm
from ..kernels.registry import KernelCall
from ..kernels.workspace import thread_local_arena
from ..sparse import CSRMatrix, DiagonalMatrix

__all__ = ["RealExecutionBackend"]


class RealExecutionBackend:
    """Executes primitives for real and reports measured seconds.

    Operand caches are keyed per graph so repeated profiling of the same
    adjacency does not re-randomise inputs (and so the measurement cost
    stays dominated by the kernels themselves).
    """

    # the device whose plans run these kernels, and how its profiles are
    # labelled (see :func:`repro.core.profiler.collect_profile`)
    name = "cpu"
    timing = "host"
    # primitives that are the same kernel as another here, so one model
    # prices both: an unweighted SpMM is the weighted fold over
    # ``unit_values()``
    same_kernel = {"spmm_unweighted": "spmm"}

    # SpGEMM is timed on adjacencies of at most this many edges: the
    # product of a large skewed graph with itself takes seconds per run
    # (most of a profile's time), and prices only the SpGEMM extension
    spgemm_max_nnz = 60_000

    def __init__(self, repeats: int = 5, seed: int = 0) -> None:
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
        """A no-argument callable running ``call`` as a plan step runs it
        (the Tensor ops of :func:`repro.core.plan._execute_step`, under
        ``no_grad``), or as the tape runs its gradient (``sddmm``)."""
        from ..tensor import Tensor, attention_aggregate, gsddmm_add_uv, relu
        from ..tensor import row_broadcast as t_row_broadcast
        from ..tensor import spmm as t_spmm

        s = call.shape
        ops = self._ops_for(graph)
        adj: CSRMatrix = ops["adj"]
        wadj: CSRMatrix = ops["adj_weighted"]
        diag: DiagonalMatrix = ops["diag"]
        n = adj.shape[0]
        p = call.primitive
        if p == "gemm":
            a = Tensor(self._dense(int(s["m"]), int(s["k"])))
            b = Tensor(self._dense(int(s["k"]), int(s["n"])))
            return lambda: a @ b
        if p in ("spmm", "spmm_unweighted"):
            x = Tensor(self._dense(n, int(s["k"])))
            sparse = wadj if p == "spmm" else adj
            return lambda: t_spmm(sparse, x)
        if p == "sddmm":
            # the dE of a learned-value SpMM (``spmm_edge``'s VJP)
            g = self._dense(n, int(s["k"]))
            return lambda: gsddmm_blocked(
                adj, g, g, "dot", workspace=thread_local_arena()
            )
        if p == "sddmm_diag":
            return lambda: sddmm_diag_scale(adj, diag, diag)
        if p == "gsddmm_attn":
            u = Tensor(self._dense(n, 1)[:, 0])
            return lambda: gsddmm_add_uv(adj, u, u)
        if p == "edge_softmax":
            logits = ops["logits"]
            return lambda: edge_softmax(adj, logits)
        if p == "fused_attn_spmm":
            value = Tensor(self._dense(n, int(s["k"])))
            score = Tensor(self._dense(n, 1)[:, 0])
            return lambda: attention_aggregate(adj, score, score, value)
        if p == "spgemm":
            if adj.nnz > self.spgemm_max_nnz:
                return None
            return lambda: k_spgemm(wadj, wadj)
        if p == "row_broadcast":
            d = self._dense(int(s["m"]), 1)[:, 0]
            x = Tensor(self._dense(int(s["m"]), int(s["k"])))
            return lambda: t_row_broadcast(d, x)
        if p == "elementwise":
            x = Tensor(self._dense(int(s["m"]), int(s["k"])))
            return lambda: relu(x)
        if p == "degree_indptr":
            return lambda: degrees_from_indptr(adj)
        if p == "degree_binning":
            return lambda: degrees_by_binning(adj)
        if p == "diag_mul":
            return lambda: DiagonalMatrix(diag.diag * diag.diag)
        if p == "spadd_diag":
            return lambda: spadd_diag(adj, diag.diag)
        raise KeyError(f"no real executor for primitive {p!r}")

    def time_each(self, tasks) -> List[Optional[float]]:
        """Measured seconds of each ``(graph, call)`` task, in order (None
        for a task not measured: an SpGEMM above :attr:`spgemm_max_nnz`).

        Every task runs once untimed (operands built, pools warm), then
        ``repeats`` timed rounds each run every task once, and a task's
        time is its median: the repeat loop is the outer one, so a host
        that drifts over the profile's tens of seconds shifts every
        task's samples alike instead of whole tasks.
        """
        from ..tensor import no_grad

        thunks = [self._kernel_thunk(call, graph) for graph, call in tasks]
        timed = [thunk for thunk in thunks if thunk is not None]
        samples = np.empty((max(self.repeats, 1), len(timed)))
        clock = time.perf_counter
        with no_grad():
            for thunk in timed:
                thunk()
            for row in samples:
                for i, thunk in enumerate(timed):
                    start = clock()
                    thunk()
                    row[i] = clock() - start
        medians = iter(np.maximum(np.median(samples, axis=0), 1e-9).tolist())
        return [None if thunk is None else next(medians) for thunk in thunks]
