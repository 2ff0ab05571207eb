"""The message-passing execution context (DGL-like mini-framework).

``MPGraph`` wraps a graph adjacency and node/edge data dictionaries and
executes ``update_all`` / ``apply_edges`` by lowering each (message,
reduce) pair onto the g-SpMM / g-SDDMM kernels — the same lowering DGL
performs.  All data are autograd :class:`~repro.tensor.tensor.Tensor`
objects so both inference and training run through this path.

This module is the *baseline* execution engine; GRANII replaces a model's
message-passing forward with a selected primitive-composition plan.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..kernels import get_semiring, gspmm
from ..sparse import CSRMatrix
from ..tensor import Tensor
from ..tensor import edge_softmax as t_edge_softmax
from ..tensor import gsddmm_add_uv, spmm, spmm_edge
from .messages import MessageFunc, ReduceFunc

__all__ = ["MPGraph"]


class MPGraph:
    """A graph plus mutable node/edge feature frames.

    ``adj`` rows are destinations, columns sources.  Edge data are 1-D
    tensors aligned with the adjacency's CSR edge order.
    """

    def __init__(self, adj: CSRMatrix) -> None:
        if adj.shape[0] != adj.shape[1] and adj.shape[0] <= 0:
            raise ValueError("adjacency must be non-empty")
        self.adj = adj
        self.ndata: Dict[str, Tensor] = {}
        self.edata: Dict[str, Tensor] = {}

    @property
    def num_nodes(self) -> int:
        return self.adj.shape[0]

    @property
    def num_edges(self) -> int:
        return self.adj.nnz

    # ------------------------------------------------------------------
    def _as_tensor(self, value) -> Tensor:
        return value if isinstance(value, Tensor) else Tensor(value)

    def set_ndata(self, field: str, value) -> None:
        value = self._as_tensor(value)
        if value.shape[0] != self.adj.shape[1]:
            raise ValueError("node data must have one row per node")
        self.ndata[field] = value

    def set_edata(self, field: str, value) -> None:
        value = self._as_tensor(value)
        if value.shape[0] != self.num_edges:
            raise ValueError("edge data must align with the CSR edge order")
        self.edata[field] = value

    # ------------------------------------------------------------------
    def update_all(self, message: MessageFunc, reduce: ReduceFunc) -> None:
        """Aggregate messages into ``ndata[reduce.out_field]`` via g-SpMM.

        ``sum`` reductions run through the autograd SpMM ops (they appear
        in trained baselines); ``mean``/``max`` lower onto the generalized
        semiring kernels and are inference-only (no backward closure) —
        the evaluated models only train with sum aggregation.
        """
        if message.out_field != reduce.msg_field:
            raise ValueError(
                "reduce consumes a different message field than produced"
            )
        if reduce.name != "sum":
            out = self._update_all_generalized(message, reduce)
            self.ndata[reduce.out_field] = out
            return
        if message.name == "copy_u":
            src = self.ndata[message.src_field]
            out = spmm(self.adj.unweighted(), src)
        elif message.name == "u_mul_e":
            src = self.ndata[message.src_field]
            edge = self.edata[message.edge_field]
            out = spmm_edge(self.adj.unweighted(), edge, src)
        elif message.name == "copy_e":
            edge = self.edata[message.edge_field]
            out = spmm_edge(
                self.adj.unweighted(),
                edge,
                Tensor(np.ones((self.adj.shape[1], 1))),
            )
        else:
            raise NotImplementedError(f"message {message.name!r} in update_all")
        self.ndata[reduce.out_field] = out

    def _update_all_generalized(
        self, message: MessageFunc, reduce: ReduceFunc
    ) -> Tensor:
        binary_by_message = {"copy_u": "copy_rhs", "u_mul_e": "mul", "copy_e": "copy_lhs"}
        if message.name not in binary_by_message:
            raise NotImplementedError(
                f"message {message.name!r} with reduce {reduce.name!r}"
            )
        semiring = get_semiring(reduce.name, binary_by_message[message.name])
        if message.name == "u_mul_e":
            adj = self.adj.with_values(self.edata[message.edge_field].data)
        elif message.name == "copy_e":
            adj = self.adj.with_values(self.edata[message.edge_field].data)
        else:
            adj = self.adj.unweighted()
        src = (
            self.ndata[message.src_field].data
            if message.name != "copy_e"
            else np.ones((self.adj.shape[1], 1))
        )
        return Tensor(gspmm(adj, src, semiring))

    def apply_edges(self, message: MessageFunc) -> None:
        """Produce ``edata[message.out_field]`` from endpoint features."""
        if message.name == "u_add_v":
            src = self.ndata[message.src_field]
            dst = self.ndata[message.edge_field]  # field reused as dst name
            self.edata[message.out_field] = gsddmm_add_uv(
                self.adj.unweighted(), dst, src
            )
        elif message.name == "u_mul_e":
            raise NotImplementedError("u_mul_e is an update_all message")
        else:
            raise NotImplementedError(f"message {message.name!r} in apply_edges")

    def edge_softmax(self, logits_field: str, out_field: str) -> None:
        """Destination-wise softmax over edge logits (GAT's α)."""
        self.edata[out_field] = t_edge_softmax(
            self.adj.unweighted(), self.edata[logits_field]
        )

    # ------------------------------------------------------------------
    def local_scope(self) -> "_LocalScope":
        """Context manager restoring ndata/edata on exit (DGL idiom)."""
        return _LocalScope(self)


class _LocalScope:
    def __init__(self, graph: MPGraph) -> None:
        self._graph = graph

    def __enter__(self) -> MPGraph:
        self._ndata = dict(self._graph.ndata)
        self._edata = dict(self._graph.edata)
        return self._graph

    def __exit__(self, *exc) -> None:
        self._graph.ndata = self._ndata
        self._graph.edata = self._edata
