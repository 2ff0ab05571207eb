"""GraphSAGE (Hamilton et al.) with mean aggregation and sampling support.

§VI-E of the paper notes that, through sampling, GRANII supports
GraphSAGE with GCN aggregation.  The full-graph layer is
``H' = σ(H·W_self + mean_agg(H)·W_neigh)``; the sampled path consumes the
bipartite blocks produced by :func:`repro.graphs.sample_blocks`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..framework import GNNModule, MPGraph
from ..graphs import SampledBlock
from ..sparse import CSRMatrix
from ..tensor import Linear, Tensor, relu
from ..tensor import gather_rows, spmm as t_spmm

__all__ = ["SAGELayer"]


def _mean_adj(adj: CSRMatrix) -> CSRMatrix:
    """Row-normalised adjacency: mean aggregation as a weighted SpMM."""
    deg = adj.row_degrees().astype(np.float64)
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0)
    return adj.with_values(
        adj.effective_values() * np.repeat(inv, adj.row_degrees())
    )


class SAGELayer(GNNModule):
    """GraphSAGE-mean layer, usable full-graph or on sampled blocks."""

    wants_self_loops = False  # the explicit self branch replaces loops

    def __init__(
        self,
        in_size: int,
        out_size: int,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.self_linear = Linear(in_size, out_size, bias=False, rng=rng)
        self.neigh_linear = Linear(in_size, out_size, bias=False, rng=rng)
        self.in_size = in_size
        self.out_size = out_size
        self.activation = activation

    def _maybe_activate(self, h: Tensor) -> Tensor:
        return relu(h) if self.activation else h

    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        neigh = t_spmm(_mean_adj(g.adj), feat)
        h = feat @ self.self_linear.weight + neigh @ self.neigh_linear.weight
        return self._maybe_activate(h)

    def forward_block(self, block: SampledBlock, feat: Tensor) -> Tensor:
        """Sampled forward: ``feat`` rows correspond to block.input_nodes."""
        local_idx = np.searchsorted(block.input_nodes, block.output_nodes)
        self_feat = gather_rows(feat, local_idx)
        neigh = t_spmm(_mean_adj(block.adj), feat)
        h = (
            self_feat @ self.self_linear.weight
            + neigh @ self.neigh_linear.weight
        )
        return self._maybe_activate(h)
