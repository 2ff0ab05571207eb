"""Graph Attention Network (Veličković et al.) — paper §III-B.

Attention (Equation 4) always computes Θ = H·W and per-edge logits
``e_ij = LeakyReLU(a_l·Θ_i + a_r·Θ_j)`` followed by an edge softmax.  The
aggregation (Equation 5) then either

- **reuses** Θ:  ``H' = σ(α · Θ)``   (aggregation width = out_size), or
- **recomputes** it:  ``H' = σ((α · H) · W)``  (aggregation width =
  in_size plus an extra GEMM, Equation 6) — profitable exactly when the
  output embedding is larger than the input and the graph dense enough.

``forward`` is the reuse composition; recompute is a promoted plan of
``repro.core.compile_model("gat")``, derived from it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..framework import GNNModule, MPGraph
from ..tensor import (
    Linear,
    Parameter,
    Tensor,
    elu,
    gsddmm_add_uv,
    leaky_relu,
    spmm_edge,
)
from ..tensor import edge_softmax as t_edge_softmax
from ..tensor.init import xavier_uniform

__all__ = ["GATLayer", "MultiHeadGATLayer"]


class GATLayer(GNNModule):
    """Single-head GAT layer."""

    def __init__(
        self,
        in_size: int,
        out_size: int,
        negative_slope: float = 0.2,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.linear = Linear(in_size, out_size, bias=False, rng=rng)
        self.attn_l = Parameter(xavier_uniform(rng, out_size, 1)[:, 0])
        self.attn_r = Parameter(xavier_uniform(rng, out_size, 1)[:, 0])
        self.in_size = in_size
        self.out_size = out_size
        self.negative_slope = negative_slope
        self.activation = activation

    def _maybe_activate(self, h: Tensor) -> Tensor:
        return elu(h) if self.activation else h

    def _attention(self, g: MPGraph, theta: Tensor) -> Tensor:
        """α as an edge tensor over g's pattern (Atten of Equation 4)."""
        score_dst = theta @ self.attn_l.reshape(-1, 1)
        score_src = theta @ self.attn_r.reshape(-1, 1)
        logits = gsddmm_add_uv(
            g.adj.unweighted(), score_dst.reshape(-1), score_src.reshape(-1)
        )
        logits = leaky_relu(logits, self.negative_slope)
        return t_edge_softmax(g.adj.unweighted(), logits)

    # Baseline message-passing source (reuse composition, DGL's default).
    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        theta = feat @ self.linear.weight
        alpha = self._attention(g, theta)
        h = spmm_edge(g.adj.unweighted(), alpha, theta)
        return self._maybe_activate(h)


class MultiHeadGATLayer(GNNModule):
    """Multi-head GAT with concatenated head outputs.

    Standard multi-head attention is algebraically H independent
    single-head layers whose outputs concatenate; GRANII therefore
    optimises each head's composition independently (via
    ``granii_layers``), which also allows heads to pick *different*
    compositions when their embedding shapes differ.
    """

    def __init__(
        self,
        in_size: int,
        out_size: int,
        num_heads: int = 4,
        negative_slope: float = 0.2,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        if out_size % num_heads:
            raise ValueError("out_size must divide evenly across heads")
        rng = rng if rng is not None else np.random.default_rng(0)
        head_out = out_size // num_heads
        self.heads = [
            GATLayer(
                in_size, head_out, negative_slope=negative_slope,
                activation=activation, rng=rng,
            )
            for _ in range(num_heads)
        ]
        self.in_size = in_size
        self.out_size = out_size
        self.num_heads = num_heads

    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        from ..tensor import concat

        return concat([head(g, feat) for head in self.heads], axis=1)

    def granii_layers(self):
        return list(self.heads)
