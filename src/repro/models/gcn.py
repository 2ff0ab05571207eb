"""Graph Convolutional Network (Kipf & Welling) — paper §III-A.

The baseline ``forward`` is the *dynamic-normalization* composition both
DGL and WiseGraph default to: two row-broadcasts around an unweighted
aggregation (Equation 2).  The *precomputation* composition (Equation 3)
— an O(E) SDDMM producing the normalized adjacency Ñ, reused across
iterations and layers — and the GEMM-first orders are not written here:
GRANII derives them from this ``forward`` by re-association, and the
promoted plans of ``repro.core.compile_model("gcn")`` are their only
implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..framework import GNNModule, MPGraph, fn
from ..tensor import Linear, Tensor, relu
from .functional import compute_norm, row_mul

__all__ = ["GCNLayer"]


class GCNLayer(GNNModule):
    """One GCN layer: ``σ(D^-1/2 Ã D^-1/2 H W)``."""

    def __init__(
        self,
        in_size: int,
        out_size: int,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.linear = Linear(in_size, out_size, bias=False, rng=rng)
        self.in_size = in_size
        self.out_size = out_size
        self.activation = activation

    def _maybe_activate(self, h: Tensor) -> Tensor:
        return relu(h) if self.activation else h

    # ------------------------------------------------------------------
    # Baseline: dynamic-normalization composition (message passing).
    # This is the source GRANII's frontend parses.
    # ------------------------------------------------------------------
    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        norm = compute_norm(g)
        feat = row_mul(feat, norm)
        g.set_ndata("h", feat)
        g.update_all(fn.copy_u("h", "m"), fn.sum("m", "h"))
        h = g.ndata["h"]
        h = h @ self.linear.weight
        h = row_mul(h, norm)
        return self._maybe_activate(h)
