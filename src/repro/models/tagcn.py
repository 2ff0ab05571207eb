"""Topology Adaptive GCN (Du et al.) — per-hop filters.

``H' = Σ_{l=0..L} Ñ^l H W_l`` with Ñ the symmetric-normalized adjacency.
(The concatenate-then-project form in the original paper is algebraically
identical to summing per-hop projections.)  Each hop term independently
admits the dynamic/precompute normalization choice and the GEMM
placement choice, making TAGCN's composition space the largest of the
convolutional models.  Only the dynamic ``forward`` is written here; the
other compositions are the promoted plans of
``repro.core.compile_model("tagcn", hops=L)``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..framework import GNNModule, MPGraph, fn
from ..tensor import Linear, Tensor
from .functional import compute_norm, row_mul

__all__ = ["TAGCNLayer"]


class TAGCNLayer(GNNModule):
    """TAGCN layer with ``hops + 1`` per-hop linear filters (W_0..W_hops)."""

    def __init__(
        self,
        in_size: int,
        out_size: int,
        hops: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if hops < 1:
            raise ValueError("hops must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.filters: List[Linear] = [
            Linear(in_size, out_size, bias=False, rng=rng) for _ in range(hops + 1)
        ]
        self.in_size = in_size
        self.out_size = out_size
        self.hops = hops

    # Baseline message-passing source (dynamic normalization).
    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        norm = compute_norm(g)
        out = feat @ self.filters[0].weight
        h = feat
        for l in range(1, self.hops + 1):
            h = row_mul(h, norm)
            g.set_ndata("h", h)
            g.update_all(fn.copy_u("h", "m"), fn.sum("m", "h"))
            h = g.ndata["h"]
            h = row_mul(h, norm)
            out = out + h @ self.filters[l].weight
        return out
