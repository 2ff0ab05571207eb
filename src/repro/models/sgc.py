"""Simple Graph Convolution (Wu et al.) — K propagation hops, one weight.

``H' = (D^-1/2 Ã D^-1/2)^K H W``.  Like GCN, the normalization can run
dynamically (row-broadcasts around every hop) or be precomputed once; the
GEMM can additionally be hoisted before the hops when the embedding
shrinks — the operator reordering GRANII finds automatically (§VI-C1's
SGC speedups on DGL come from exactly this reordering).  Only the
dynamic, GEMM-last ``forward`` is written here; the other compositions
are the promoted plans of ``repro.core.compile_model("sgc", hops=K)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..framework import GNNModule, MPGraph, fn
from ..tensor import Linear, Tensor
from .functional import compute_norm, row_mul

__all__ = ["SGCLayer"]


class SGCLayer(GNNModule):
    """SGC with ``hops`` propagation steps (no nonlinearity by design)."""

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
        self.linear = Linear(in_size, out_size, bias=False, rng=rng)
        self.in_size = in_size
        self.out_size = out_size
        self.hops = hops

    # Baseline message-passing source (dynamic normalization, GEMM last).
    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        norm = compute_norm(g)
        h = feat
        for _ in range(self.hops):
            h = row_mul(h, norm)
            g.set_ndata("h", h)
            g.update_all(fn.copy_u("h", "m"), fn.sum("m", "h"))
            h = g.ndata["h"]
            h = row_mul(h, norm)
        h = h @ self.linear.weight
        return h
