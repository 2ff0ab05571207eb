"""APPNP — Approximate Personalized Propagation of Neural Predictions.

Klicpera et al.'s model predicts first and propagates afterwards::

    Z_0     = H · W
    Z_{k+1} = (1-α) · Ñ · Z_k + α · Z_0
    out     = Z_K

With Ñ the symmetric-normalized adjacency, every propagation hop carries
the same dynamic-vs-precomputed normalization choice as GCN, with the
teleport term as an extra addition — a propagation-style model extending
the generalizability evidence of the paper's TAGCN/SGC study.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..framework import GNNModule, MPGraph, fn
from ..tensor import Linear, Tensor
from .functional import compute_norm, row_mul

__all__ = ["APPNPLayer"]


class APPNPLayer(GNNModule):
    """APPNP with ``hops`` propagation steps and teleport ``alpha``."""

    def __init__(
        self,
        in_size: int,
        out_size: int,
        hops: int = 2,
        alpha: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if hops < 1:
            raise ValueError("hops must be >= 1")
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        self.linear = Linear(in_size, out_size, bias=False, rng=rng)
        self.in_size = in_size
        self.out_size = out_size
        self.hops = hops
        self.alpha = alpha

    # Baseline (dynamic normalization); the scalar teleport arithmetic is
    # outside the frontend's translated vocabulary, so GRANII compiles
    # this model through its registered IR builder.
    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        norm = compute_norm(g)
        z0 = feat @ self.linear.weight
        z = z0
        for _ in range(self.hops):
            h = row_mul(z, norm)
            g.set_ndata("h", h)
            g.update_all(fn.copy_u("h", "m"), fn.sum("m", "h"))
            h = row_mul(g.ndata["h"], norm)
            z = h * (1.0 - self.alpha) + z0 * self.alpha
        return z
