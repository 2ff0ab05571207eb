"""Graph Isomorphism Network (Xu et al.).

``H' = MLP((1 + ε)·H + A·H)``.  Two axes of composition choice:

- **GEMM placement**: aggregate-then-update ``((1+ε)I + A) H) W`` versus
  update-then-aggregate ``((1+ε)I + A) (H W)`` — the reordering behind the
  paper's GIN speedups on DGL (whose default never reorders).
- **Sparse precompute**: materialise ``B = A + (1+ε)I`` once as a weighted
  sparse matrix versus executing the sum dynamically as
  ``A·X + (1+ε)·X`` every iteration.

Only the aggregate-first, dynamic ``forward`` is written here; the other
compositions are the promoted plans of ``repro.core.compile_model("gin")``,
whose precompute plans build B with :func:`repro.kernels.spadd_diag`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..framework import GNNModule, MPGraph, fn
from ..tensor import Linear, Tensor, relu

__all__ = ["GINLayer"]


class GINLayer(GNNModule):
    """GIN layer with a single-linear update (MLP depth 1) and fixed ε."""

    wants_self_loops = False  # the (1+ε) self term replaces self-loops

    def __init__(
        self,
        in_size: int,
        out_size: int,
        eps: float = 0.1,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.linear = Linear(in_size, out_size, bias=False, rng=rng)
        self.in_size = in_size
        self.out_size = out_size
        self.eps = eps
        self.activation = activation

    def _maybe_activate(self, h: Tensor) -> Tensor:
        return relu(h) if self.activation else h

    # Baseline message-passing source (aggregate first, dynamic sum).
    # NOTE: GIN aggregates over the raw adjacency A (no self-loops); the
    # (1+ε) self term replaces them.
    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        g.set_ndata("h", feat)
        g.update_all(fn.copy_u("h", "m"), fn.sum("m", "h"))
        h = g.ndata["h"]
        h = h + feat * (1.0 + self.eps)
        h = h @ self.linear.weight
        return self._maybe_activate(h)
