"""Fused attention-aggregation kernel (FusedMM-style, related work §VII).

FusedMM and Graphite fuse the SDDMM-like edge scoring with the SpMM
aggregation into one kernel, eliminating the materialised attention
matrix and two kernel launches.  GRANII composes with such optimizations
by exposing the fused kernel as one more primitive the cost models can
select — fusion is *not* always a win (it recomputes per edge and can
lose on very dense graphs where the materialised α is reused cheaply),
so the choice is input-dependent like everything else.

Numerically this function is exactly attention (Equation 4) followed by
aggregation (Equation 5); only the execution granularity differs.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix
from .dense import leaky_relu
from .softmax import edge_softmax
from .spmm import spmm

__all__ = ["fused_attention_aggregate"]


def fused_attention_aggregate(
    pattern: CSRMatrix,
    value_feats: np.ndarray,
    score_dst: np.ndarray,
    score_src: np.ndarray,
    negative_slope: float = 0.2,
) -> np.ndarray:
    """Attention logits + edge softmax + aggregation in one pass.

    ``score_dst``/``score_src`` are the per-node attention scores
    (a_l·Θ_i and a_r·Θ_j); ``value_feats`` are the features aggregated
    under the resulting α (Θ for the reuse composition, H for
    recomputation).
    """
    if score_dst.shape != (pattern.shape[0],) or score_src.shape != (pattern.shape[1],):
        raise ValueError("per-node scores must be one scalar per node")
    rows, cols = pattern.row_ids(), pattern.indices
    logits = leaky_relu(score_dst[rows] + score_src[cols], negative_slope)
    alpha = edge_softmax(pattern, logits)
    return spmm(alpha, value_feats)
