"""Sparse autograd operations over a fixed adjacency pattern.

GNN training differentiates through aggregation, attention scoring and
edge softmax, but never through the adjacency *pattern* itself.  Each op
here therefore takes a constant :class:`~repro.sparse.csr.CSRMatrix`
pattern plus dense/edge-value :class:`~repro.tensor.tensor.Tensor`
operands.

Edge-value tensors are 1-D tensors aligned with the pattern's CSR order —
the autograd counterpart of a weighted CSR matrix that shares the pattern.
"""

from __future__ import annotations

import numpy as np

from ..kernels import gsddmm_blocked, gspmm, get_semiring, segment_sum
from ..kernels import edge_softmax as edge_softmax_kernel
from ..kernels.blocked import require_columns_in_range
from ..kernels.workspace import step_buffer, thread_local_arena
from ..sparse import CSRMatrix
from .ops import leaky_relu
from .tensor import Tensor, _elementwise, _zeros

__all__ = [
    "spmm",
    "spmm_edge",
    "sddmm_dot",
    "gsddmm_add_uv",
    "edge_softmax",
    "attention_aggregate",
    "row_broadcast",
    "gather_rows",
]


def spmm(
    adj: CSRMatrix,
    x: Tensor,
    *,
    strategy: str = "row_segment",
) -> Tensor:
    """``A @ X`` with a constant (possibly weighted) adjacency.

    Backward: ``dX = A^T @ dY``, skipped altogether when ``x`` is a
    constant (a first layer aggregating the input features).  The
    strategy runs the *forward* aggregation only (every
    :data:`~repro.kernels.spmm.SPMM_STRATEGIES` member is
    bitwise-identical); the backward SpMM runs the fold.
    """
    semiring = get_semiring("sum", "mul" if adj.is_weighted else "copy_rhs")

    def vjp(g: np.ndarray) -> np.ndarray:
        # transposed here, not in the forward: inference never needs it
        return gspmm(adj.transpose(), g, semiring)

    out_data = gspmm(adj, x.data, semiring, strategy=strategy)
    return Tensor.make(out_data, (x,), (vjp,), "spmm")


def spmm_edge(
    pattern: CSRMatrix,
    edge_vals: Tensor,
    x: Tensor,
    *,
    strategy: str = "row_segment",
) -> Tensor:
    """``A(e) @ X`` where the adjacency values are themselves a tensor.

    This is GAT's aggregation with learned attention values.  Backward:
    ``dE_ij = dY[i] · X[j]`` and ``dX = A(e)^T @ dY`` — the gradient of a
    g-SpMM is a g-SpMM on the reverse graph plus a g-SDDMM, and the
    g-SDDMM runs through cache-sized tiles
    (:func:`~repro.kernels.blocked.gsddmm_blocked`), not two ``(nnz, k)``
    gathers.  As in :func:`spmm`, the strategy applies to the forward
    pass only.
    """
    if edge_vals.data.shape != (pattern.nnz,):
        raise ValueError("edge values must align with the pattern's nnz")
    weighted = pattern.with_values(edge_vals.data)

    def vjp_edge(g: np.ndarray) -> np.ndarray:
        return gsddmm_blocked(
            pattern, g, x.data, "dot", workspace=thread_local_arena()
        )

    def vjp_x(g: np.ndarray) -> np.ndarray:
        return gspmm(weighted.transpose(), g)

    out_data = gspmm(weighted, x.data, strategy=strategy)
    return Tensor.make(out_data, (edge_vals, x), (vjp_edge, vjp_x), "spmm_edge")


def sddmm_dot(pattern: CSRMatrix, u: Tensor, v: Tensor) -> Tensor:
    """Per-edge dot products ``e_ij = u[i] · v[j]`` as an edge tensor.

    Backward scatters through the pattern: ``du[i] += Σ_j dE_ij v[j]``
    (an SpMM with the gradient as edge values) and symmetrically for v.
    """
    rows, cols = pattern.row_ids(), pattern.indices

    def vjp_u(g: np.ndarray) -> np.ndarray:
        return gspmm(pattern.with_values(g), v.data)

    def vjp_v(g: np.ndarray) -> np.ndarray:
        return gspmm(pattern.with_values(g).transpose(), u.data)

    out_data = np.einsum("ek,ek->e", u.data[rows], v.data[cols])
    return Tensor.make(out_data, (u, v), (vjp_u, vjp_v), "sddmm_dot")


def gsddmm_add_uv(pattern: CSRMatrix, u_score: Tensor, v_score: Tensor) -> Tensor:
    """Per-edge ``e_ij = u_score[i] + v_score[j]`` for scalar node scores.

    This is GAT's decomposed attention logit: ``a^T [Θ_i ‖ Θ_j]`` splits
    into a destination score plus a source score.
    """
    rows, cols = pattern.row_ids(), pattern.indices

    def vjp_u(g: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=g, minlength=pattern.shape[0])

    def vjp_v(g: np.ndarray) -> np.ndarray:
        return np.bincount(cols, weights=g, minlength=pattern.shape[1])

    u, v = u_score.data, v_score.data
    if u.shape != (pattern.shape[0],) or v.shape != (pattern.shape[1],):
        raise ValueError(
            f"node scores must be one scalar per row and per column of the "
            f"{pattern.shape} pattern, got {u.shape} and {v.shape}"
        )
    # unbuffered gathers: the heights are checked above, the columns here
    require_columns_in_range(pattern)
    out_data = np.take(u, rows, out=step_buffer(rows.shape), mode="clip")
    gathered = np.take(v, cols, out=step_buffer(cols.shape), mode="clip")
    np.add(out_data, gathered, out=out_data)
    return Tensor.make(out_data, (u_score, v_score), (vjp_u, vjp_v), "gsddmm_add_uv")


def edge_softmax(pattern: CSRMatrix, logits: Tensor) -> Tensor:
    """Row-wise softmax over edge logits; returns an edge tensor α.

    Backward: ``dlogit = α ⊙ (dα − row_sum(dα ⊙ α))`` per destination row.
    """
    alpha_mat = edge_softmax_kernel(pattern, logits.data)
    alpha = alpha_mat.values
    rows = pattern.row_ids()

    def vjp(g: np.ndarray) -> np.ndarray:
        out = _elementwise(np.multiply, g, alpha)
        weighted_sums = segment_sum(out, pattern.indptr)
        # repeat(weighted_sums, deg) is weighted_sums[rows]
        np.take(weighted_sums, rows, out=out, mode="clip")
        np.subtract(g, out, out=out)
        return np.multiply(alpha, out, out=out)

    return Tensor.make(alpha, (logits,), (vjp,), "edge_softmax")


def attention_aggregate(
    pattern: CSRMatrix,
    score_dst: Tensor,
    score_src: Tensor,
    value: Tensor,
    negative_slope: float = 0.2,
) -> Tensor:
    """GAT's attention (Equation 4) and aggregation (Equation 5) from
    per-node scores: ``α = edge_softmax(LeakyReLU(score_dst[i] +
    score_src[j]))``, then ``α @ value``.

    ``score_dst``/``score_src`` are ``a_l·Θ_i`` and ``a_r·Θ_j``;
    ``value`` is what α aggregates (Θ for the reuse composition, H for
    recomputation).  This is the one implementation of a plan's
    ``fused_attn_spmm`` step, which the real-execution profiler times.
    """
    logits = leaky_relu(gsddmm_add_uv(pattern, score_dst, score_src), negative_slope)
    return spmm_edge(pattern, edge_softmax(pattern, logits), value)


def row_broadcast(d: np.ndarray, x: Tensor) -> Tensor:
    """``diag(d) @ X`` with a constant per-row vector (GCN normalization)."""
    column = np.asarray(d, dtype=np.float64)[:, None]
    return Tensor.make(
        _elementwise(np.multiply, column, x.data),
        (x,),
        (lambda g: _elementwise(np.multiply, column, g),),
        "row_broadcast",
    )


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather with scatter-add backward (used by sampled training)."""
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g: np.ndarray) -> np.ndarray:
        full = _zeros(x.data.shape)
        np.add.at(full, idx, g)
        return full

    return Tensor.make(x.data[idx], (x,), (vjp,), "gather_rows")
