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

from typing import Optional

import numpy as np

from ..kernels import gspmm, get_semiring, segment_sum
from ..kernels import edge_softmax as edge_softmax_kernel
from ..sparse import CSRMatrix
from .tensor import Tensor

__all__ = [
    "spmm",
    "spmm_edge",
    "sddmm_dot",
    "gsddmm_add_uv",
    "edge_softmax",
    "row_broadcast",
    "gather_rows",
]


def spmm(
    adj: CSRMatrix,
    x: Tensor,
    *,
    strategy: Optional[str] = None,
    block_nnz: Optional[int] = None,
    num_threads: Optional[int] = None,
    num_workers: Optional[int] = None,
) -> Tensor:
    """``A @ X`` with a constant (possibly weighted) adjacency.

    Backward: ``dX = A^T @ dY``.  The strategy knobs tune the *forward*
    aggregation only (every :data:`~repro.kernels.spmm.SPMM_STRATEGIES`
    member is bitwise-identical, so the executor's pinned strategy is safe
    under autograd); the backward SpMM keeps the reference kernel.
    """
    semiring = get_semiring("sum", "mul" if adj.is_weighted else "copy_rhs")

    def backward(grad: np.ndarray) -> None:
        # transposed here, not in the forward: inference never needs it
        x.accumulate_grad(gspmm(adj.transpose(), grad, semiring))

    out_data = gspmm(
        adj,
        x.data,
        semiring,
        strategy=strategy,
        block_nnz=block_nnz,
        num_threads=num_threads,
        num_workers=num_workers,
    )
    return Tensor.make(out_data, (x,), backward, "spmm")


def spmm_edge(
    pattern: CSRMatrix,
    edge_vals: Tensor,
    x: Tensor,
    *,
    strategy: Optional[str] = None,
    block_nnz: Optional[int] = None,
    num_threads: Optional[int] = None,
    num_workers: Optional[int] = None,
) -> Tensor:
    """``A(e) @ X`` where the adjacency values are themselves a tensor.

    This is GAT's aggregation with learned attention values.  Backward:
    ``dE_ij = dY[i] · X[j]`` (an SDDMM) and ``dX = A(e)^T @ dY``.  As in
    :func:`spmm`, the strategy knobs apply to the forward pass only.
    """
    if edge_vals.data.shape != (pattern.nnz,):
        raise ValueError("edge values must align with the pattern's nnz")
    weighted = pattern.with_values(edge_vals.data)

    def backward(grad: np.ndarray) -> None:
        rows, cols = pattern.row_ids(), pattern.indices
        edge_vals.accumulate_grad(np.einsum("ek,ek->e", grad[rows], x.data[cols]))
        x.accumulate_grad(gspmm(weighted.transpose(), grad))

    out_data = gspmm(
        weighted,
        x.data,
        strategy=strategy,
        block_nnz=block_nnz,
        num_threads=num_threads,
        num_workers=num_workers,
    )
    return Tensor.make(out_data, (edge_vals, x), backward, "spmm_edge")


def sddmm_dot(pattern: CSRMatrix, u: Tensor, v: Tensor) -> Tensor:
    """Per-edge dot products ``e_ij = u[i] · v[j]`` as an edge tensor.

    Backward scatters through the pattern: ``du[i] += Σ_j dE_ij v[j]``
    (an SpMM with the gradient as edge values) and symmetrically for v.
    """
    rows, cols = pattern.row_ids(), pattern.indices

    def backward(grad: np.ndarray) -> None:
        weighted = pattern.with_values(grad)
        u.accumulate_grad(gspmm(weighted, v.data))
        v.accumulate_grad(gspmm(weighted.transpose(), u.data))

    out_data = np.einsum("ek,ek->e", u.data[rows], v.data[cols])
    return Tensor.make(out_data, (u, v), backward, "sddmm_dot")


def gsddmm_add_uv(pattern: CSRMatrix, u_score: Tensor, v_score: Tensor) -> Tensor:
    """Per-edge ``e_ij = u_score[i] + v_score[j]`` for scalar node scores.

    This is GAT's decomposed attention logit: ``a^T [Θ_i ‖ Θ_j]`` splits
    into a destination score plus a source score.
    """
    rows, cols = pattern.row_ids(), pattern.indices

    def backward(grad: np.ndarray) -> None:
        u_score.accumulate_grad(
            np.bincount(rows, weights=grad, minlength=pattern.shape[0])
        )
        v_score.accumulate_grad(
            np.bincount(cols, weights=grad, minlength=pattern.shape[1])
        )

    out_data = u_score.data[rows] + v_score.data[cols]
    return Tensor.make(out_data, (u_score, v_score), backward, "gsddmm_add_uv")


def edge_softmax(pattern: CSRMatrix, logits: Tensor) -> Tensor:
    """Row-wise softmax over edge logits; returns an edge tensor α.

    Backward: ``dlogit = α ⊙ (dα − row_sum(dα ⊙ α))`` per destination row.
    """
    alpha_mat = edge_softmax_kernel(pattern, logits.data)
    alpha = alpha_mat.values
    deg = pattern.row_degrees()

    def backward(grad: np.ndarray) -> None:
        weighted_sums = segment_sum(grad * alpha, pattern.indptr)
        logits.accumulate_grad(alpha * (grad - np.repeat(weighted_sums, deg)))

    return Tensor.make(alpha, (logits,), backward, "edge_softmax")


def row_broadcast(d: np.ndarray, x: Tensor) -> Tensor:
    """``diag(d) @ X`` with a constant per-row vector (GCN normalization)."""
    d = np.asarray(d, dtype=np.float64)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(d[:, None] * grad)

    return Tensor.make(d[:, None] * x.data, (x,), backward, "row_broadcast")


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather with scatter-add backward (used by sampled training)."""
    idx = np.asarray(idx, dtype=np.int64)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        np.add.at(full, idx, grad)
        x.accumulate_grad(full)

    return Tensor.make(x.data[idx], (x,), backward, "gather_rows")
