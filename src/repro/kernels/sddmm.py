"""Sampled dense-dense matrix multiplication (g-SDDMM).

The classic SDDMM computes ``C = S ⊙ (A @ B)``: a dense-dense matmul whose
output is only evaluated at the stored positions of a sparse mask ``S``
(Appendix A of the paper).  The generalized form replaces the per-position
dot product with any binary operator over the endpoint feature vectors,
which is how GAT's attention logits over edges are produced.

The GCN normalization precomputation ``D^{-1/2} · A · D^{-1/2}`` (Equation 3)
is the ``sddmm_diag_scale`` special case: both dense operands are diagonal,
so each stored entry costs O(1) and the whole primitive is O(E).
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix, DiagonalMatrix
from .segment import csr_scale_columns, csr_scale_rows

__all__ = [
    "sddmm",
    "gsddmm",
    "sddmm_diag_scale",
]


def sddmm(mask: CSRMatrix, a: np.ndarray, b: np.ndarray) -> CSRMatrix:
    """Standard SDDMM: ``S ⊙ (A @ B)`` returned as a weighted CSR matrix.

    ``a`` is (nrows, k) and ``b`` is (k, ncols); the mask's stored values
    multiply the sampled dot products (implicit ones when unweighted).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"sddmm shape mismatch: {a.shape} @ {b.shape}")
    if a.shape[0] != mask.shape[0] or b.shape[1] != mask.shape[1]:
        raise ValueError(
            f"sddmm mask {mask.shape} incompatible with product "
            f"{(a.shape[0], b.shape[1])}"
        )
    rows = mask.row_ids()
    cols = mask.indices
    dots = np.einsum("ek,ek->e", a[rows], b[:, cols].T)
    return mask.with_values(mask.effective_values() * dots)


def gsddmm(
    mask: CSRMatrix,
    u: np.ndarray,
    v: np.ndarray,
    op: str = "dot",
) -> np.ndarray:
    """Generalized SDDMM: per-edge features from endpoint features.

    For each stored position (i, j) of ``mask`` combine ``u[i]`` (row-side)
    and ``v[j]`` (column-side) with ``op``:

    - ``dot``: scalar dot product (returns shape ``(nnz,)``)
    - ``add`` / ``mul`` / ``sub``: element-wise (returns ``(nnz, k)``)
    - ``copy_lhs`` / ``copy_rhs``: gather one side's features

    The edge ordering matches ``mask``'s CSR order, so the result can be
    attached with :meth:`CSRMatrix.with_values` when scalar.

    This is the naive reference: both full ``(nnz, k)`` gathers at once.
    :func:`repro.kernels.blocked.gsddmm_blocked` stages them through
    bounded workspace tiles and is what the autograd ops run.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    rows = mask.row_ids()
    cols = mask.indices
    if op == "dot":
        return np.einsum("ek,ek->e", u[rows], v[cols])
    if op == "add":
        return u[rows] + v[cols]
    if op == "mul":
        return u[rows] * v[cols]
    if op == "sub":
        return u[rows] - v[cols]
    if op == "copy_lhs":
        return u[rows]
    if op == "copy_rhs":
        return v[cols]
    raise ValueError(f"unknown gsddmm op {op!r}")


def sddmm_diag_scale(
    mask: CSRMatrix, left: DiagonalMatrix, right: DiagonalMatrix
) -> CSRMatrix:
    """``diag(l) @ S @ diag(r)`` evaluated only on S's pattern.

    This is the O(E) primitive GRANII's association rules emit for the
    ``D · A · D`` grouping in Figure 6(d), producing GCN's precomputed
    normalized adjacency.
    """
    if left.n != mask.shape[0] or right.n != mask.shape[1]:
        raise ValueError("diagonal sizes do not match mask")
    # SciPy's in-place CSR scalings, on one fresh array: an unweighted
    # mask's unit values are skipped (1.0·x is exact and x·y == y·x), a
    # weighted one's are scaled by l[row] first, as in
    # ``values · l[row] · r[col]``
    if mask.values is None:
        vals = right.diag.take(mask.indices)
        csr_scale_rows(*mask.shape, mask.indptr, mask.indices, vals, left.diag)
    else:
        vals = mask.values.copy()
        csr_scale_rows(*mask.shape, mask.indptr, mask.indices, vals, left.diag)
        csr_scale_columns(*mask.shape, mask.indptr, mask.indices, vals, right.diag)
    return mask.with_values(vals)
