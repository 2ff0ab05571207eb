"""Edge softmax — the sparse softmax used by GAT's attention normalisation.

Given per-edge logits aligned with a CSR adjacency, normalise them with a
softmax over each destination's incident edges (each CSR row).  The result
is the sparse attention matrix ``α`` of Equation 4.
"""

from __future__ import annotations

import numpy as np

from scipy.sparse._sparsetools import csr_matvecs

from ..sparse import CSRMatrix
from .workspace import step_buffer

__all__ = ["edge_softmax", "segment_max", "segment_sum"]

_ONE = np.ones(1)
_ZERO_COLUMN = [np.full(0, 0, dtype=np.int64)]


def _edge_segments(values: np.ndarray, indptr: np.ndarray):
    """Contiguous float64 per-edge scalars and int64 row boundaries (the
    compiled fold reads raw buffers), one value per stored entry."""
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != (int(indptr[-1]),):
        raise ValueError(
            f"expected one value per stored entry ({int(indptr[-1])}), "
            f"got {values.shape}"
        )
    return values, indptr


def segment_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row maximum of 1-D per-edge ``values``; -inf for empty rows.

    ``reduceat`` over the non-empty rows only: at an empty segment it
    would return the element *at* the boundary instead of the identity.
    """
    values, indptr = _edge_segments(values, indptr)
    out = np.full(indptr.shape[0] - 1, -np.inf)
    nonempty = np.flatnonzero(indptr[1:] > indptr[:-1])
    if nonempty.size:
        out[nonempty] = np.maximum.reduceat(values, indptr[nonempty])
    return out


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sum of 1-D per-edge ``values``; 0 for empty rows.

    The compiled CSR fold of :mod:`repro.kernels.segment`, with the
    values as the edge weights of a one-column pattern whose operand is
    1.0: per row, a left-to-right sum in edge order.
    """
    values, indptr = _edge_segments(values, indptr)
    n = indptr.shape[0] - 1
    out = np.full(n, 0.0)
    csr_matvecs(n, 1, 1, indptr, _zero_column(values.shape[0]), values, _ONE, out)
    return out


def _zero_column(n: int) -> np.ndarray:
    """``n`` zero column ids: a prefix of one read-only array that grows,
    not an E-length allocation per call."""
    column = _ZERO_COLUMN[0]
    if column.shape[0] < n:
        column = np.full(max(n, 2 * column.shape[0]), 0, dtype=np.int64)
        column.flags.writeable = False
        _ZERO_COLUMN[0] = column
    return column[:n]


def edge_softmax(adj: CSRMatrix, logits: np.ndarray) -> CSRMatrix:
    """Softmax of per-edge logits within each CSR row.

    Returns a weighted CSR matrix with the same pattern as ``adj`` whose
    stored values sum to one along every non-empty row.  Fully-masked
    rows — non-empty rows whose logits are all ``-inf`` — yield all-zero
    weights rather than NaN: the max-shift uses 0 where the row maximum
    is not finite (``-inf - (-inf)`` would be NaN), and a zero softmax
    denominator divides by 1 instead of 0.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (adj.nnz,):
        raise ValueError(
            f"expected one logit per stored entry ({adj.nnz}), got {logits.shape}"
        )
    rows = adj.row_ids()
    row_max = segment_max(logits, adj.indptr)
    # the two guards select per row, not per edge
    # lint: allow(masked-select-in-hot-path)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    # shift, exp and normalise in one pooled buffer; per-row scalars are
    # gathered by row id, which is what np.repeat(·, deg) produced
    vals = np.take(safe_max, rows, out=step_buffer(rows.shape), mode="clip")
    np.subtract(logits, vals, out=vals)
    np.exp(vals, out=vals)
    denom = segment_sum(vals, adj.indptr)
    # lint: allow(masked-select-in-hot-path)
    safe_denom = np.where(denom > 0, denom, 1.0)
    per_edge = np.take(safe_denom, rows, out=step_buffer(rows.shape), mode="clip")
    return adj.with_values(np.divide(vals, per_edge, out=vals))
