"""Structural sparse-matrix operations shared across the stack.

These are *pattern-level* helpers (a symmetry check, degree vectors) as
opposed to the numeric kernels in :mod:`repro.kernels`.  Normalized and
self-term adjacencies (GCN's Ñ, GIN's B) are built only by compiled plans,
through :func:`repro.kernels.sddmm_diag_scale` and
:func:`repro.kernels.spadd_diag`.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix

__all__ = ["is_symmetric_pattern", "degree_vector"]


def is_symmetric_pattern(mat: CSRMatrix) -> bool:
    """Whether the sparsity pattern is symmetric (undirected graph)."""
    if mat.shape[0] != mat.shape[1]:
        return False
    t = mat.transpose()
    return (
        np.array_equal(mat.indptr, t.indptr)
        and np.array_equal(mat.indices, t.indices)
    )


def degree_vector(mat: CSRMatrix, direction: str = "out") -> np.ndarray:
    """Degrees of the adjacency matrix, as floats.

    ``out`` counts stored entries per row, ``in`` per column.  For weighted
    matrices the values are summed instead of counted (weighted degree).
    """
    if direction not in ("out", "in"):
        raise ValueError("direction must be 'out' or 'in'")
    if mat.values is None:
        if direction == "out":
            return mat.row_degrees().astype(np.float64)
        return mat.col_degrees().astype(np.float64)
    if direction == "out":
        return np.add.reduceat(
            np.concatenate([mat.values, [0.0]]),
            np.minimum(mat.indptr[:-1], mat.nnz),
        ) * (mat.row_degrees() > 0)
    return np.bincount(mat.indices, weights=mat.values, minlength=mat.shape[1])
