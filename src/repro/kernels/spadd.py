"""Sparse-plus-diagonal: the setup kernel behind GIN's precomputed B.

``spadd_diag(A, d)`` returns the weighted CSR matrix ``A + diag(d)``,
inserting diagonal entries where A has none.  This is a pattern-changing
*setup* primitive: it runs once per graph, then aggregation proceeds as a
single weighted SpMM.  It builds its arrays as ``add_self_loops`` builds
Ã, sort-free on a canonical pattern.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix

__all__ = ["spadd_diag"]


def spadd_diag(adj: CSRMatrix, diag: np.ndarray) -> CSRMatrix:
    """``A + diag(d)`` as a weighted CSR matrix."""
    if adj.shape[0] != adj.shape[1]:
        raise ValueError("spadd_diag requires a square matrix")
    diag = np.asarray(diag, dtype=np.float64)
    if diag.shape != (adj.shape[0],):
        raise ValueError("diagonal length must match the matrix size")
    return adj._add_diagonal(diag)
