"""Degree and normalization kernels.

The paper's §VI-C1 analysis traces WiseGraph's GCN slowdowns on dense
graphs to a *binning* kernel: outgoing-edge counts are computed by binning
every edge onto its endpoint, which on GPUs serialises on atomics when few
bins receive many edges.  DGL instead reads degrees directly from the CSR
row pointer.  We implement both so the two system personalities differ in
the same way, and so the hardware model can price the atomic contention.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix, DiagonalMatrix

__all__ = [
    "degrees_from_indptr",
    "degrees_by_binning",
    "norm_diagonal",
    "gcn_norm_vector",
]


def degrees_from_indptr(adj: CSRMatrix) -> np.ndarray:
    """Out-degrees read off the CSR row pointer — O(N), no atomics
    (the matrix's memoised :meth:`~CSRMatrix.row_degrees`)."""
    return adj.row_degrees().astype(np.float64)


def degrees_by_binning(adj: CSRMatrix) -> np.ndarray:
    """Out-degrees by scattering each edge into its row's bin — O(E).

    Functionally identical to :func:`degrees_from_indptr`; kept separate
    because WiseGraph's default composition uses this kernel and its cost
    behaves very differently on dense graphs (atomic contention).
    """
    # result buffer, returned to the caller  # lint: allow(raw-alloc-in-kernels)
    out = np.zeros(adj.shape[0], dtype=np.float64)
    np.add.at(out, adj.row_ids(), 1.0)
    return out


def norm_diagonal(adj: CSRMatrix, power: float = -0.5, method: str = "indptr") -> DiagonalMatrix:
    """``D^power`` of the adjacency, with a choice of degree kernel."""
    if method == "indptr":
        deg = degrees_from_indptr(adj)
    elif method == "binning":
        deg = degrees_by_binning(adj)
    else:
        raise ValueError(f"unknown degree method {method!r}")
    return DiagonalMatrix(deg).power(power)


def gcn_norm_vector(adj: CSRMatrix) -> np.ndarray:
    """The ``d^{-1/2}`` vector GCN's dynamic normalization broadcasts."""
    return norm_diagonal(adj, -0.5).diag
