"""Sparse matrix substrate: CSR/COO storage and structural operations."""

from .coo import COOMatrix
from .csr import CSRMatrix, DiagonalMatrix
from .ops import degree_vector, is_symmetric_pattern

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "DiagonalMatrix",
    "degree_vector",
    "is_symmetric_pattern",
]
