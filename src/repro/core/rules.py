"""Association rules: which windows of operands form which primitive.

These are the rules Algorithm 1's ``getCandidates`` consults (paper
§IV-C, Appendix D): given a window of adjacent, already-resolved operands
inside an associative multiplication level, decide whether GRANII may
associate them and which sparse/dense matrix primitive realises the
association.  Operands are described by :class:`Operand` records —
attribute, sub-attribute and symbolic shape — so the rules never look at
actual data.

The rule table:

======================================  ==================  =================
window (attr.subattr)                   primitive           result
======================================  ==================  =================
diagonal · sparse · diagonal            sddmm_diag          sparse.weighted
diagonal · sparse                       sddmm_diag          sparse.weighted
sparse · diagonal                       sddmm_diag          sparse.weighted
diagonal · diagonal                     diag_mul            diagonal
sparse.unweighted · dense               spmm_unweighted     dense.data
sparse.weighted · dense                 spmm                dense.data
diagonal · dense                        row_broadcast       dense.data
dense · dense                           gemm                dense.data
(addition) sparse + diagonal            spadd_diag          sparse.weighted
(addition) dense + ... + dense          elementwise         dense.data
======================================  ==================  =================

Sparse·sparse products (SpGEMM) are deliberately *not* a rule: neither
DGL nor WiseGraph exposes an SpGEMM kernel, so those associations are
illegal and the enumerator must find another grouping (e.g. SGC's hops
associate right-to-left).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .ir import Dim

__all__ = ["Operand", "MatchResult", "match_matmul_window", "match_add_children"]


@dataclass(frozen=True)
class Operand:
    """Symbolic description of one resolved operand."""

    ref: str  # environment name: a leaf name or an intermediate id
    attr: str  # 'dense' | 'sparse'
    subattr: str
    shape: Tuple[Dim, Dim]
    nnz: Optional[Dim] = None  # sparse only

    @property
    def is_diagonal(self) -> bool:
        return self.subattr == "diagonal"

    @property
    def is_sparse_matrix(self) -> bool:
        return self.attr == "sparse" and not self.is_diagonal

    @property
    def is_dense(self) -> bool:
        return self.attr == "dense"


@dataclass(frozen=True)
class MatchResult:
    """A rule match: the primitive plus the result operand's description."""

    primitive: str
    result_attr: str
    result_subattr: str
    result_shape: Tuple[Dim, Dim]
    result_nnz: Optional[Dim] = None


def _product_nnz_symbol(a_nnz: Optional[Dim], b_nnz: Optional[Dim]) -> Dim:
    """Symbolic nnz of a sparse·sparse product: "E"-powers compose.

    "E" is depth 1; "E@k" depth k; the product of depths a and b has
    depth a+b.  The shape environment supplies per-depth estimates (or
    exact counts when the inspector computed them).
    """

    def depth(sym: Optional[Dim]) -> int:
        if sym == "E":
            return 1
        if isinstance(sym, str) and sym.startswith("E@"):
            return int(sym.split("@", 1)[1])
        raise ValueError(f"cannot compose nnz symbol {sym!r}")

    return f"E@{depth(a_nnz) + depth(b_nnz)}"


def match_matmul_window(
    window: Sequence[Operand], allow_spgemm: bool = False
) -> Optional[MatchResult]:
    """Match a window of 2 or 3 adjacent multiplication operands.

    ``allow_spgemm`` admits the sparse·sparse production — an extension
    beyond the paper's backends (see ``repro.kernels.spgemm``).
    """
    if len(window) == 3:
        a, b, c = window
        if a.is_diagonal and b.is_sparse_matrix and c.is_diagonal:
            return MatchResult(
                "sddmm_diag", "sparse", "weighted",
                (a.shape[0], c.shape[1]), b.nnz,
            )
        return None
    if len(window) != 2:
        return None
    x, y = window
    if x.is_diagonal and y.is_diagonal:
        return MatchResult(
            "diag_mul", "sparse", "diagonal", (x.shape[0], y.shape[1]), x.shape[0]
        )
    if x.is_diagonal and y.is_sparse_matrix:
        return MatchResult(
            "sddmm_diag", "sparse", "weighted", (x.shape[0], y.shape[1]), y.nnz
        )
    if x.is_sparse_matrix and y.is_diagonal:
        return MatchResult(
            "sddmm_diag", "sparse", "weighted", (x.shape[0], y.shape[1]), x.nnz
        )
    if x.is_sparse_matrix and y.is_dense:
        primitive = "spmm_unweighted" if x.subattr == "unweighted" else "spmm"
        return MatchResult(
            primitive, "dense", "data", (x.shape[0], y.shape[1])
        )
    if x.is_diagonal and y.is_dense:
        return MatchResult(
            "row_broadcast", "dense", "data", (x.shape[0], y.shape[1])
        )
    if x.is_dense and y.is_dense:
        return MatchResult("gemm", "dense", "data", (x.shape[0], y.shape[1]))
    if allow_spgemm and x.is_sparse_matrix and y.is_sparse_matrix:
        try:
            out_nnz = _product_nnz_symbol(x.nnz, y.nnz)
        except ValueError:
            return None
        return MatchResult(
            "spgemm", "sparse", "weighted", (x.shape[0], y.shape[1]), out_nnz
        )
    # dense·sparse (and, by default, sparse·sparse) are unsupported
    return None


def match_add_children(children: Sequence[Operand]) -> Optional[MatchResult]:
    """Match a full addition level (all children resolved)."""
    if len(children) < 2:
        return None
    if all(c.is_dense for c in children):
        return MatchResult(
            "elementwise", "dense", "data", children[0].shape
        )
    if len(children) == 2:
        a, b = children
        if a.is_sparse_matrix and b.is_diagonal:
            return MatchResult(
                "spadd_diag", "sparse", "weighted", a.shape, _nnz_plus_n(a.nnz)
            )
        if a.is_diagonal and b.is_sparse_matrix:
            return MatchResult(
                "spadd_diag", "sparse", "weighted", b.shape, _nnz_plus_n(b.nnz)
            )
    return None


def _nnz_plus_n(nnz: Optional[Dim]) -> Dim:
    """Symbolic nnz of a sparse-plus-diagonal pattern union."""
    if isinstance(nnz, str):
        return f"{nnz}+N"
    raise ValueError("spadd_diag requires a symbolic nnz")
