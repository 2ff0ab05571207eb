"""Generalized sparse-matrix dense-matrix multiplication (g-SpMM).

``gspmm(adj, X, semiring)`` computes, for every row ``i`` of the sparse
matrix ``adj``::

    out[i] = ⊕_{j : adj[i, j] stored}  (adj[i, j] ⊗ X[j])

With the standard ``(sum, mul)`` semiring this is the ordinary ``A @ X``.
GNN aggregation places destinations on rows and sources on columns, so a
g-SpMM over the adjacency aggregates neighbor embeddings (paper §II-C).

Every execution strategy is one row of :data:`SPMM_STRATEGY_TABLE`;
everything that knows a strategy by name — ``gspmm``, plan execution,
planlint and the verify sweep — looks up that table.  No strategy is
priced or chosen: every selection, guard rung and backward pass runs
``row_segment``.  ``blocked`` runs only where a caller names it
(``gspmm(strategy=...)``, an unguarded executor, the verify sweep).

``row_segment``
    *The fold*, and the reference every other row is bitwise-equal to.
    The sum family (``sum``/``mean`` × ``mul``/``copy_rhs``) runs the
    compiled :func:`~repro.kernels.segment.fold_rows` as the worker
    spans of its ``nnz·k`` work (:func:`repro.kernels.blocked.worker_spans`):
    one span below the fold's crossover, one edge-balanced span per
    worker (``REPRO_NUM_THREADS``) above it, folded at once.
    ``max``/``min`` and the other ⊗ gather messages in ``block_nnz``-edge
    tiles and reduce them through
    :func:`~repro.kernels.segment.segment_reduce`.
``blocked``
    The same fold, one ``block_nnz``-edge span of rows at a time, on the
    caller (NumPy-fold semirings stream their messages through a
    bounded, reusable workspace tile).

Both are one loop (:func:`repro.kernels.blocked.fold_spans`) under
different span partitions, and both produce identical results — each
row's fold is independent of the span it arrives in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..sparse import CSRMatrix
from . import blocked
from .semiring import Semiring, get_semiring

__all__ = [
    "SPMM_STRATEGIES",
    "SPMM_STRATEGY_TABLE",
    "STRATEGY_PRICING_PRIMITIVES",
    "SpmmStrategy",
    "spmm_strategy",
    "gspmm",
    "spmm",
    "spmm_unweighted",
    "gspmm_flops",
]


@dataclass(frozen=True)
class SpmmStrategy:
    """One g-SpMM execution strategy.

    ``run(adj, x, semiring, block_nnz, workspace)`` executes it; runners
    look their kernel up on its module at call time, so a test or fault
    that patches e.g. ``blocked.gspmm_row_blocks`` perturbs exactly that
    row.
    """

    name: str
    run: Callable[..., np.ndarray]
    # per-aggregation buffer the planlint lifetime trace tracks
    scratch: Optional[str] = None
    # draws scratch from the arena plan execution caches per (plan, graph)
    plan_arena: bool = False


SPMM_STRATEGY_TABLE: Tuple[SpmmStrategy, ...] = (
    SpmmStrategy(
        "row_segment",
        lambda adj, x, semiring, block_nnz, workspace: blocked.gspmm_fold(
            adj, x, semiring, block_nnz=block_nnz
        ),
    ),
    SpmmStrategy(
        "blocked",
        lambda adj, x, semiring, block_nnz, workspace: (
            blocked.gspmm_row_blocks(
                adj, x, semiring, block_nnz=block_nnz, workspace=workspace
            )
        ),
        scratch="tile",
        plan_arena=True,
    ),
)

SPMM_STRATEGIES = tuple(row.name for row in SPMM_STRATEGY_TABLE)
_BY_NAME: Dict[str, SpmmStrategy] = {row.name: row for row in SPMM_STRATEGY_TABLE}


def spmm_strategy(name: str) -> SpmmStrategy:
    """The table row called ``name``; ``ValueError`` for anything else."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; must be one of {SPMM_STRATEGIES}"
        ) from None


# The aggregation primitives a plan's kernel calls price: the cost-model
# residuals that can move plan ranking (see costmodel.cost_model_token).
STRATEGY_PRICING_PRIMITIVES = ("spmm", "spmm_unweighted")


def gspmm(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Optional[Semiring] = None,
    strategy: str = "row_segment",
    block_nnz: Optional[int] = None,
    workspace=None,
) -> np.ndarray:
    """Generalized SpMM; see module docstring.

    Parameters
    ----------
    adj:
        Sparse left operand (destination rows, source columns).
    x:
        Dense right operand of shape ``(adj.ncols, k)``.
    semiring:
        The (⊕, ⊗) pair; defaults to ``(sum, mul)``.
    strategy:
        One of :data:`SPMM_STRATEGIES`.
    block_nnz / workspace:
        Edge budget per tile (None:
        :data:`~repro.kernels.blocked.DEFAULT_BLOCK_NNZ`), and the
        :class:`~repro.kernels.workspace.WorkspaceArena` the tiled rows
        draw scratch from; each row's runner takes the ones it uses.  A
        split fold's width is :func:`~repro.kernels.blocked.default_num_threads`.
    """
    return spmm_strategy(strategy).run(
        adj, x, semiring, block_nnz=block_nnz, workspace=workspace
    )


def spmm(adj: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Standard weighted SpMM: ``A @ X`` over the arithmetic semiring."""
    return gspmm(adj, x, get_semiring("sum", "mul"))


def spmm_unweighted(adj: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """SpMM that ignores edge values (Appendix B's cheaper aggregation).

    Equivalent to ``spmm`` on the pattern with all-ones values, but skips
    the per-edge multiply entirely.
    """
    return gspmm(adj, x, get_semiring("sum", "copy_rhs"))


def gspmm_flops(nnz: int, k: int, weighted: bool = True) -> int:
    """Operation count: one ⊕ (and one ⊗ if weighted) per edge per feature.

    Complexity O(E·K) as in Figure 3 of the paper.
    """
    per_edge = 2 if weighted else 1
    return per_edge * nnz * k
