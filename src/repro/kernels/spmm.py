"""Generalized sparse-matrix dense-matrix multiplication (g-SpMM).

``gspmm(adj, X, semiring)`` computes, for every row ``i`` of the sparse
matrix ``adj``::

    out[i] = ⊕_{j : adj[i, j] stored}  (adj[i, j] ⊗ X[j])

With the standard ``(sum, mul)`` semiring this is the ordinary ``A @ X``.
GNN aggregation places destinations on rows and sources on columns, so a
g-SpMM over the adjacency aggregates neighbor embeddings (paper §II-C).

Six execution strategies are provided:

``row_segment``
    One row fold over the whole matrix — the CSR-natural strategy.  The
    sum family (``sum``/``mean`` × ``mul``/``copy_rhs``) runs the
    compiled :func:`~repro.kernels.segment.fold_rows`; ``max``/``min``
    and the other ⊗ gather messages in edge order and reduce them
    through :func:`~repro.kernels.segment.segment_reduce`.
``gather_scatter``
    Scatters messages with ``ufunc.at`` — an atomics-like strategy whose
    cost profile mirrors GPU scatter kernels.
``blocked``
    Row-block execution (:mod:`repro.kernels.blocked`): the same fold,
    one cache-sized span of rows at a time (NumPy-fold semirings stream
    their messages through a bounded, reusable workspace tile instead
    of one O(E·K) message array).
``blocked_parallel``
    The tiled kernel fanned out over a thread pool (one worker per row
    block); controlled by ``REPRO_NUM_THREADS``.
``spmm_sharded``
    Row shards executed by a persistent pool of worker *processes* over
    shared-memory buffers (:mod:`repro.kernels.sharded`), each shard
    with its own inner plan; controlled by ``REPRO_NUM_WORKERS``.
``spmm_fused``
    The compiled-plan streaming kernel (:mod:`repro.kernels.compiled`):
    the same row-block tiling as ``blocked``, but able to absorb a
    pre-aggregation row scale and post-aggregation epilogues into the
    single pass.  As a bare strategy (no plan context) it runs the
    aggregation alone, bitwise equal to ``blocked``/``row_segment``.

All produce identical results — each row's fold is independent of the
span it arrives in, so on the sum family the strategies differ only in
how they schedule spans; the hardware model prices them differently,
which is what lets the engine pick a strategy per input.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

import numpy as np

from .. import config
from ..sparse import CSRMatrix
from .segment import fold_rows, folds_compiled, result_buffer, segment_reduce
from .semiring import Semiring, get_semiring

__all__ = [
    "SPMM_STRATEGIES",
    "default_spmm_strategy",
    "spmm_strategy_override",
    "gspmm",
    "spmm",
    "spmm_unweighted",
    "gspmm_flops",
]

SPMM_STRATEGIES = (
    "row_segment",
    "gather_scatter",
    "blocked",
    "blocked_parallel",
    "spmm_sharded",
    "spmm_fused",
)

# Innermost spmm_strategy_override() wins over REPRO_SPMM_STRATEGY.
_STRATEGY_OVERRIDES: List[str] = []


def default_spmm_strategy() -> str:
    """Strategy used when the caller does not pick one.

    An active :func:`spmm_strategy_override` takes precedence; otherwise
    ``REPRO_SPMM_STRATEGY`` overrides the built-in ``row_segment``
    default process-wide (handy for benchmarking a whole model under one
    strategy without touching call sites).  A value outside
    :data:`SPMM_STRATEGIES` raises
    :class:`~repro.errors.GraniiConfigError` naming the variable — a
    typo'd strategy used to silently benchmark ``row_segment``.
    """
    if _STRATEGY_OVERRIDES:
        return _STRATEGY_OVERRIDES[-1]
    return config.spmm_strategy(SPMM_STRATEGIES) or "row_segment"


@contextmanager
def spmm_strategy_override(strategy: str) -> Iterator[None]:
    """Force every default-strategy g-SpMM in the block onto ``strategy``.

    This reaches code that never threads a strategy argument — notably
    the autograd sparse ops, whose forward *and* backward aggregations
    call :func:`gspmm` with ``strategy=None``.  The differential
    verification harness uses it to run whole training iterations under
    each execution strategy.
    """
    if strategy not in SPMM_STRATEGIES:
        raise ValueError(f"strategy must be one of {SPMM_STRATEGIES}")
    _STRATEGY_OVERRIDES.append(strategy)
    try:
        yield
    finally:
        _STRATEGY_OVERRIDES.pop()


def _messages(adj: CSRMatrix, x: np.ndarray, semiring: Semiring) -> np.ndarray:
    """Materialise the per-edge message array of shape (nnz, k)."""
    binary = semiring.binary
    if binary.name == "copy_rhs":
        return x[adj.indices]
    edge_vals = adj.effective_values()[:, None]
    if binary.name == "copy_lhs":
        return edge_vals
    return binary(edge_vals, x[adj.indices])


def _row_segment(adj: CSRMatrix, x: np.ndarray, semiring: Semiring) -> np.ndarray:
    reduce_op = semiring.reduce
    if folds_compiled(semiring):
        out = result_buffer(adj.shape[0], x.shape[1])
        fold_rows(adj, x, semiring, 0, adj.shape[0], out)
    else:
        out = segment_reduce(
            _messages(adj, x, semiring),
            adj.indptr,
            reduce_op.ufunc,
            reduce_op.identity,
        )
    if reduce_op.is_mean:
        deg = adj.row_degrees()
        out /= np.maximum(deg, 1).astype(np.float64)[:, None]
    return out


def _reduce_gather_scatter(
    adj: CSRMatrix, messages: np.ndarray, semiring: Semiring
) -> np.ndarray:
    reduce_op = semiring.reduce
    n, k = adj.shape[0], messages.shape[1]
    out = np.full((n, k), reduce_op.identity, dtype=np.float64)
    reduce_op.ufunc.at(out, adj.row_ids(), messages)
    deg = adj.row_degrees()
    empty = deg == 0
    if reduce_op.name in ("max", "min") and empty.any():
        out[empty] = reduce_op.identity
    if reduce_op.is_mean:
        out[empty] = 0.0
        out = out / np.maximum(deg, 1).astype(np.float64)[:, None]
    return out


def gspmm(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Optional[Semiring] = None,
    strategy: Optional[str] = None,
    block_nnz: Optional[int] = None,
    num_threads: Optional[int] = None,
    num_workers: Optional[int] = None,
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
        One of :data:`SPMM_STRATEGIES`; ``None`` means
        :func:`default_spmm_strategy`.
    block_nnz / num_threads / num_workers / workspace:
        Tuning knobs for the blocked and sharded strategies (edge budget
        per tile, thread-pool width, process-pool width, and the
        :class:`~repro.kernels.workspace.WorkspaceArena` scratch buffers
        come from); ignored by the one-shot strategies.
    """
    if semiring is None:
        semiring = get_semiring()
    if strategy is None:
        strategy = default_spmm_strategy()
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.ndim == 1:
        x = x[:, None]
    if strategy == "blocked":
        from .blocked import gspmm_blocked

        return gspmm_blocked(
            adj, x, semiring, block_nnz=block_nnz, workspace=workspace
        )
    if strategy == "blocked_parallel":
        from .blocked import gspmm_parallel

        return gspmm_parallel(
            adj, x, semiring, block_nnz=block_nnz, num_threads=num_threads
        )
    if strategy == "spmm_sharded":
        from .sharded import gspmm_sharded

        return gspmm_sharded(
            adj, x, semiring, num_workers=num_workers, block_nnz=block_nnz
        )
    if strategy == "spmm_fused":
        from .compiled import gspmm_fused

        return gspmm_fused(
            adj, x, semiring, block_nnz=block_nnz, workspace=workspace
        )
    if semiring.binary.uses_rhs and x.shape[0] != adj.shape[1]:
        raise ValueError(
            f"gspmm shape mismatch: adj {adj.shape} vs dense {x.shape}"
        )
    if strategy == "row_segment":
        return _row_segment(adj, x, semiring)
    if strategy == "gather_scatter":
        return _reduce_gather_scatter(adj, _messages(adj, x, semiring), semiring)
    raise ValueError(f"unknown strategy {strategy!r}")


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
