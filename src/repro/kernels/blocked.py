"""Blocked and thread-parallel execution of the sparse primitives.

The strategies in this module cut the rows into **row blocks** — runs of
consecutive CSR rows holding at most ``block_nnz`` edges (a single row
longer than the budget becomes its own block) — and fold one block at a
time, so the slice of the output being written and the edges feeding it
stay cache-resident.  How a block is folded depends on the semiring
alone:

- the sum family (``sum``/``mean`` × ``mul``/``copy_rhs``) calls the
  compiled :func:`~repro.kernels.segment.fold_rows` on the block's row
  range — no message array exists, tiled or otherwise;
- ``max``/``min`` and the other ⊗ materialise the block's messages in a
  scratch tile drawn from a :class:`~repro.kernels.workspace.WorkspaceArena`
  and reduce them with :func:`~repro.kernels.segment.segment_reduce`;
  peak intermediate memory is O(block·K) instead of the one-shot
  kernel's O(E·K).

Every strategy is one call of :func:`fold_spans`, the single span loop.
This module's two public wrappers differ only in which spans they fold:

``row_segment`` (:func:`gspmm_fold`)
    *The fold*.  A compiled fold runs as the :func:`worker_spans` of its
    ``nnz·k`` work: one span below :data:`FOLD_CROSSOVER`,
    ``REPRO_NUM_THREADS`` edge-balanced spans at or above it, folded at
    once by :func:`run_spans`.  A NumPy-fold semiring runs
    :func:`gspmm_row_blocks`: its ``block_nnz`` tiles bound the message
    memory, and they fold on the caller.
``blocked`` (:func:`gspmm_row_blocks`)
    Sequential execution, block after block, with a reusable workspace.
    Block size is the ``block_nnz`` argument (default
    :data:`DEFAULT_BLOCK_NNZ`, 32768 edges, i.e. a 256 KiB float64 tile
    per feature column budgeted across k).

The worker schedule
-------------------
:func:`worker_spans` cuts a fold whose ``nnz·k`` reaches
:data:`FOLD_CROSSOVER` (measured in place on the reference host,
docs/PERFORMANCE.md "The fold's crossover") into one contiguous span per
worker, edge-balanced by :func:`~repro.graphs.partition.plan_row_shards`;
below it there is one span and nothing is submitted.  :func:`run_spans`
is the fork-join: the caller runs the first span itself and hands the
others to the one ``repro-spmm`` thread pool; a call made on a pool
thread runs every span inline, so no worker ever waits on the pool it
belongs to.

Determinism
-----------
Every strategy is **bitwise deterministic**, and bitwise equal to a
one-span fold, for any block size and thread count.  The invariant that
guarantees this: spans are contiguous row ranges, so every output row's
reduction happens entirely inside exactly one span, and both folds in
:mod:`~repro.kernels.segment` make each row's result a pure function of
that row's edges in CSR order — the compiled fold walks ``indptr[r]`` to
``indptr[r+1]`` left to right whichever ``indptr`` slice it was handed,
and ``segment_reduce`` keys its association on the row's length alone.
Threads never split a row's sum: workers own disjoint row ranges, write
disjoint output slices, and draw scratch from per-thread arenas
(:func:`~repro.kernels.workspace.thread_local_arena`), so neither the
pool's scheduling order nor ``REPRO_NUM_THREADS`` nor ``block_nnz``
can change a single result bit.  Floating-point drift across strategies
would otherwise masquerade as (or mask) plan-equivalence divergences;
``tests/test_determinism.py`` pins the bitwise contract, and
``tests/test_worker_spans.py`` the same for every thread count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import config
from ..graphs.partition import plan_row_shards
from ..sparse import CSRMatrix
from .segment import fold_rows, folds_compiled, result_buffer, segment_reduce
from .semiring import Semiring, get_semiring
from .workspace import WorkspaceArena, step_buffer, thread_local_arena

__all__ = [
    "DEFAULT_BLOCK_NNZ",
    "FOLD_CROSSOVER",
    "default_num_threads",
    "row_block_spans",
    "run_spans",
    "usable_cpus",
    "worker_spans",
    "fold_spans",
    "gspmm_row_blocks",
    "gspmm_fold",
    "gsddmm_blocked",
    "require_columns_in_range",
]

DEFAULT_BLOCK_NNZ = 32768

# ufuncs that support out=, for computing messages in-place in the tile
_BINARY_UFUNCS = {
    "mul": np.multiply,
    "add": np.add,
    "sub": np.subtract,
    "div": np.divide,
}


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset``, a cgroup cpuset), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Read once: every g-SpMM asks for the default width, and the CPUs the
# process was started on do not change under it.
_AUTO_NUM_THREADS = min(4, usable_cpus())


def default_num_threads() -> int:
    """Worker count of a split fold; ``REPRO_NUM_THREADS`` (read on every
    call) wins over the import-time ``min(4, usable_cpus())``."""
    value = config.num_threads()
    if value > 0:
        return value
    return _AUTO_NUM_THREADS


def row_block_spans(
    indptr: np.ndarray, block_nnz: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Partition rows into ``[r0, r1)`` spans of at most ``block_nnz`` edges
    (``None``: :data:`DEFAULT_BLOCK_NNZ`).

    Spans are contiguous, cover every row exactly once, and contain at
    least one row each — a single row denser than the budget becomes its
    own (oversized) span, so the tile must be sized by
    :func:`max_span_nnz`, not by ``block_nnz`` alone.
    """
    if block_nnz is None:
        block_nnz = DEFAULT_BLOCK_NNZ
    n = indptr.shape[0] - 1
    spans: List[Tuple[int, int]] = []
    r = 0
    while r < n:
        r1 = int(np.searchsorted(indptr, indptr[r] + block_nnz, side="right")) - 1
        r1 = min(max(r1, r + 1), n)
        spans.append((r, r1))
        r = r1
    return spans


def max_span_nnz(indptr: np.ndarray, spans: List[Tuple[int, int]]) -> int:
    """The tile capacity needed to hold the densest span."""
    if not spans:
        return 0
    return max(int(indptr[r1] - indptr[r0]) for r0, r1 in spans)


def _promote(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64, order="C")
    return x[:, None] if x.ndim == 1 else x


def _block_messages(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Semiring,
    e0: int,
    e1: int,
    tile: np.ndarray,
) -> np.ndarray:
    """Compute messages for edges [e0, e1) into the tile; returns a view."""
    bn = e1 - e0
    view = tile[:bn]
    binary = semiring.binary
    idx = adj.indices[e0:e1]
    # input inspection: an unweighted adjacency's edge values are
    # implicitly 1.0, and IEEE multiplication by 1.0 is a bitwise
    # identity — the ⊗ pass can be skipped without changing an output bit
    if binary.name == "copy_rhs" or (binary.name == "mul" and not adj.is_weighted):
        np.take(x, idx, axis=0, out=view)
        return view
    edge_vals = adj.effective_values()[e0:e1]
    if binary.name == "copy_lhs":
        view[:] = edge_vals[:, None]
        return view
    ufunc = _BINARY_UFUNCS[binary.name]
    ufunc(edge_vals[:, None], x[idx], out=view)
    return view


def _fold_span(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Semiring,
    r0: int,
    r1: int,
    out: np.ndarray,
    tile: Optional[np.ndarray],
) -> None:
    """Reduce rows [r0, r1) into ``out[r0:r1]`` (before mean finalisation).

    ``tile`` is the message scratch of a NumPy-fold semiring, sized by
    :func:`max_span_nnz`; the compiled fold does not use one.
    """
    if folds_compiled(semiring):
        fold_rows(adj, x, semiring, r0, r1, out)
        return
    reduce_op = semiring.reduce
    e0, e1 = int(adj.indptr[r0]), int(adj.indptr[r1])
    if e0 == e1:
        out[r0:r1] = reduce_op.identity
        return
    messages = _block_messages(adj, x, semiring, e0, e1, tile)
    local_indptr = adj.indptr[r0 : r1 + 1] - e0
    out[r0:r1] = segment_reduce(
        messages, local_indptr, reduce_op.ufunc, reduce_op.identity
    )


def _tile_nnz(
    indptr: np.ndarray, spans: List[Tuple[int, int]], semiring: Semiring
) -> int:
    """Message-tile capacity the spans need: none under the compiled fold."""
    return 0 if folds_compiled(semiring) else max_span_nnz(indptr, spans)


def fold_spans(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Optional[Semiring],
    spans: List[Tuple[int, int]],
    workspace: Optional[WorkspaceArena] = None,
    split: bool = False,
) -> np.ndarray:
    """The one span loop under every in-process g-SpMM strategy.

    Folds each ``[r0, r1)`` span of ``spans`` (contiguous, covering every
    row once) into a fresh result buffer and finalises ``mean`` per span
    while it is cache-hot.  ``row_segment`` (compiled folds) is the
    :func:`worker_spans` call with ``split=True`` (the spans fold at once
    through :func:`run_spans`), ``blocked`` the sequential call over
    :func:`row_block_spans`.

    NumPy-fold semirings draw their message tile from ``workspace`` (a
    private arena when omitted) or, when split, from each worker's
    thread-local arena; either is released with ``drop_buffers()`` if a
    span raises, so a partially written or oversized tile is never
    handed to the next caller.  A ⊗ that ignores the dense operand
    (``copy_lhs``) yields a width-1 result.
    """
    if semiring is None:
        semiring = get_semiring()
    x = _promote(x)
    if semiring.binary.uses_rhs and x.shape[0] != adj.shape[1]:
        raise ValueError(
            f"gspmm shape mismatch: adj {adj.shape} vs dense {x.shape}"
        )
    if workspace is None:
        workspace = WorkspaceArena()
    n = adj.shape[0]
    k = x.shape[1] if semiring.binary.uses_rhs else 1
    out = result_buffer(n, k)
    cap = _tile_nnz(adj.indptr, spans, semiring)
    degf = None
    if semiring.reduce.is_mean:
        degf = np.maximum(adj.row_degrees(), 1).astype(np.float64)

    def run_span(span: Tuple[int, int], arena: WorkspaceArena) -> None:
        r0, r1 = span
        tile = arena.request((cap, k)) if cap else None
        _fold_span(adj, x, semiring, r0, r1, out, tile)
        if degf is not None:
            span_out = out[r0:r1]
            span_out /= degf[r0:r1, None]

    def run_on_worker(span: Tuple[int, int]) -> None:
        try:
            run_span(span, thread_local_arena())
        except Exception:
            # don't leave this worker's arena holding a poisoned tile
            thread_local_arena().drop_buffers()
            raise

    try:
        if split:
            run_spans(spans, run_on_worker)
        else:
            for span in spans:
                run_span(span, workspace)
    except Exception:
        # an exception mid-span leaves a partially written (or oversized)
        # buffer pooled; release it so a demoted retry starts clean
        workspace.drop_buffers()
        raise
    return out


def gspmm_row_blocks(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Optional[Semiring] = None,
    block_nnz: Optional[int] = None,
    workspace: Optional[WorkspaceArena] = None,
) -> np.ndarray:
    """Row-block g-SpMM; numerically identical to ``gspmm``.

    The sum family folds each block with the compiled kernel and needs
    no scratch; for the other semirings peak intermediate memory is one
    ``(max_span_nnz, k)`` tile drawn from ``workspace`` (a private arena
    when omitted) instead of the one-shot kernel's full ``(nnz, k)``
    message array.
    """
    spans = row_block_spans(adj.indptr, block_nnz)
    return fold_spans(adj, x, semiring, spans, workspace=workspace)


# ----------------------------------------------------------------------
# The worker schedule
# ----------------------------------------------------------------------
# nnz·k at which a compiled fold splits into one span per worker.  Measured
# in place on the reference host (2 vCPUs), docs/PERFORMANCE.md "The fold's
# crossover": below it a split loses even while the second vCPU is free,
# because half the fold is less than the fork-join and a pool thread's
# wake-up cost.
FOLD_CROSSOVER = 1 << 22


def worker_spans(
    indptr: np.ndarray, work: int, num_threads: Optional[int] = None
) -> List[Tuple[int, int]]:
    """The contiguous ``[r0, r1)`` spans a fold of ``work`` (``nnz·k``)
    units over the CSR rows of ``indptr`` runs as under :func:`run_spans`.

    One span below :data:`FOLD_CROSSOVER`; at or above it one per worker
    (``num_threads``, default :func:`default_num_threads`), edge-balanced
    by :func:`~repro.graphs.partition.plan_row_shards`, so each span is
    within one row's degree of an equal share.  Spans are non-empty
    unless there are no rows, and cover every row exactly once.
    """
    rows = indptr.shape[0] - 1
    workers = default_num_threads() if num_threads is None else num_threads
    if work < FOLD_CROSSOVER or workers <= 1 or rows <= 1:
        return [(0, rows)]
    bounds = plan_row_shards(indptr, workers)
    spans: List[Tuple[int, int]] = []
    for i in range(workers):
        r0, r1 = int(bounds[i]), int(bounds[i + 1])
        if r1 > r0:
            spans.append((r0, r1))
    return spans


_POOLS: Dict[int, ThreadPoolExecutor] = {}

# set on the pool's own threads: a split fold reached from a span runs
# inline instead of waiting on the pool it is running on
_WORKER = threading.local()


def _mark_pool_thread() -> None:
    _WORKER.active = True


def _pool(num_threads: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(num_threads)
    if pool is None:
        pool = _POOLS.setdefault(
            num_threads,
            ThreadPoolExecutor(
                max_workers=num_threads,
                thread_name_prefix="repro-spmm",
                initializer=_mark_pool_thread,
            ),
        )
    return pool


if hasattr(os, "register_at_fork"):
    # A forked child inherits the executors but none of their threads: a
    # submit there would wait forever.  It starts its own pool on demand.
    os.register_at_fork(after_in_child=_POOLS.clear)


class _HandedSpan:
    """One span handed to the pool, run by whichever thread claims it
    first: a pool thread, or the caller once its own span is done.

    A host that has not scheduled the pool thread by then (a busy
    neighbour holding the second vCPU) costs the caller no wait: it folds
    the span itself, and the late pool thread finds it claimed.  The span
    body — and every array it holds — is let go before the span reports
    done, so a caller that returns from :func:`run_spans` has its buffers
    back in its step pool.
    """

    __slots__ = ("body", "span", "error", "done")

    def __init__(
        self, fn: Callable[[Tuple[int, int]], None], span: Tuple[int, int]
    ) -> None:
        # the claim: list.pop is atomic under the GIL, so exactly one
        # thread gets the body
        self.body = [fn]
        self.span = span
        self.error: Optional[BaseException] = None
        self.done = threading.Event()

    def run(self) -> None:
        """Run the span unless another thread has claimed it."""
        try:
            fn = self.body.pop()
        except IndexError:
            return
        try:
            fn(self.span)
        except BaseException as exc:  # re-raised by the caller
            self.error = exc
        finally:
            del fn
            self.done.set()

    def drop(self) -> None:
        """Claim the span so that nobody runs it (the caller is raising)."""
        try:
            self.body.pop()
        except IndexError:
            return
        self.done.set()


def run_spans(
    spans: List[Tuple[int, int]], fn: Callable[[Tuple[int, int]], None]
) -> None:
    """Call ``fn(span)`` for every span and return once all have finished.

    The fork-join of the split fold: the caller runs the first span
    itself and hands the rest to the pool, then runs any handed span no
    pool thread has started yet.  One span, or a call made on a pool
    thread, runs inline with nothing submitted.  ``fn`` must write only
    its own span's rows.  If a span raises, the caller re-raises (its own
    span's exception first, else the earliest handed span's) only after
    every handed span that started has finished — one that had not is
    never run — so no worker still writes into a buffer the caller's
    error path releases.
    """
    if len(spans) <= 1 or getattr(_WORKER, "active", False):
        for span in spans:
            fn(span)
        return
    pool = _pool(default_num_threads())
    handed: List[_HandedSpan] = []
    try:
        for span in spans[1:]:
            job = _HandedSpan(fn, span)
            pool.submit(job.run)
            handed.append(job)
        fn(spans[0])
        for job in handed:
            job.run()
    finally:
        for job in handed:
            job.drop()
            job.done.wait()
    for job in handed:
        if job.error is not None:
            raise job.error


def gspmm_fold(
    adj: CSRMatrix,
    x: np.ndarray,
    semiring: Optional[Semiring] = None,
    block_nnz: Optional[int] = None,
) -> np.ndarray:
    """The g-SpMM fold (the ``row_segment`` strategy).

    A compiled fold is cut by :func:`worker_spans` on its ``nnz·k`` work
    — one span below the fold crossover, one edge-balanced span per
    worker at or above it — and the spans fold at once through
    :func:`run_spans`, each writing a disjoint slice of the output.  A
    NumPy-fold semiring folds the row blocks :func:`gspmm_row_blocks`
    folds, on the caller's thread-local arena: its ``block_nnz`` tiles
    bound the message memory.  It calls the span loop itself, not that
    function, so patching the ``blocked`` row's runner leaves this one be.
    """
    if semiring is None:
        semiring = get_semiring()
    if not folds_compiled(semiring):
        spans = row_block_spans(adj.indptr, block_nnz)
        return fold_spans(adj, x, semiring, spans, workspace=thread_local_arena())
    x = _promote(x)
    spans = worker_spans(adj.indptr, adj.nnz * x.shape[1])
    return fold_spans(adj, x, semiring, spans, split=True)


# Two endpoint tiles of this many bytes each stay L2-resident while the
# op streams over them; the SDDMM tile's edge count follows from the operand
# width (2 048 edges at k = 32), not from SpMM's edge budget.
_SDDMM_TILE_BYTES = 512 * 1024


def require_columns_in_range(mask: CSRMatrix) -> None:
    """Raise unless every stored column index is a valid column; one pass
    per pattern, memoised on it.

    The constructor's range check can be switched off
    (``REPRO_SKIP_VALIDATION=1``) and the tile gathers below run
    unchecked (``mode="clip"``), so this is what keeps an out-of-range
    column an error instead of a clamped read.
    """
    if mask._aux.get("columns_in_range"):
        return
    if mask.nnz:
        lo, hi = int(mask.indices.min()), int(mask.indices.max())
        if lo < 0 or hi >= mask.shape[1]:
            raise IndexError(
                f"column index {lo if lo < 0 else hi} out of range for a "
                f"pattern with {mask.shape[1]} columns"
            )
    mask._aux["columns_in_range"] = True


def gsddmm_blocked(
    mask: CSRMatrix,
    u: np.ndarray,
    v: np.ndarray,
    op: str = "dot",
    block_nnz: Optional[int] = None,
    workspace: Optional[WorkspaceArena] = None,
) -> np.ndarray:
    """Edge-chunked g-SDDMM; numerically identical to ``gsddmm``.

    The endpoint gathers ``u[rows]`` / ``v[cols]`` are staged through two
    bounded workspace tiles instead of materialising two full ``(nnz, k)``
    arrays.  For element-wise ops the *output* is still O(E·K) — that is
    the result, not an intermediate — but for ``dot`` (GAT's logits, and
    the edge gradient of ``spmm_edge``) the transient footprint drops
    from O(E·K) to O(block·K).

    ``block_nnz`` defaults to the edge count that makes one tile
    ``_SDDMM_TILE_BYTES`` at the operands' width.  The gathers are
    unbuffered (``mode="clip"``; the default ``mode="raise"`` copies
    through a temporary), so the operand heights and the pattern's column
    range are checked here, up front.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    if op not in ("dot", "add", "mul", "sub", "copy_lhs", "copy_rhs"):
        raise ValueError(f"unknown gsddmm op {op!r}")
    if u.shape[0] != mask.shape[0] or v.shape[0] != mask.shape[1]:
        raise ValueError(
            f"gsddmm shape mismatch: mask {mask.shape} needs u with "
            f"{mask.shape[0]} rows and v with {mask.shape[1]}, got "
            f"{u.shape} and {v.shape}"
        )
    require_columns_in_range(mask)
    if block_nnz is None:
        block_nnz = max(
            1, _SDDMM_TILE_BYTES // (8 * max(u.shape[1], v.shape[1], 1))
        )
    if workspace is None:
        workspace = WorkspaceArena()
    nnz = mask.nnz
    rows = mask.row_ids()
    cols = mask.indices
    width = (v if op == "copy_rhs" else u).shape[1]
    out = step_buffer((nnz,) if op == "dot" else (nnz, width))
    cap = min(block_nnz, nnz)
    try:
        for e0 in range(0, nnz, block_nnz):
            e1 = min(e0 + block_nnz, nnz)
            bn = e1 - e0
            if op != "copy_rhs":
                u_tile = workspace.request((cap, u.shape[1]), slot=0)[:bn]
                np.take(u, rows[e0:e1], axis=0, out=u_tile, mode="clip")
            if op != "copy_lhs":
                v_tile = workspace.request((cap, v.shape[1]), slot=1)[:bn]
                np.take(v, cols[e0:e1], axis=0, out=v_tile, mode="clip")
            if op == "dot":
                np.einsum("ek,ek->e", u_tile, v_tile, out=out[e0:e1])
            elif op == "add":
                np.add(u_tile, v_tile, out=out[e0:e1])
            elif op == "mul":
                np.multiply(u_tile, v_tile, out=out[e0:e1])
            elif op == "sub":
                np.subtract(u_tile, v_tile, out=out[e0:e1])
            elif op == "copy_lhs":
                out[e0:e1] = u_tile
            else:
                out[e0:e1] = v_tile
    except Exception:
        workspace.drop_buffers()
        raise
    return out
