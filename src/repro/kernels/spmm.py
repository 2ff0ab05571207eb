"""Generalized sparse-matrix dense-matrix multiplication (g-SpMM).

``gspmm(adj, X, semiring)`` computes, for every row ``i`` of the sparse
matrix ``adj``::

    out[i] = ⊕_{j : adj[i, j] stored}  (adj[i, j] ⊗ X[j])

With the standard ``(sum, mul)`` semiring this is the ordinary ``A @ X``.
GNN aggregation places destinations on rows and sources on columns, so a
g-SpMM over the adjacency aggregates neighbor embeddings (paper §II-C).

Every execution strategy is one row of :data:`SPMM_STRATEGY_TABLE`;
everything that used to know a strategy by name — ``gspmm``, the
engine's selection, the autotuner, the guard ladder, plan execution,
planlint, the verify sweep, the cost-model profiler and the analytic
device — iterates or looks up that table, so adding or removing a
strategy is a one-row diff.

``row_segment``
    One row fold over the whole matrix — the CSR-natural strategy and
    the reference every other row is bitwise-equal to.  The sum family
    (``sum``/``mean`` × ``mul``/``copy_rhs``) runs the compiled
    :func:`~repro.kernels.segment.fold_rows`; ``max``/``min`` and the
    other ⊗ gather messages in edge order and reduce them through
    :func:`~repro.kernels.segment.segment_reduce`.
``blocked``
    The same fold, one ``block_nnz``-edge span of rows at a time
    (NumPy-fold semirings stream their messages through a bounded,
    reusable workspace tile instead of one O(E·K) message array).
``blocked_parallel``
    The same spans fanned out over a thread pool; controlled by
    ``REPRO_NUM_THREADS``.
``spmm_fused``
    The same spans with a plan's pre-aggregation row scale and
    post-aggregation epilogues absorbed into the pass
    (:mod:`repro.kernels.compiled`).  As a bare strategy (no plan
    context) it runs the aggregation alone.
``spmm_sharded``
    Row shards executed by a persistent pool of worker *processes* over
    shared-memory buffers (:mod:`repro.kernels.sharded`); controlled by
    ``REPRO_NUM_WORKERS``.  No cost primitive prices it, so it is never
    auto-selected — it runs only when pinned (see docs/PERFORMANCE.md,
    "Sharded execution", for the measurements behind that).

The first four are one loop (:func:`repro.kernels.blocked.fold_spans`)
under different span partitions and executors.  All produce identical
results — each row's fold is independent of the span it arrives in —
and the hardware model prices them differently, which is what lets the
engine pick a strategy per input.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .. import config
from ..sparse import CSRMatrix
from . import blocked, compiled, sharded
from .semiring import Semiring, get_semiring

__all__ = [
    "SPMM_STRATEGIES",
    "SPMM_STRATEGY_TABLE",
    "STRATEGY_PRICING_PRIMITIVES",
    "SpmmStrategy",
    "PRICED_STRATEGIES",
    "default_spmm_strategy",
    "demotion_chain",
    "spmm_strategy",
    "spmm_strategy_override",
    "gspmm",
    "spmm",
    "spmm_unweighted",
    "gspmm_flops",
]


@dataclass(frozen=True)
class SpmmStrategy:
    """One g-SpMM execution strategy: how it runs and how it is priced.

    ``run(adj, x, semiring, block_nnz, num_threads, num_workers,
    workspace)`` executes it; runners look their kernel up on its module
    at call time, so a test or fault that patches e.g.
    ``blocked.gspmm_blocked`` perturbs exactly that row.
    """

    name: str
    run: Callable[..., np.ndarray]
    # how rows are partitioned: "one" span, "blocks" of block_nnz edges,
    # or per-worker "shards"; anything but "one" is block_nnz-sensitive
    spans: str
    # cost-model primitive that prices the strategy; None = never
    # auto-selected (pin-only).  The reference row is priced by the
    # plan's own spmm/spmm_unweighted calls instead (see priced_as)
    primitive: Optional[str] = None
    description: str = ""
    # next guard rung when the strategy fails (None: the reference row)
    demotes_to: Optional[str] = "row_segment"
    # per-aggregation buffer the planlint lifetime trace tracks
    scratch: Optional[str] = None
    # draws scratch from the arena plan execution caches per (plan, graph)
    plan_arena: bool = False
    # runs on a "threads"/"processes" pool; None = in-process, so the
    # autotuner may time it without paying pool spin-up
    pool: Optional[str] = None
    # plan execution compiles fusable chains into this strategy's pass
    fuses: bool = False
    # bytes resident outside the plan's own intermediates, budgeted by
    # the guard: (num_rows, num_cols, nnz, k) -> bytes
    extra_bytes: Optional[Callable[[int, int, int, int], float]] = None
    # analytic-device pricing of ``primitive`` relative to plain spmm
    launch_overhead: float = 1.0
    work_scale: float = 1.0
    # per-call scratch of ``primitive`` beyond inputs and output, from a
    # KernelCall shape (the registry's transient-memory model)
    transient_bytes: Optional[Callable[[Mapping[str, float]], float]] = None

    def priced_as(self, call_primitive: str) -> Optional[str]:
        """Cost-model primitive pricing a plan's ``call_primitive``
        aggregation under this strategy (None: unpriced)."""
        return call_primitive if self.demotes_to is None else self.primitive


SPMM_STRATEGY_TABLE: Tuple[SpmmStrategy, ...] = (
    SpmmStrategy(
        "row_segment",
        lambda adj, x, semiring, **knobs: blocked.fold_spans(
            adj, x, semiring, [(0, adj.shape[0])]
        ),
        spans="one",
        demotes_to=None,
    ),
    SpmmStrategy(
        "blocked",
        lambda adj, x, semiring, block_nnz, workspace, **knobs: (
            blocked.gspmm_blocked(
                adj, x, semiring, block_nnz=block_nnz, workspace=workspace
            )
        ),
        spans="blocks",
        primitive="spmm_blocked",
        description="row-block tiled sparse·dense multiplication, "
        "O(block·K) workspace",
        scratch="tile",
        plan_arena=True,
        launch_overhead=2.0,
    ),
    SpmmStrategy(
        "blocked_parallel",
        lambda adj, x, semiring, block_nnz, num_threads, **knobs: (
            blocked.gspmm_parallel(
                adj, x, semiring, block_nnz=block_nnz, num_threads=num_threads
            )
        ),
        spans="blocks",
        primitive="spmm_parallel",
        description="thread-parallel row-block tiled sparse·dense "
        "multiplication",
        scratch="tile",
        pool="threads",
        # thread-pool dispatch plus per-block scheduling launches
        launch_overhead=6.0,
    ),
    SpmmStrategy(
        "spmm_sharded",
        lambda adj, x, semiring, block_nnz, num_workers, **knobs: (
            sharded.gspmm_sharded(
                adj, x, semiring, num_workers=num_workers, block_nnz=block_nnz
            )
        ),
        spans="shards",
        # worker death / IPC timeout demotes to the in-process tiled
        # kernel before falling all the way back to row_segment
        demotes_to="blocked",
        scratch="segments",
        pool="processes",
        extra_bytes=sharded.estimate_segment_bytes,
    ),
    SpmmStrategy(
        "spmm_fused",
        lambda adj, x, semiring, block_nnz, workspace, **knobs: (
            compiled.gspmm_fused(
                adj, x, semiring, block_nnz=block_nnz, workspace=workspace
            )
        ),
        spans="blocks",
        primitive="spmm_fused",
        description="compiled-plan streaming aggregation: row-block tiled "
        "SpMM with pre-scale and epilogues absorbed into the single pass",
        # a compiled-plan failure demotes to the step-by-step tiled
        # interpreter first — same workspace, no fusion
        demotes_to="blocked",
        scratch="fused",
        plan_arena=True,
        fuses=True,
        # one compiled launch absorbs the whole segment, and its
        # epilogues skip the intermediate materialisations
        launch_overhead=1.5,
        work_scale=0.9,
        # the pre-scaled copy of the dense operand, one multiply per
        # source node, staged in the arena ahead of the fold
        transient_bytes=lambda s: 8.0 * s["m"] * s.get("k", 1),
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


def demotion_chain(name: str) -> Tuple[str, ...]:
    """``name`` and the rows the guard demotes it through, in order,
    ending at the reference ``row_segment``."""
    chain = [name]
    while (nxt := spmm_strategy(chain[-1]).demotes_to) is not None:
        chain.append(nxt)
    return tuple(chain)


# cost primitive -> the row it prices: the auto-selectable strategies
PRICED_STRATEGIES: Dict[str, SpmmStrategy] = {
    row.primitive: row for row in SPMM_STRATEGY_TABLE if row.primitive
}

# Primitives whose predicted cost decides the aggregation strategy.
STRATEGY_PRICING_PRIMITIVES = ("spmm", "spmm_unweighted") + tuple(PRICED_STRATEGIES)

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
    _STRATEGY_OVERRIDES.append(spmm_strategy(strategy).name)
    try:
        yield
    finally:
        _STRATEGY_OVERRIDES.pop()


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
        come from); each row's runner takes the ones it uses.
    """
    if strategy is None:
        strategy = default_spmm_strategy()
    return spmm_strategy(strategy).run(
        adj,
        x,
        semiring,
        block_nnz=block_nnz,
        num_threads=num_threads,
        num_workers=num_workers,
        workspace=workspace,
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
