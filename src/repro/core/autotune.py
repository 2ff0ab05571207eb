"""Input-driven autotuning of aggregation strategy and tile size.

The cost models predict *simulated device* time; the machine actually
running the NumPy substrate has its own crossover points.  With
``REPRO_AUTOTUNE=1`` the engine measures a small grid of candidate
``(strategy, block_nnz)`` points on the **actual input adjacency** at
selection time, picks the fastest, and folds the measured/predicted
ratios back into the cost models as runtime residuals
(:func:`repro.core.costmodel.record_runtime_residual`) — so future
selections on this process price the strategies the way this host runs
them, and ``REPRO_BLOCK_NNZ`` stops being a hand-set knob.

Scope is deliberately bounded: only the strategy-table rows that run
in-process are measured (``row_segment`` as the baseline, the tiled ones
over the tile grid).  Pool-backed rows would pay pool spin-up inside the
selection path; their pricing still improves indirectly through the
shared residual store when the guard runs them.

Knobs: ``REPRO_AUTOTUNE`` (enable), ``REPRO_AUTOTUNE_GRID`` (candidate
``block_nnz`` values), ``REPRO_AUTOTUNE_WARMUP`` / ``REPRO_AUTOTUNE_REPEATS``
(measurement discipline).  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import config
from ..hardware.timer import time_fn
from ..kernels import (
    SPMM_STRATEGY_TABLE,
    KernelCall,
    WorkspaceArena,
    get_semiring,
    gspmm,
    spmm_strategy,
)
from ..sparse import CSRMatrix
from .features import inspect_graph

__all__ = [
    "AutotunePoint",
    "AutotuneResult",
    "DEFAULT_GRID",
    "autotune_spmm",
    "autotune_selection",
]

# Tile-size candidates bracketing the built-in DEFAULT_BLOCK_NNZ (32768):
# a cache-snug tile, the default, and a dispatch-lean large tile.
DEFAULT_GRID = (8192, 32768, 131072)

# Strategies measured directly: the table rows that run in-process, with
# no pool warm-up to pay inside the selection path.
TUNABLE_STRATEGIES = tuple(
    row.name for row in SPMM_STRATEGY_TABLE if row.pool is None
)

_SPMM_SEMIRINGS = {"spmm": ("sum", "mul"), "spmm_unweighted": ("sum", "copy_rhs")}


@dataclass(frozen=True)
class AutotunePoint:
    """One measured (strategy, block_nnz) candidate."""

    strategy: str
    block_nnz: Optional[int]
    seconds: float

    def describe(self) -> str:
        block = f"/{self.block_nnz}" if self.block_nnz is not None else ""
        return f"{self.strategy}{block}: {1e3 * self.seconds:.3f} ms"


@dataclass
class AutotuneResult:
    """Outcome of one autotune pass over a (graph, width) workload."""

    strategy: str
    block_nnz: Optional[int]
    points: List[AutotunePoint] = field(default_factory=list)
    residuals: Dict[str, float] = field(default_factory=dict)

    @property
    def best_per_strategy(self) -> Dict[str, float]:
        best: Dict[str, float] = {}
        for p in self.points:
            if p.strategy not in best or p.seconds < best[p.strategy]:
                best[p.strategy] = p.seconds
        return best

    def describe(self) -> str:
        lines = [f"autotune: chose {self.strategy}"
                 + (f" block_nnz={self.block_nnz}" if self.block_nnz else "")]
        lines += [f"  {p.describe()}" for p in sorted(
            self.points, key=lambda p: p.seconds
        )]
        for primitive, factor in sorted(self.residuals.items()):
            lines.append(f"  residual {primitive}: x{factor:.3f}")
        return "\n".join(lines)


def _grid() -> Tuple[int, ...]:
    values = config.autotune_grid()
    return tuple(values) if values else DEFAULT_GRID


def autotune_spmm(
    adj: CSRMatrix,
    k: int,
    semiring_names: Tuple[str, str] = ("sum", "mul"),
    strategies: Sequence[str] = TUNABLE_STRATEGIES,
    grid: Optional[Sequence[int]] = None,
    warmup: Optional[int] = None,
    repeats: Optional[int] = None,
    seed: int = 0,
) -> AutotuneResult:
    """Measure candidate (strategy, block_nnz) points on a real adjacency.

    Times one aggregation of width ``k`` over ``adj`` under every
    candidate point, reusing one :class:`WorkspaceArena` per strategy so
    steady-state (not first-allocation) cost is what's measured.
    Returns the fastest point; no residuals are recorded here — that
    needs cost-model predictions, see :func:`autotune_selection`.
    """
    if grid is None:
        grid = _grid()
    if warmup is None:
        warmup = config.autotune_warmup()
    if repeats is None:
        repeats = config.autotune_repeats()
    semiring = get_semiring(*semiring_names)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((adj.shape[1], max(int(k), 1)))
    result = AutotuneResult(strategy="row_segment", block_nnz=None)
    best_seconds = float("inf")
    for strategy in strategies:
        # a one-span strategy never reads block_nnz: one point
        blocks: Sequence[Optional[int]] = (
            (None,) if spmm_strategy(strategy).spans == "one" else tuple(grid)
        )
        workspace = WorkspaceArena()
        for block in blocks:
            seconds, _ = time_fn(
                lambda: gspmm(
                    adj, x, semiring,
                    strategy=strategy,
                    block_nnz=block,
                    workspace=workspace,
                ),
                repeats=repeats,
                warmup=warmup,
            )
            point = AutotunePoint(strategy, block, seconds)
            result.points.append(point)
            if seconds < best_seconds:
                best_seconds = seconds
                result.strategy = strategy
                result.block_nnz = block
        workspace.clear()
    return result


def autotune_selection(engine, plan, graph, layer) -> Optional[AutotuneResult]:
    """Autotune one engine selection and feed residuals back.

    Measures the plan's aggregation workload (its spmm/spmm_unweighted
    calls' sparse operand and feature width) on the adjacency the
    executor will actually run, honouring a pinned ``engine.spmm_strategy``
    by tuning only ``block_nnz`` for it.  Measured/predicted ratios are
    recorded into the cost-model residual store under the engine's
    device, which also advances :func:`~repro.core.costmodel.cost_model_token`
    so serving-cache fingerprints derived from the refined models change.

    Returns None when the plan has no aggregation to tune.
    """
    from .costmodel import record_runtime_residual, residual_factor

    env = engine.shape_env(graph, layer)
    setup, per_iter = plan.kernel_calls(env, engine.system.degree_method)
    spmm_calls = [
        c for c in per_iter if c.primitive in ("spmm", "spmm_unweighted")
    ]
    if not spmm_calls:
        return None
    call = spmm_calls[0]
    wants_loops = getattr(layer, "wants_self_loops", True)
    adj = graph.adj_with_self_loops() if wants_loops else graph.adj
    if engine.spmm_strategy != "auto":
        strategies: Sequence[str] = (engine.spmm_strategy,)
    else:
        strategies = TUNABLE_STRATEGIES
    result = autotune_spmm(
        adj,
        int(call.shape.get("k", 1)),
        semiring_names=_SPMM_SEMIRINGS[call.primitive],
        strategies=strategies,
    )
    # residual feedback: measured wall clock vs (base) model prediction
    if engine._cost_models is not None:
        models = engine.cost_models
        eff = engine.system.efficiency
        graph_vec = inspect_graph(graph)
        for strategy, measured in result.best_per_strategy.items():
            primitive = spmm_strategy(strategy).priced_as(call.primitive)
            if primitive is None:
                continue  # pinned, unpriced strategy: no model to correct
            variant = KernelCall(primitive, dict(call.shape), tag=call.tag)
            try:
                predicted = models.predict_calls([variant], graph_vec, eff)
            except KeyError:
                continue
            # divide out the live factor so the EWMA sees the base ratio
            # instead of compounding on every refinement
            base = predicted / residual_factor(engine.device.name, primitive)
            factor = record_runtime_residual(
                engine.device.name, primitive, measured, base
            )
            result.residuals[primitive] = factor
    return result
