"""Input-driven measurement of the aggregation fold.

The cost models predict *simulated device* time; the machine actually
running the NumPy substrate has its own speed.  With ``REPRO_AUTOTUNE=1``
the engine times one aggregation of the chosen plan on the **actual
input adjacency** at selection time, as its executor runs it (the
``row_segment`` fold), and folds the measured/predicted ratio back into
the cost models as a runtime residual
(:func:`repro.core.costmodel.record_runtime_residual`) — so future
selections on this process price the plans' aggregations the way this
host runs them.  Nothing is chosen here: there is no strategy or
``block_nnz`` grid to search.

Knobs: ``REPRO_AUTOTUNE`` (enable), ``REPRO_AUTOTUNE_WARMUP`` /
``REPRO_AUTOTUNE_REPEATS`` (measurement discipline).  See
docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .. import config
from ..hardware.timer import time_fn
from ..kernels import get_semiring, gspmm
from ..sparse import CSRMatrix
from .features import inspect_graph

__all__ = [
    "AutotuneResult",
    "autotune_spmm",
    "autotune_selection",
]

_SPMM_SEMIRINGS = {"spmm": ("sum", "mul"), "spmm_unweighted": ("sum", "copy_rhs")}


@dataclass
class AutotuneResult:
    """One measured fold: its best wall-clock seconds and the residual
    factors it recorded (primitive -> factor)."""

    seconds: float
    residuals: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [f"autotune: row_segment: {1e3 * self.seconds:.3f} ms"]
        for primitive, factor in sorted(self.residuals.items()):
            lines.append(f"  residual {primitive}: x{factor:.3f}")
        return "\n".join(lines)


def autotune_spmm(
    adj: CSRMatrix,
    k: int,
    semiring_names: Tuple[str, str] = ("sum", "mul"),
    warmup: Optional[int] = None,
    repeats: Optional[int] = None,
    seed: int = 0,
) -> AutotuneResult:
    """Time one fold of width ``k`` over ``adj``.

    No residual is recorded here — that needs cost-model predictions,
    see :func:`autotune_selection`.
    """
    if warmup is None:
        warmup = config.autotune_warmup()
    if repeats is None:
        repeats = config.autotune_repeats()
    semiring = get_semiring(*semiring_names)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((adj.shape[1], max(int(k), 1)))
    seconds, _ = time_fn(
        lambda: gspmm(adj, x, semiring), repeats=repeats, warmup=warmup
    )
    return AutotuneResult(seconds)


def autotune_selection(engine, plan, graph, layer) -> Optional[AutotuneResult]:
    """Time one selection's aggregation and feed the residual back.

    Measures the plan's first per-iteration spmm/spmm_unweighted call
    (its sparse operand and feature width) on the adjacency the executor
    will actually run.  The
    measured/predicted ratio is recorded into the cost-model residual
    store under the engine's device and the call's primitive, which also
    advances :func:`~repro.core.costmodel.cost_model_token` so
    serving-cache fingerprints derived from the refined models change.

    Returns None when the plan has no aggregation to time.
    """
    from .costmodel import record_runtime_residual, residual_factor

    env = engine.shape_env(graph, layer)
    setup, per_iter = plan.kernel_calls(env, engine.system.degree_method)
    spmm_calls = [c for c in per_iter if c.primitive in _SPMM_SEMIRINGS]
    if not spmm_calls:
        return None
    call = spmm_calls[0]
    wants_loops = getattr(layer, "wants_self_loops", True)
    adj = graph.adj_with_self_loops() if wants_loops else graph.adj
    result = autotune_spmm(
        adj,
        int(call.shape.get("k", 1)),
        semiring_names=_SPMM_SEMIRINGS[call.primitive],
    )
    # residual feedback: measured wall clock vs (base) model prediction
    if engine._cost_models is not None:
        models = engine.cost_models
        graph_vec = inspect_graph(graph)
        try:
            predicted = models.predict_calls(
                [call], graph_vec, engine.system.efficiency
            )
        except KeyError:
            return result
        # divide out the live factor so the EWMA sees the base ratio
        # instead of compounding on every refinement
        base = predicted / residual_factor(engine.device.name, call.primitive)
        result.residuals[call.primitive] = record_runtime_residual(
            engine.device.name, call.primitive, result.seconds, base
        )
    return result
