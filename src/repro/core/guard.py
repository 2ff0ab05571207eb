"""Guarded execution: input admission, budgets, and the fallback ladder.

GRANII's runtime always holds *several* legal compositions of the same
layer — the surviving association trees all compute the same function
(paper §III).  That redundancy is wasted if the engine commits to the
single predicted-cheapest plan and dies with it.  This module turns the
plan pool into a graceful-degradation ladder:

- :func:`validate_inputs` — an admission gate rejecting malformed inputs
  (shape/width mismatches against the plan's :class:`ShapeEnv`,
  non-float dtypes, NaN/Inf contamination, broken adjacency structure)
  with structured :class:`~repro.errors.GraniiInputError`\\ s instead of
  downstream NumPy broadcast errors or silent index wraparound;
- :class:`ExecutionBudget` — per-plan wall-clock deadlines (cost-model
  prediction × ``REPRO_DEADLINE_SLACK``, floored at
  ``REPRO_DEADLINE_FLOOR_MS``) and memory budgets
  (``REPRO_MEM_BUDGET_MB``), checked before execution against the plan's
  estimated peak and *during* execution between kernels;
- :class:`CircuitBreaker` — per-key failure counters that trip after
  ``threshold`` failures (default 3) and reset after a
  ``cooldown_seconds`` cooldown (default 30 s; the serving runtime's
  tenant breaker);
- :class:`GuardedExecutor` — the drop-in ``layer.forward`` replacement
  that walks the ladder: chosen plan → next-cheapest surviving plans →
  the baseline message-passing forward, every plan rung running the
  ``row_segment`` fold.  Every demotion is recorded on the
  :class:`SelectionReport`; if even the reference fails, a
  :class:`~repro.errors.GraniiExecutionError` carries the whole failure
  chain.

Fault paths are exercised deterministically by :mod:`repro.faults`.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import config
from ..errors import (
    GraniiDeadlineError,
    GraniiExecutionError,
    GraniiInputError,
    GraniiMemoryError,
)
from ..sparse import CSRMatrix, DiagonalMatrix
from ..tensor import Tensor
from .bindings import build_binding
from .ir import ShapeEnv
from .plan import WORKSPACE_CACHE_KEY, EdgeSparse, KernelExecutionConfig, Plan

__all__ = [
    "CircuitBreaker",
    "DemotionRecord",
    "ExecutionBudget",
    "ExecutorCaches",
    "GuardedExecutor",
    "execute_plan",
    "reference_forward",
    "shape_env_for",
    "validate_inputs",
    "value_nbytes",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def reference_forward(layer, g, feat):
    """Run the baseline message-passing forward from either execution mode.

    ``forward`` is written against Tensors; numpy-mode callers (plain
    ndarray features) get an ndarray back so the fallback is a drop-in
    replacement for the plan output.
    """
    if isinstance(feat, Tensor):
        return layer.forward(g, feat)
    out = layer.forward(g, Tensor(np.asarray(feat, dtype=np.float64)))
    return np.asarray(out.data)


class ExecutorCaches:
    """What an executor has derived from the graphs it ran, per graph.

    ``setup`` holds the per-graph setup caches of :func:`execute_plan`
    (graph-only step results such as Ã, the binding's graph-only leaves,
    the workspace arena); ``env`` the guard's :class:`ShapeEnv` per graph.
    Both are ``WeakKeyDictionary``\\ s keyed on the graph *object* and are
    dropped with it: an ``id(g)`` key is recycled by CPython once ``g``
    dies, and the next graph at that address would be served the dead
    one's precomputed Ã; and another object of the same structure but
    other edge weights never sees this one's.

    An executor starts with empty caches unless it is handed the caches
    of a predecessor that ran the same layer and plan (the serving
    runtime does, one request at a time — an arena hands out one buffer
    per shape, so two running executors must never share one).
    """

    __slots__ = ("setup", "env")

    def __init__(self) -> None:
        self.setup = weakref.WeakKeyDictionary()
        self.env = weakref.WeakKeyDictionary()


def execute_plan(
    engine, layer, plan: Plan, strategy: str, g, feat, setup_caches,
    slot=None, budget=None,
):
    """One plan execution, as both the guarded and the bare executor run it.

    ``strategy`` runs the forward aggregations (the guard always passes
    ``row_segment``).  ``setup_caches`` is the executor's
    :attr:`ExecutorCaches.setup`.  ``slot`` separates executions that
    must not share a cache for one graph (the guard's rungs).
    """
    mode = "tensor" if isinstance(feat, Tensor) else "numpy"
    kernel_config = None
    if strategy != "row_segment":
        kernel_config = KernelExecutionConfig(strategy=strategy)
    cache = setup_caches.setdefault(g, {}).setdefault((mode, slot), {})
    binding = build_binding(
        layer, g, feat, mode, engine.system.degree_method, setup_cache=cache
    )
    try:
        out = plan.execute(
            binding,
            mode=mode,
            setup_cache=cache,
            kernel_config=kernel_config,
            budget=budget,
        )
    except Exception:
        # a failed run may have left a partially warmed workspace in the
        # setup cache; drop it so a retry starts clean
        arena = cache.pop(WORKSPACE_CACHE_KEY, None)
        if arena is not None:
            arena.drop_buffers()
        raise
    return out


def shape_env_for(adj: CSRMatrix, layer) -> ShapeEnv:
    """A :class:`ShapeEnv` for the adjacency a plan will actually execute.

    Mirrors :meth:`GraniiEngine.shape_env` but starts from the (possibly
    self-looped) adjacency the executor receives, so memory estimates
    describe the real matrix.
    """
    from ..kernels import spgemm_output_nnz_estimate

    env = ShapeEnv()
    env["N"] = adj.shape[0]
    env["E"] = adj.nnz
    env["K1"] = layer.in_size
    env["K2"] = layer.out_size
    current = adj.nnz
    for depth in range(2, 7):
        current = spgemm_output_nnz_estimate(adj.shape[0], current, adj.nnz)
        env[f"E@{depth}"] = current
    return env


def value_nbytes(value) -> float:
    """Resident bytes of one runtime value (ndarray/Tensor/sparse/diag)."""
    if isinstance(value, np.ndarray):
        return float(value.nbytes)
    if isinstance(value, Tensor):
        return float(np.asarray(value.data).nbytes)
    if isinstance(value, CSRMatrix):
        total = value.indptr.nbytes + value.indices.nbytes
        if value.values is not None:
            total += value.values.nbytes
        return float(total)
    if isinstance(value, DiagonalMatrix):
        return float(value.diag.nbytes)
    if isinstance(value, EdgeSparse):
        return value_nbytes(value.pattern) + value_nbytes(value.values)
    return 0.0


# ----------------------------------------------------------------------
# Input admission
# ----------------------------------------------------------------------
def validate_inputs(layer, g, feat, env: Optional[ShapeEnv] = None) -> None:
    """Admission gate for one executor call; raises :class:`GraniiInputError`.

    Checks, in order of cost:

    1. adjacency structure — square shape, ``indptr`` consistency, and
       column indices within ``num_nodes`` (a corrupted graph would
       otherwise wrap around silently inside the kernels);
    2. feature dtype — must be real floating or safely castable
       (integer); object/complex arrays fail fast;
    3. feature shape — one row per node, width equal to the layer's
       ``in_size`` (the plan's ``K1``);
    4. NaN/Inf contamination — a poisoned feature matrix propagates
       through every aggregation and corrupts all downstream rows.

    Skippable via ``REPRO_SKIP_VALIDATION=1`` for trusted pipelines.
    """
    adj = g.adj
    num_nodes = adj.shape[0]
    if adj.shape[0] != adj.shape[1]:
        raise GraniiInputError(
            f"adjacency must be square; got {adj.shape}"
        )
    if adj.indptr.shape[0] != num_nodes + 1 or int(adj.indptr[-1]) != adj.nnz:
        raise GraniiInputError(
            f"adjacency indptr is inconsistent: length {adj.indptr.shape[0]} "
            f"for {num_nodes} nodes, end {int(adj.indptr[-1])} for "
            f"{adj.nnz} edges"
        )
    if adj.nnz and int(adj.indices.max()) >= num_nodes:
        raise GraniiInputError(
            f"edge endpoint {int(adj.indices.max())} is out of range for a "
            f"graph with {num_nodes} nodes — rebuild the graph or drop the "
            f"offending edges before optimizing"
        )
    if adj.nnz and int(adj.indices.min()) < 0:
        raise GraniiInputError(
            f"negative edge endpoint {int(adj.indices.min())}; NumPy would "
            f"silently wrap it to the end of the feature matrix"
        )

    data = feat.data if isinstance(feat, Tensor) else feat
    data = np.asarray(data)
    if data.dtype == object or np.issubdtype(data.dtype, np.complexfloating):
        raise GraniiInputError(
            f"feature dtype {data.dtype} is not usable; supply a real "
            f"floating (or integer) array"
        )
    if data.ndim != 2:
        raise GraniiInputError(
            f"features must be 2-D (num_nodes, in_size); got shape "
            f"{data.shape}"
        )
    if data.shape[0] != num_nodes:
        raise GraniiInputError(
            f"features have {data.shape[0]} rows but the graph has "
            f"{num_nodes} nodes (after self-loop handling); align the "
            f"feature matrix with the node set"
        )
    expected_k = env["K1"] if env is not None and "K1" in env else getattr(
        layer, "in_size", None
    )
    if expected_k is not None and data.shape[1] != expected_k:
        raise GraniiInputError(
            f"features have width {data.shape[1]} but the layer (and its "
            f"compiled plans) expect in_size={expected_k}"
        )
    if np.issubdtype(data.dtype, np.floating) and data.size:
        finite = np.isfinite(data)
        if not finite.all():
            bad = int(data.size - int(finite.sum()))
            rows = np.unique(np.nonzero(~finite)[0])[:5]
            raise GraniiInputError(
                f"features contain {bad} non-finite values (NaN/Inf), e.g. "
                f"in rows {rows.tolist()}; aggregation would spread them to "
                f"every reachable node"
            )


# ----------------------------------------------------------------------
# Execution budgets
# ----------------------------------------------------------------------
@dataclass
class ExecutionBudget:
    """Wall-clock and memory limits for one plan execution.

    ``deadline_seconds``/``memory_budget_bytes`` of ``None`` disable the
    respective check.  ``on_step`` is called by :meth:`Plan.execute`
    after every kernel, so breaches surface between steps instead of
    after a doomed run completes.
    """

    deadline_seconds: Optional[float] = None
    memory_budget_bytes: Optional[float] = None
    _started: float = field(default=0.0, repr=False)
    _resident_bytes: float = field(default=0.0, repr=False)

    @classmethod
    def for_plan(
        cls, predicted_seconds: Optional[float] = None
    ) -> "ExecutionBudget":
        """Budget from the env knobs plus an optional cost prediction."""
        floor = config.deadline_floor_seconds()
        deadline: Optional[float] = floor if floor > 0 else None
        if predicted_seconds is not None and predicted_seconds > 0:
            slack = config.deadline_slack()
            if slack > 0:
                deadline = max(floor, predicted_seconds * slack)
        return cls(
            deadline_seconds=deadline,
            memory_budget_bytes=config.mem_budget_bytes(),
        )

    @property
    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._started

    def start(self) -> None:
        self._started = time.perf_counter()
        self._resident_bytes = 0.0

    def check_estimate(
        self,
        plan: Plan,
        env: ShapeEnv,
        precomputed: Optional[float] = None,
    ) -> None:
        """Pre-execution gate on the plan's estimated peak memory.

        ``precomputed`` supplies an estimate already derived for this
        exact (plan, env) — the static analyzer proves one at selection
        time — so the hot path skips re-walking every step's liveness.
        """
        if self.memory_budget_bytes is None:
            return
        estimate = (
            precomputed if precomputed is not None
            else plan.peak_memory_bytes(env)
        )
        if estimate > self.memory_budget_bytes:
            raise GraniiMemoryError(
                f"plan {plan.name!r} estimates a peak of "
                f"{estimate / 2**20:.1f} MiB, over the "
                f"{self.memory_budget_bytes / 2**20:.1f} MiB budget "
                f"(REPRO_MEM_BUDGET_MB)",
                budget=self.memory_budget_bytes,
                observed=estimate,
            )

    def on_step(self, step, value) -> None:
        """Per-kernel budget check, raising on the first breach."""
        if self.deadline_seconds is not None:
            elapsed = self.elapsed_seconds
            if elapsed > self.deadline_seconds:
                raise GraniiDeadlineError(
                    f"step {getattr(step, 'out', step)!r} pushed execution "
                    f"to {elapsed * 1e3:.0f} ms, past the "
                    f"{self.deadline_seconds * 1e3:.0f} ms deadline "
                    f"(REPRO_DEADLINE_SLACK / REPRO_DEADLINE_FLOOR_MS)",
                    budget=self.deadline_seconds,
                    observed=elapsed,
                )
        if self.memory_budget_bytes is not None:
            self._resident_bytes += value_nbytes(value)
            if self._resident_bytes > self.memory_budget_bytes:
                raise GraniiMemoryError(
                    f"intermediates reached "
                    f"{self._resident_bytes / 2**20:.1f} MiB after step "
                    f"{getattr(step, 'out', step)!r}, over the "
                    f"{self.memory_budget_bytes / 2**20:.1f} MiB budget",
                    budget=self.memory_budget_bytes,
                    observed=self._resident_bytes,
                )


# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Per-key failure counters with trip threshold and cooldown.

    Keys are string pairs (the serving runtime's tenant breaker uses
    ``("tenant", name)``).  After ``threshold`` recorded failures the key
    *trips*: :meth:`is_open` returns True for ``cooldown_seconds``.  When
    the cooldown elapses the key resets fully (closed, count zero).

    All mutation happens under an internal lock: the serving runtime
    calls one breaker from many worker threads at once (the tenant
    breaker is shared by every in-flight request), so count/trip
    transitions must be atomic — two threads racing the threshold must
    produce exactly one trip.

    ``clock`` is injectable so tests can drive cooldown expiry without
    sleeping.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.RLock()
        self._failures: Dict[Tuple[str, str], int] = {}
        self._open_until: Dict[Tuple[str, str], float] = {}

    def _expire(self, key: Tuple[str, str]) -> None:
        until = self._open_until.get(key)
        if until is not None and self._clock() >= until:
            del self._open_until[key]
            self._failures.pop(key, None)

    def record_failure(self, scope: str, name: str) -> bool:
        """Count one failure; returns True if the key just tripped."""
        key = (scope, name)
        with self._lock:
            self._expire(key)
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count >= self.threshold and key not in self._open_until:
                self._open_until[key] = self._clock() + self.cooldown_seconds
                return True
            return False

    def record_success(self, scope: str, name: str) -> None:
        """A successful call closes the failure streak for its key."""
        key = (scope, name)
        with self._lock:
            if key not in self._open_until:
                self._failures.pop(key, None)

    def is_open(self, scope: str, name: str) -> bool:
        key = (scope, name)
        with self._lock:
            self._expire(key)
            return key in self._open_until

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Serializable view of the breaker state (for reports)."""
        with self._lock:
            now = self._clock()
            state: Dict[str, Dict[str, float]] = {}
            for key, count in self._failures.items():
                entry = state.setdefault(
                    "/".join(key), {"failures": float(count), "open": 0.0}
                )
                entry["failures"] = float(count)
            for key, until in self._open_until.items():
                entry = state.setdefault(
                    "/".join(key),
                    {"failures": float(self._failures.get(key, 0)), "open": 0.0},
                )
                entry["open"] = 1.0
                entry["reopens_in_seconds"] = max(0.0, until - now)
            return state


# ----------------------------------------------------------------------
# The fallback ladder
# ----------------------------------------------------------------------
@dataclass
class DemotionRecord:
    """One rung-to-rung demotion of a guarded executor."""

    from_label: str
    to_label: str
    reason: str  # kernel_error | deadline | memory | verification
    error_type: str = ""
    message: str = ""
    step: str = ""
    primitive: str = ""
    seconds: float = 0.0

    def describe(self) -> str:
        detail = f" at step {self.step!r}" if self.step else ""
        err = f" [{self.error_type}]" if self.error_type else ""
        return (
            f"{self.from_label} -> {self.to_label} ({self.reason}{err}"
            f"{detail}, {1e3 * self.seconds:.1f} ms)"
        )


def _failure_reason(exc: BaseException) -> str:
    if isinstance(exc, GraniiDeadlineError):
        return "deadline"
    if isinstance(exc, (GraniiMemoryError, MemoryError)):
        return "memory"
    return "kernel_error"


class GuardedExecutor:
    """Walks the plan ladder, demoting on failure; final rung is the
    baseline message-passing forward.

    Rungs are plans: the chosen plan first, then the remaining surviving
    plans cheapest first, each running the ``row_segment`` fold.  A rung
    that fails is retired for the life of the executor.

    ``caches`` lets the executor start from what a predecessor on the
    same layer and plan already derived (see :class:`ExecutorCaches`);
    everything else — rung position, verification set, the selection
    report with its deadline — is this executor's own.
    ``inputs_validated`` is the caller's word that whatever it calls
    this executor with already passed :func:`validate_inputs` (the
    serving runtime builds one executor per request, after its admission
    gate ran the check on the caller's thread), so the executor does not
    run it a second time.
    """

    def __init__(
        self,
        engine,
        layer,
        selection,
        caches: Optional[ExecutorCaches] = None,
        inputs_validated: bool = False,
    ) -> None:
        self.engine = engine
        self.layer = layer
        self.selection = selection
        self.caches = caches if caches is not None else ExecutorCaches()
        self._inputs_validated = inputs_validated
        chosen = selection.chosen
        self.rungs: List[object] = [chosen] + [
            planned for planned in getattr(selection, "ranked", [])
            if planned is not chosen
        ]
        self.rung = 0
        self._verified_rungs: set = set()
        self._reference_demotion_logged = False

    # ------------------------------------------------------------------
    @property
    def on_reference(self) -> bool:
        return self.rung >= len(self.rungs)

    def _rung_label(self, index: int) -> str:
        if index >= len(self.rungs):
            return "reference"
        planned = self.rungs[index]
        return f"{planned.label}#{planned.plan.name}@row_segment"

    def _predicted_seconds(self, planned) -> Optional[float]:
        costs = getattr(self.selection, "predicted_costs", None) or {}
        return costs.get(f"{planned.label}#{planned.plan.name}")

    def _env_for(self, g) -> ShapeEnv:
        env = self.caches.env.get(g)
        if env is None:
            env = shape_env_for(g.adj, self.layer)
            self.caches.env[g] = env
        return env

    def _demote(
        self,
        reason: str,
        exc: Optional[BaseException] = None,
        seconds: float = 0.0,
    ) -> None:
        record = DemotionRecord(
            from_label=self._rung_label(self.rung),
            to_label=self._rung_label(self.rung + 1),
            reason=reason,
            error_type=type(exc).__name__ if exc is not None else "",
            message=str(exc) if exc is not None else "",
            step=str(getattr(exc, "granii_step", "") or ""),
            primitive=str(getattr(exc, "granii_primitive", "") or ""),
            seconds=seconds,
        )
        self.selection.record_demotion(record)
        self.rung += 1

    # ------------------------------------------------------------------
    def _static_peak_estimate(self, plan, env) -> Optional[float]:
        """Peak-memory estimate proved at selection time, if applicable.

        The analyzer's verdict binds a specific (plan, shape-env) pair;
        the fact is only reused when the executor is about to run that
        exact pair — otherwise return None and let the budget recompute.
        Reuse is recorded on ``selection.runtime_checks_skipped``.
        """
        verdict = getattr(self.selection, "analysis", None)
        if (
            verdict is None
            or not verdict.ok
            or plan is not self.selection.chosen.plan
        ):
            return None
        estimate = verdict.facts.get("peak_memory_bytes")
        if estimate is None:
            return None
        from ..analysis.planlint import analysis_env_key

        if verdict.env_key != analysis_env_key(env):
            return None
        self.selection.record_runtime_check_skipped("memory_estimate:static")
        return estimate

    # ------------------------------------------------------------------
    def _run_rung(self, g, feat):
        planned = self.rungs[self.rung]
        plan = planned.plan
        env = self._env_for(g)
        budget = ExecutionBudget.for_plan(self._predicted_seconds(planned))
        deadline_at = getattr(self.selection, "deadline_at", None)
        if deadline_at is not None:
            # a serving request's end-to-end deadline clamps every rung's
            # kernel budget: no rung may outlive the request it serves
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise GraniiDeadlineError(
                    "request deadline exhausted before plan execution "
                    "started (service deadline_seconds / request deadline)",
                    budget=0.0,
                    observed=-remaining,
                )
            if budget.deadline_seconds is None:
                budget.deadline_seconds = remaining
            else:
                budget.deadline_seconds = min(
                    budget.deadline_seconds, remaining
                )
        precomputed = None
        if budget.memory_budget_bytes is not None:
            precomputed = self._static_peak_estimate(plan, env)
        budget.check_estimate(plan, env, precomputed=precomputed)
        return execute_plan(
            self.engine, self.layer, plan, "row_segment", g, feat,
            self.caches.setup, slot=self.rung, budget=budget,
        )

    def __call__(self, g, feat, *args, **kwargs):
        if not (self._inputs_validated or config.skip_validation()):
            validate_inputs(self.layer, g, feat, env=None)
        attempts: List[Tuple[str, str, str]] = []
        while not self.on_reference:
            planned = self.rungs[self.rung]
            t0 = time.perf_counter()
            try:
                out = self._run_rung(g, feat)
            except GraniiInputError:
                raise  # inputs are bad for every rung; no demotion helps
            except Exception as exc:
                elapsed = time.perf_counter() - t0
                attempts.append(
                    (self._rung_label(self.rung), _failure_reason(exc), repr(exc))
                )
                self._demote(_failure_reason(exc), exc, seconds=elapsed)
                deadline_at = getattr(self.selection, "deadline_at", None)
                if (
                    isinstance(exc, GraniiDeadlineError)
                    and deadline_at is not None
                    and time.monotonic() >= deadline_at
                ):
                    # the *request* deadline (not just this rung's budget)
                    # is spent: walking further down the ladder can only
                    # finish later than the caller will wait
                    raise
                continue
            if self.engine.verify_plans and self.rung not in self._verified_rungs:
                self._verified_rungs.add(self.rung)
                ok, note = self.engine._verify_against_reference(
                    self.layer, planned.plan, g, feat, out
                )
                self.selection.record_verification(ok, note)
                if not ok:
                    attempts.append(
                        (self._rung_label(self.rung), "verification", note)
                    )
                    self._demote("verification", seconds=time.perf_counter() - t0)
                    continue
            return out
        # final rung: the baseline message-passing composition
        if not self._reference_demotion_logged:
            self._reference_demotion_logged = True
        try:
            return reference_forward(self.layer, g, feat)
        except Exception as exc:
            raise GraniiExecutionError(
                f"every rung of the fallback ladder failed for "
                f"{type(self.layer).__name__}; attempts: "
                f"{[a[0] for a in attempts] + ['reference']}",
                attempts=attempts
                + [("reference", _failure_reason(exc), repr(exc))],
            ) from exc
