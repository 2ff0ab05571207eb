"""Multi-tenant ``GraniiService``: a fault-tolerant plan-serving runtime.

This is ROADMAP item 2 — the production story for serving selected
plans to many concurrent callers.  One service hosts a set of
registered models and accepts :class:`ServeRequest`\\ s from named
*tenants*; each request is admitted, planned (or served from the
fingerprint-keyed plan cache), and executed through the guarded
runtime.  The failure-handling stack, outermost first:

1. **Admission gate** (caller thread, before anything queues):
   unknown models and malformed inputs are rejected with
   :class:`~repro.errors.GraniiInputError` via the same
   :func:`~repro.core.guard.validate_inputs` the engine uses, and
   oversized requests with :class:`~repro.errors.GraniiMemoryError`
   against the :class:`~repro.core.guard.ExecutionBudget` memory knob.
2. **Backpressure**: each tenant holds a bounded count of
   queued+running requests (``max_queue``, default 64); past the bound
   the request is *shed* with a structured
   :class:`~repro.errors.GraniiOverloadError` carrying a retry-after
   hint derived from the tenant's queue depth and recent latency —
   the service never queues unboundedly.
3. **Plan cache** (:class:`~repro.serving.cache.PlanCache`): repeat
   graphs skip enumeration and selection via a
   featurizer-hash fingerprint, with single-flight stampede protection
   and structural-token collision detection.
4. **Per-tenant isolation**: every tenant gets its own
   :class:`~repro.core.runtime.GraniiEngine`, and a tenant-level
   breaker demotes a tenant whose requests keep failing to the
   reference message-passing path — one tenant's pathological graphs
   never demote another tenant.
5. **Deadlines**: a request deadline (per request, or the service's
   ``deadline_seconds``) is propagated into every rung's kernel
   budget via ``SelectionReport.deadline_at``, so a slow tenant's
   requests time out with a structured error instead of occupying a
   worker forever.

Every request terminates in a :class:`ServeResult` — a value, a value
with recorded demotions, or a structured error with the attempt chain
attached.  Raw exceptions never escape a worker thread.

Warm execution state: the :class:`~repro.core.guard.GuardedExecutor`
(rung position, selection report, deadline) is built per request, but
what it would have to *derive again* on a cache hit — the layer from
``ModelSpec.factory`` and the per-graph caches holding Ã, the degree
diagonals and the shape env, the very setup the cost model amortises
over many iterations — is kept on the plan-cache entry per (tenant,
model) and **checked out by one request at a time**
(:meth:`PlanCache.checkout`), so two running requests never share a
layer.  A request that finds none free builds a
fresh layer and empty caches, as every request once did (a miss runs on
the layer it built to select with); the two differ in nothing but the
caches the executor starts with.  Only a *clean* hit
checks its state back in: outcome ``ok`` with no demotion, no
``fault_plan`` on the request (such a request neither takes nor returns
one), tenant breaker closed.  A miss stores nothing, so a stream of
never-reused structures retains nothing; eviction drops an entry's
states with it; and a state remembers the :class:`ModelSpec` *instance*
it was built from, so a re-registered model never runs on old weights.

Request-scoped chaos: a :class:`~repro.faults.FaultPlan` attached to a
request is installed **thread-locally** for exactly that request's
execution, so the chaos driver can poison one tenant's kernels while
another tenant's requests run clean on sibling threads
(the ``serving/*`` entries of ``python -m repro.checks``).
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import config
from ..core.guard import (
    CircuitBreaker,
    ExecutionBudget,
    ExecutorCaches,
    validate_inputs,
    value_nbytes,
)
from ..core.runtime import GraniiEngine, SelectionReport
from ..errors import (
    GraniiDeadlineError,
    GraniiError,
    GraniiInputError,
    GraniiMemoryError,
    GraniiOverloadError,
)
from ..faults import FaultPlan, fault_injection
from ..models import build_layer
from ..state import StateStore
from ..tensor import no_grad
from .cache import PlanCache
from .fingerprint import GraphFingerprint, fingerprint_graph

__all__ = [
    "GraniiService",
    "ModelSpec",
    "ServeRequest",
    "ServeResult",
    "TenantState",
]

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class ModelSpec:
    """One model the service hosts; ``factory`` yields a fresh layer with
    the served weights.  A layer is used by one request at a time
    (executor attachment mutates it), but a clean cache hit hands its
    layer on to the next hit of the same tenant and structure instead of
    calling ``factory`` again — so ``factory`` is not a per-request hook:
    to serve other weights, register the model again.  Kept layers are
    tied to the spec *instance* they were built from and are never used
    for another."""

    name: str  # the name requests address
    model: str  # zoo model type ("gcn", "gat", ...)
    in_size: int
    out_size: int
    factory: Callable[[], object]


@dataclass
class ServeRequest:
    """One inference request from one tenant."""

    tenant: str
    model: str
    graph: object
    feats: np.ndarray
    request_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    # None -> the service's deadline_seconds; 0/negative is rejected at
    # admission
    deadline_seconds: Optional[float] = None
    # request-scoped chaos: installed thread-locally around execution
    fault_plan: Optional[FaultPlan] = None


@dataclass
class ServeResult:
    """How one admitted request terminated.  ``ok`` outcomes: ``ok``
    (plan, no demotions), ``ok_demoted`` (correct via the ladder),
    ``reference`` (tenant-breaker demotion to the baseline path).
    Error outcomes: ``timeout``, ``error``, ``raw_escape``.

    ``retries`` is always 0: the service retries nothing (the fallback
    ladder demotes instead).  The field stays because the serving
    benchmark harness reads it."""

    request_id: str
    tenant: str
    model: str
    ok: bool
    outcome: str
    value: Optional[np.ndarray] = None
    cache_hit: bool = False
    retries: int = 0
    attempts: List[Tuple[str, str, str]] = field(default_factory=list)
    demotions: List[str] = field(default_factory=list)
    error: str = ""
    error_type: str = ""
    queue_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass
class TenantState:
    """Per-tenant bookkeeping: the isolated engine plus queue/latency
    accounting that drives backpressure and retry-after hints."""

    name: str
    engine: GraniiEngine
    inflight: int = 0
    submitted: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    demoted_requests: int = 0
    reference_served: int = 0
    breaker_trips: int = 0
    ema_latency_seconds: float = 0.05

    def snapshot(self) -> Dict[str, float]:
        return {
            "inflight": float(self.inflight),
            "submitted": float(self.submitted),
            "served": float(self.served),
            "failed": float(self.failed),
            "shed": float(self.shed),
            "demoted_requests": float(self.demoted_requests),
            "reference_served": float(self.reference_served),
            "breaker_trips": float(self.breaker_trips),
            "ema_latency_seconds": float(self.ema_latency_seconds),
        }


class GraniiService:
    """Thread-pool plan-serving runtime; see the module docstring.

    ``max_queue`` bounds each tenant's queued+running requests,
    ``deadline_seconds`` is the default request deadline (None: none),
    ``plan_cache_size`` the plan cache's capacity, and the tenant breaker
    trips after ``tenant_breaker_threshold`` failures for
    ``tenant_breaker_cooldown`` seconds.  Use as a context manager, or
    call :meth:`close` to drain.
    """

    def __init__(
        self,
        device: str = "cpu",
        system: str = "dgl",
        scale: str = "default",
        cost_models=None,
        num_threads: int = 4,
        max_queue: int = 64,
        deadline_seconds: Optional[float] = None,
        plan_cache_size: int = 128,
        verify_plans: bool = False,
        tenant_breaker_threshold: int = 3,
        tenant_breaker_cooldown: float = 30.0,
        fingerprint_fn=None,
        state_dir: Optional[str] = None,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self._device = device
        self._system = system
        self._scale = scale
        self._cost_models = cost_models
        self._verify_plans = bool(verify_plans)
        self._num_threads = int(num_threads)
        self._max_queue = int(max_queue)
        if self._max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._deadline_seconds = deadline_seconds
        self._cache = PlanCache(plan_cache_size)
        # Durable state: with a state dir (argument or REPRO_STATE_DIR),
        # warm-start cost models and plan-cache entries saved by a
        # previous process — BEFORE the selector is built, because it
        # would otherwise retrain models we already have on disk.
        resolved_state_dir = (
            state_dir if state_dir is not None else config.state_dir()
        )
        self._store: Optional[StateStore] = (
            StateStore(resolved_state_dir) if resolved_state_dir else None
        )
        self.warm_start: Dict[str, object] = {}
        if self._store is not None:
            self.warm_start = self._restore_state()
        self._fingerprint_fn = fingerprint_fn or fingerprint_graph
        # the selection engine is shared (its outputs are immutable plan
        # templates); computes are serialized under _select_lock so the
        # engine never races itself on a multi-key miss burst
        self._selector = GraniiEngine(
            device=device,
            system=system,
            scale=scale,
            cost_models=self._cost_models,
        )
        self._select_lock = threading.Lock()
        self._tenant_breaker = CircuitBreaker(
            threshold=tenant_breaker_threshold,
            cooldown_seconds=tenant_breaker_cooldown,
        )
        self._models: Dict[str, ModelSpec] = {}
        self._tenants: Dict[str, TenantState] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._completed = 0
        self._shed = 0
        self._rejected = 0
        self._pool = ThreadPoolExecutor(
            max_workers=self._num_threads, thread_name_prefix="granii-serve"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop admitting; optionally wait for in-flight requests.  The
        kept execution states go: nothing will check one out again."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        self._cache.drop_warm_states()

    def shutdown(self, save: bool = True) -> None:
        """Graceful full stop, in dependency order: drain the request
        threads, then persist durable state (if configured) — so the
        snapshot holds everything an in-flight request recorded."""
        self.close(wait=True)
        if save and self._store is not None:
            try:
                self.save_state()
            except Exception:
                # shutdown must complete even if the disk is gone
                logger.warning(
                    "state save failed during shutdown", exc_info=True
                )

    def __enter__(self) -> "GraniiService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def _restore_state(self) -> Dict[str, object]:
        """Warm-start from the state store; every snapshot is optional
        and a corrupt one costs a cold rebuild, never a crash."""
        summary: Dict[str, object] = {"cost_models": False, "plan_cache": 0}
        if self._cost_models is None:
            payload = self._store.load("cost_models")
            if isinstance(payload, dict):
                try:
                    from ..core.costmodel import CostModelSet

                    # a set handed in as ``cost_models=`` (fitted on
                    # caller-chosen graphs) has no scale: it restores on
                    # the device alone, as it was served before
                    scale = self._scale if payload.get("scale") else None
                    self._cost_models = CostModelSet.from_dict(
                        payload, device=self._device, scale=scale
                    )
                    summary["cost_models"] = True
                except Exception:
                    logger.warning(
                        "cost-model snapshot unusable; training cold",
                        exc_info=True,
                    )
        entries = self._store.load("plan_cache")
        if isinstance(entries, list):
            try:
                summary["plan_cache"] = self._cache.seed(
                    (key, token, payload) for key, token, payload in entries
                )
            except Exception:
                logger.warning(
                    "plan-cache snapshot unusable; starting cold",
                    exc_info=True,
                )
        return summary

    def save_state(self) -> Dict[str, str]:
        """Atomically snapshot the cost models and the plan cache to the
        state store; returns snapshot name -> path.

        Requires a state directory (``state_dir=`` or
        ``REPRO_STATE_DIR``).
        """
        if self._store is None:
            raise RuntimeError(
                "no state directory configured; pass state_dir= or set "
                "REPRO_STATE_DIR"
            )
        paths = {
            "plan_cache": self._store.save(
                "plan_cache", self._cache.export_entries()
            ),
        }
        # only persist models that exist: never *train* during shutdown
        models = self._cost_models or self._selector._cost_models
        if models is not None:
            paths["cost_models"] = self._store.save(
                "cost_models", models.to_dict()
            )
        return paths

    def health(self) -> Dict[str, object]:
        """Readiness probe: admission state, tenant breaker states, and
        state-store status — cheap enough to poll."""
        with self._lock:
            closed = self._closed
            tenants = len(self._tenants)
            models = sorted(self._models)
        return {
            "ready": not closed,
            "closed": closed,
            "models": models,
            "tenants": tenants,
            "tenant_breakers": self._tenant_breaker.snapshot(),
            "state_store": (
                self._store.status() if self._store is not None else None
            ),
            "warm_start": dict(self.warm_start),
        }

    # ------------------------------------------------------------------
    # Model registry
    # ------------------------------------------------------------------
    def register_model(
        self,
        name: str,
        in_size: int,
        out_size: int,
        model: Optional[str] = None,
        factory: Optional[Callable[[], object]] = None,
        seed: int = 0,
    ) -> ModelSpec:
        """Host one model.  Without ``factory``, a zoo layer with
        deterministic weights (``seed``) is built per request."""
        model = (model or name).lower()
        if factory is None:
            def factory(  # noqa: A001 - deliberate closure default
                _model=model, _in=in_size, _out=out_size, _seed=seed
            ):
                return build_layer(
                    _model, _in, _out, rng=np.random.default_rng(_seed)
                )
        spec = ModelSpec(
            name=name,
            model=model,
            in_size=int(in_size),
            out_size=int(out_size),
            factory=factory,
        )
        with self._lock:
            self._models[name] = spec
        return spec

    # ------------------------------------------------------------------
    # Admission + submission
    # ------------------------------------------------------------------
    def _tenant(self, name: str) -> TenantState:
        """Find-or-create under the service lock (callers hold it)."""
        state = self._tenants.get(name)
        if state is None:
            state = TenantState(
                name=name,
                engine=GraniiEngine(
                    device=self._device,
                    system=self._system,
                    scale=self._scale,
                    cost_models=self._cost_models,
                    verify_plans=self._verify_plans,
                    guarded=True,
                ),
            )
            self._tenants[name] = state
        return state

    def _retry_after_hint(self, tenant: TenantState, depth: int) -> float:
        """When this tenant's queue should have drained one slot."""
        per_slot = tenant.ema_latency_seconds / max(self._num_threads, 1)
        return max(0.05, (depth - self._max_queue + 1) * per_slot)

    def _admit(self, request: ServeRequest, spec: ModelSpec) -> None:
        """Pre-queue admission: structure, dtype, and size — every check
        the engine's own gate would apply, paid once on the caller's
        thread so a malformed request never occupies a worker."""
        if (
            request.deadline_seconds is not None
            and request.deadline_seconds <= 0
        ):
            raise GraniiInputError(
                f"request deadline must be positive, got "
                f"{request.deadline_seconds!r}"
            )
        validate_inputs(spec, request.graph, request.feats)
        budget = ExecutionBudget.for_plan()
        if budget.memory_budget_bytes is not None:
            observed = value_nbytes(
                np.asarray(request.feats)
            ) + value_nbytes(request.graph.adj)
            if observed > budget.memory_budget_bytes:
                raise GraniiMemoryError(
                    f"request carries {observed / 2**20:.1f} MiB of "
                    f"graph+features, over the "
                    f"{budget.memory_budget_bytes / 2**20:.1f} MiB budget "
                    f"(REPRO_MEM_BUDGET_MB)",
                    budget=budget.memory_budget_bytes,
                    observed=observed,
                )

    def submit(self, request: ServeRequest) -> "Future[ServeResult]":
        """Admit one request; returns a future resolving to a
        :class:`ServeResult` (the future itself never raises).

        Raises, on the caller's thread: ``GraniiInputError`` /
        ``GraniiMemoryError`` for malformed or oversized requests,
        ``GraniiOverloadError`` when the tenant's queue is full or the
        service is closed.
        """
        t_submit = time.monotonic()
        with self._lock:
            if self._closed:
                raise GraniiOverloadError(
                    "service is closed and not admitting requests",
                    retry_after_seconds=0.0,
                    tenant=request.tenant,
                )
            spec = self._models.get(request.model)
        if spec is None:
            with self._lock:
                self._rejected += 1
            raise GraniiInputError(
                f"unknown model {request.model!r}; registered: "
                f"{sorted(self._models)}"
            )
        try:
            self._admit(request, spec)
        except GraniiError:
            with self._lock:
                self._rejected += 1
            raise
        with self._lock:
            tenant = self._tenant(request.tenant)
            depth = tenant.inflight
            if depth >= self._max_queue:
                tenant.shed += 1
                self._shed += 1
                hint = self._retry_after_hint(tenant, depth)
                raise GraniiOverloadError(
                    f"tenant {tenant.name!r} has {depth} requests in "
                    f"flight (max_queue {self._max_queue}); shedding — "
                    f"retry in ~{hint * 1e3:.0f} ms",
                    retry_after_seconds=hint,
                    tenant=tenant.name,
                    depth=depth,
                )
            tenant.inflight += 1
            tenant.submitted += 1
        try:
            return self._pool.submit(
                self._process, request, spec, tenant, t_submit
            )
        except BaseException:
            with self._lock:
                tenant.inflight -= 1
            raise

    def serve(self, request: ServeRequest, timeout: Optional[float] = None) -> ServeResult:
        """Synchronous :meth:`submit` + wait."""
        return self.submit(request).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Execution (worker threads)
    # ------------------------------------------------------------------
    @contextmanager
    def _request_scope(self, request: ServeRequest):
        """Install the request's fault plan thread-locally, if any."""
        if request.fault_plan is None:
            yield
        else:
            with fault_injection(request.fault_plan, thread_local=True):
                yield

    def _cached_selection(
        self, request: ServeRequest, spec: ModelSpec
    ) -> Tuple[SelectionReport, bool, GraphFingerprint, Optional[object]]:
        """Fingerprint-keyed selection: hit skips enumeration+selection.
        Returns the template, whether it was a hit, the fingerprint that
        names the cache entry, and the layer this request built to
        select with (None when it computed nothing), which it executes
        on."""
        fp = self._fingerprint_fn(
            request.graph, spec.model, spec.in_size, spec.out_size
        )
        built: List[object] = []

        def compute() -> SelectionReport:
            with self._select_lock:
                layer = spec.factory()
                built.append(layer)
                compiled = self._selector.compile_for(layer, request.graph)
                return self._selector.select(compiled, request.graph, layer)

        template, hit = self._cache.get_or_compute(fp.key, fp.token, compute)
        return template, hit, fp, (built[0] if built else None)

    def _request_selection(
        self, template: SelectionReport, deadline_at: Optional[float]
    ) -> SelectionReport:
        """A per-request report sharing the template's immutable plan
        data; demotions/verification land on the request, not the cache."""
        return SelectionReport(
            model_name=template.model_name,
            chosen=template.chosen,
            scenario=template.scenario,
            predicted_costs=dict(template.predicted_costs),
            viable_count=template.viable_count,
            feature_seconds=0.0,
            selection_seconds=0.0,
            peak_memory_bytes=template.peak_memory_bytes,
            ranked=list(template.ranked),
            deadline_at=deadline_at,
        )

    def _reference_value(self, spec: ModelSpec, request: ServeRequest) -> np.ndarray:
        """The baseline message-passing forward (no executor attached)."""
        layer = spec.factory()
        with no_grad():
            out = layer(request.graph, request.feats)
        return np.asarray(getattr(out, "data", out))

    def _process(
        self,
        request: ServeRequest,
        spec: ModelSpec,
        tenant: TenantState,
        t_submit: float,
    ) -> ServeResult:
        started = time.monotonic()
        deadline = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self._deadline_seconds
        )
        deadline_at = t_submit + deadline if deadline else None
        result = ServeResult(
            request_id=request.request_id,
            tenant=request.tenant,
            model=request.model,
            ok=False,
            outcome="error",
            queue_seconds=started - t_submit,
        )
        selection: Optional[SelectionReport] = None
        try:
            if deadline_at is not None and started >= deadline_at:
                raise GraniiDeadlineError(
                    f"request spent its whole {deadline * 1e3:.0f} ms "
                    f"deadline queued ({(started - t_submit) * 1e3:.0f} ms "
                    f"before a worker picked it up)",
                    budget=deadline,
                    observed=started - t_submit,
                )
            with self._request_scope(request):
                if self._tenant_breaker.is_open("tenant", request.tenant):
                    # this tenant's recent requests kept failing: serve
                    # the safe baseline path until the cooldown elapses
                    result.attempts.append(
                        ("tenant-breaker", "breaker_open",
                         "tenant demoted to the reference path")
                    )
                    result.value = self._reference_value(spec, request)
                    result.outcome = "reference"
                    result.ok = True
                else:
                    entry, hit, fp, layer = self._cached_selection(
                        request, spec
                    )
                    result.cache_hit = hit
                    selection = self._request_selection(entry, deadline_at)
                    # Warm state (module docstring): a fault-free hit may
                    # take the (layer, caches) a clean predecessor left on
                    # the cache entry, and alone may leave its own there.
                    keeps_state = hit and request.fault_plan is None
                    owner = (request.tenant, spec.name)
                    kept = (
                        self._cache.checkout(fp.key, fp.token, owner)
                        if keeps_state else None
                    )
                    if kept is not None and kept[0] is spec:
                        _, layer, caches = kept
                    else:  # none free, or built for a replaced registration
                        if layer is None:  # a miss runs on the one it built
                            layer = spec.factory()
                        caches = ExecutorCaches()
                    executor = tenant.engine.make_executor(
                        layer,
                        selection.chosen,
                        selection=selection,
                        guarded=True,
                        caches=caches,
                        inputs_validated=True,  # _admit ran the gate
                    )
                    layer.attach_executor(executor)
                    # inference records no tape on this thread; the layer
                    # is built outside no_grad, so its parameters still
                    # require grad wherever else it runs
                    with no_grad():
                        out = layer(request.graph, request.feats)
                    layer.detach_executor()
                    result.value = np.asarray(getattr(out, "data", out))
                    result.outcome = (
                        "ok_demoted" if selection.demotions else "ok"
                    )
                    result.ok = True
                    if keeps_state and result.outcome == "ok":
                        self._cache.checkin(
                            fp.key, fp.token, owner,
                            (spec, layer, caches), limit=self._num_threads,
                        )
        except GraniiError as exc:
            result.ok = False
            result.outcome = (
                "timeout" if isinstance(exc, GraniiDeadlineError) else "error"
            )
            result.error = str(exc)
            result.error_type = type(exc).__name__
            result.attempts.extend(getattr(exc, "attempts", []) or [])
        except Exception as exc:  # noqa: BLE001 - the contract bucket:
            # a raw escape is a bug, but the service must stay up and
            # the caller must still get a terminal, inspectable result
            result.ok = False
            result.outcome = "raw_escape"
            result.error = str(exc)
            result.error_type = type(exc).__name__
        finally:
            if selection is not None:
                result.demotions = [
                    d.describe() for d in selection.demotions
                ]
            result.total_seconds = time.monotonic() - t_submit
            self._finish(tenant, result)
        return result

    def _finish(self, tenant: TenantState, result: ServeResult) -> None:
        """Post-request accounting + tenant breaker bookkeeping."""
        failed_for_tenant = (not result.ok) and result.outcome != "timeout"
        demoted = bool(result.demotions)
        with self._lock:
            tenant.inflight -= 1
            self._completed += 1
            tenant.ema_latency_seconds = (
                0.8 * tenant.ema_latency_seconds + 0.2 * result.total_seconds
            )
            if result.ok:
                tenant.served += 1
                if result.outcome == "reference":
                    tenant.reference_served += 1
                if demoted:
                    tenant.demoted_requests += 1
            else:
                tenant.failed += 1
        # breaker mutation outside the service lock (it has its own):
        # demotions and failures are the tenant-health signal; timeouts
        # under an aggressive caller deadline are not the tenant's plans
        # misbehaving, and input errors never reach this path
        if failed_for_tenant or demoted:
            if self._tenant_breaker.record_failure("tenant", tenant.name):
                with self._lock:
                    tenant.breaker_trips += 1
        elif result.ok and result.outcome == "ok":
            self._tenant_breaker.record_success("tenant", tenant.name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            tenants = {
                name: state.snapshot()
                for name, state in sorted(self._tenants.items())
            }
            totals = {
                "completed": float(self._completed),
                "shed": float(self._shed),
                "rejected": float(self._rejected),
                "inflight": float(
                    sum(s.inflight for s in self._tenants.values())
                ),
            }
        return {
            "totals": totals,
            "tenants": tenants,
            "cache": self._cache.stats(),
            "tenant_breakers": self._tenant_breaker.snapshot(),
        }

    @property
    def cache(self) -> PlanCache:
        return self._cache
