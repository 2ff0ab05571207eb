"""GRANII's online runtime: featurize, predict, select, attach (paper §IV).

The engine wires the offline artifacts (compiled candidate sets, trained
cost models) to a concrete (model, graph, embedding sizes) instance:

1. resolve the embedding-size scenario and keep only viable candidates
   (the cheap Figure-7 conditions);
2. if more than one candidate remains, featurize the input graph once and
   sum per-primitive cost-model predictions for each candidate, with
   graph-only setup amortised over the expected iteration count;
3. lower the winner to an executor and attach it to the model.

Both decision overheads (feature extraction, selection) are measured and
reported, mirroring the paper's overhead accounting (§VI-C1).

What is remembered between calls, and where:

- the compiled candidate set, per (model, hyper-parameters), in
  ``codegen``'s compile cache — ``compile_for`` looks there before it
  parses a ``forward``;
- the graph's feature vector, on the adjacency matrix itself
  (:func:`repro.core.features.inspect_graph` writes ``CSRMatrix._aux``,
  where ``row_ids`` and the serving fingerprint's pattern digest also
  live), so every engine, the autotuner and the serving fingerprint read
  one copy and a re-weighted matrix (``with_values``) inherits it.  Like
  every ``_aux`` entry it assumes ``indptr``/``indices`` are never
  written after construction; a new pattern is a new matrix.  An
  adjacency object the process has not seen pays the O(N+E) pass once;
  only a repeat submission of the same object skips it;
- base cost-model predictions, per graph vector, in the model set's
  bounded memo (:meth:`CostModelSet.prices`); one selection prices each
  distinct (primitive, shape) call of its candidates once.

Nothing is kept on the engine.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import config
from ..framework import MPGraph, get_system
from ..graphs import Graph
from ..hardware import get_device
from ..kernels import (
    SPMM_STRATEGIES,
    SPMM_STRATEGY_TABLE,
    KernelCall,
    demotion_chain,
)
from ..tensor import Tensor
from .bindings import model_ir_kwargs, model_ir_name
from .codegen import CompiledModel, PlannedCandidate, cached_model, compile_model
from .costmodel import CostModelSet, call_key, get_cost_models
from .features import inspect_graph, known_inspection
from .guard import (
    CircuitBreaker,
    DemotionRecord,
    ExecutorCaches,
    GuardedExecutor,
    execute_plan,
    reference_forward,
)
from .ir import ShapeEnv
from .plan import Plan

__all__ = ["SelectionReport", "OptimizationReport", "GraniiEngine"]

@dataclass
class SelectionReport:
    """What the online stage decided for one layer."""

    model_name: str
    chosen: PlannedCandidate
    scenario: str
    predicted_costs: Dict[str, float]  # plan label -> predicted seconds/run
    viable_count: int
    feature_seconds: float
    selection_seconds: float
    peak_memory_bytes: float = 0.0
    memory_filtered_count: int = 0  # plans dropped for exceeding the limit
    spmm_strategy: str = "row_segment"  # how the executor runs aggregations
    strategy_costs: Dict[str, float] = field(default_factory=dict)
    # runtime verification outcome: None until the first verified call,
    # then True (plan agreed with the reference) or False (diverged; the
    # executor fell back to the reference composition — see verify_note)
    verified: Optional[bool] = None
    verify_note: str = ""
    # guarded-execution bookkeeping: surviving candidates cheapest-first
    # (the fallback ladder), demotions taken at runtime, and the breaker
    # snapshot at the time of the last demotion
    ranked: List[PlannedCandidate] = field(default_factory=list)
    demotions: List[DemotionRecord] = field(default_factory=list)
    breaker_state: Dict[str, Dict[str, float]] = field(default_factory=dict)
    last_error: str = ""
    # static-analysis verdict for the chosen plan under the selection env
    # (a repro.analysis.planlint.PlanVerdict), and the runtime checks the
    # guard skipped because the verdict already proved them
    analysis: Optional[object] = None
    runtime_checks_skipped: List[str] = field(default_factory=list)
    # monotonic timestamp after which execution must not start a kernel;
    # set by the serving runtime to propagate a request deadline into the
    # guarded executor's per-plan budgets
    deadline_at: Optional[float] = None

    def __post_init__(self) -> None:
        # Serving executes one selection from several worker threads
        # (retries share the report); all list/state mutation goes through
        # the record_* methods under this lock.  The lock is identity
        # state, not data: it is dropped on pickle and recreated fresh.
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def record_demotion(
        self, record: DemotionRecord, breaker_state=None
    ) -> None:
        """Thread-safely append one demotion (and the breaker snapshot)."""
        with self._lock:
            self.demotions.append(record)
            self.last_error = record.message
            if breaker_state is not None:
                self.breaker_state = breaker_state

    def record_verification(self, ok: bool, note: str) -> None:
        """Thread-safely store a runtime-verification outcome."""
        with self._lock:
            self.verified = ok
            self.verify_note = note

    def record_runtime_check_skipped(self, note: str) -> None:
        """Thread-safely note a runtime check proved statically (once)."""
        with self._lock:
            if note not in self.runtime_checks_skipped:
                self.runtime_checks_skipped.append(note)

    @property
    def label(self) -> str:
        return self.chosen.label

    def describe(self) -> str:
        """Human-readable selection summary, including any fallback chain."""
        lines = [
            f"{self.model_name}: chose {self.label}#{self.chosen.plan.name} "
            f"@ {self.spmm_strategy} "
            f"(scenario={self.scenario}, candidates={self.viable_count})"
        ]
        if self.verified is not None:
            status = "ok" if self.verified else "DIVERGED"
            lines.append(f"  verification: {status} — {self.verify_note}")
        if self.analysis is not None:
            status = "ok" if self.analysis.ok else "REJECTED"
            lines.append(
                f"  analysis: {status} "
                f"(proved {len(self.analysis.proved)}, "
                f"obligations {len(self.analysis.obligations)})"
            )
        for skipped in self.runtime_checks_skipped:
            lines.append(f"  runtime check skipped (statically proved): {skipped}")
        for record in self.demotions:
            lines.append(f"  demoted: {record.describe()}")
        for key, entry in sorted(self.breaker_state.items()):
            state = "OPEN" if entry.get("open") else "closed"
            lines.append(
                f"  breaker {key}: {state} "
                f"({int(entry.get('failures', 0))} failures)"
            )
        return "\n".join(lines)


@dataclass
class OptimizationReport:
    """Per-layer selections plus total decision overhead."""

    selections: List[SelectionReport] = field(default_factory=list)

    @property
    def total_overhead_seconds(self) -> float:
        return sum(s.feature_seconds + s.selection_seconds for s in self.selections)

    def describe(self) -> str:
        lines = []
        for i, sel in enumerate(self.selections):
            lines.append(
                f"layer {i}: {sel.model_name} -> {sel.label} "
                f"(scenario={sel.scenario}, candidates={sel.viable_count}, "
                f"overhead={1e3 * (sel.feature_seconds + sel.selection_seconds):.2f} ms)"
            )
        return "\n".join(lines)


class GraniiEngine:
    """The compiler + runtime pair of Figure 5."""

    def __init__(
        self,
        device: str = "h100",
        system: str = "dgl",
        iterations: int = 100,
        mode: str = "inference",
        scale: str = "default",
        cost_models: Optional[CostModelSet] = None,
        memory_limit_bytes: Optional[float] = None,
        spmm_strategy: str = "auto",
        block_nnz: Optional[int] = None,
        num_threads: Optional[int] = None,
        verify_plans: Optional[bool] = None,
        guarded: Optional[bool] = None,
        breakers: Optional[CircuitBreaker] = None,
    ) -> None:
        if mode not in ("inference", "training"):
            raise ValueError("mode must be 'inference' or 'training'")
        if spmm_strategy != "auto" and spmm_strategy not in SPMM_STRATEGIES:
            raise ValueError(
                f"spmm_strategy must be 'auto' or one of {SPMM_STRATEGIES}"
            )
        self.device = get_device(device)
        self.system = get_system(system)
        self.iterations = int(iterations)
        self.mode = mode
        self.scale = scale
        self.memory_limit_bytes = memory_limit_bytes
        self.spmm_strategy = spmm_strategy
        self.block_nnz = block_nnz
        self.num_threads = num_threads
        if verify_plans is None:
            verify_plans = config.verify_plans()
        # double-execute the chosen plan against the reference composition
        # on its first iteration; on divergence fall back to the reference
        self.verify_plans = bool(verify_plans)
        # guarded execution (REPRO_GUARD): executors run behind the
        # admission gate, budgets, and the fallback ladder of core.guard
        self.guarded = config.guard_enabled() if guarded is None else bool(guarded)
        self.breakers = breakers if breakers is not None else CircuitBreaker()
        self._cost_models = cost_models

    # ------------------------------------------------------------------
    @property
    def cost_models(self) -> CostModelSet:
        if self._cost_models is None:
            self._cost_models = get_cost_models(self.device.name, scale=self.scale)
        return self._cost_models

    _WEIGHTED_IR_MODELS = frozenset({"gcn", "sgc", "tagcn", "gin"})

    def compile_for(self, layer, graph: Optional[Graph] = None) -> CompiledModel:
        """Offline stage for this layer's model type (cached globally).

        The frontend parses the layer's message-passing ``forward`` source
        into matrix IR (paper §IV-B); models outside the translated
        vocabulary fall back to the registered direct IR builder.

        When the input graph carries edge weights, convolutional models
        compile with a *weighted* adjacency leaf, which removes the
        pattern-only aggregation fast path from the candidate pool
        (Appendix B applies to unweighted graphs only).  Attention models
        define their own edge values and ignore input weights.
        """
        name = model_ir_name(layer)
        kwargs = dict(model_ir_kwargs(layer))
        weighted = bool(
            graph is not None
            and graph.adj.is_weighted
            and name in self._WEIGHTED_IR_MODELS
        )
        if weighted:
            # the translated source vocabulary models unweighted
            # aggregation; weighted inputs compile via the IR builder
            return compile_model(name, weighted=True, **kwargs)
        # the cache key ignores the IR's provenance, so look first: parsing
        # re-tokenises the model's source file only to be discarded on a hit
        cached = cached_model(name, **kwargs)
        if cached is not None:
            return cached
        from .frontend import FrontendError, parse_forward

        try:
            ir = parse_forward(layer)
        except FrontendError:
            ir = None
        return compile_model(name, ir=ir, **kwargs)

    def shape_env(self, graph: Graph, layer) -> ShapeEnv:
        wants_loops = getattr(layer, "wants_self_loops", True)
        adj = graph.adj_with_self_loops() if wants_loops else graph.adj
        env = ShapeEnv()
        env["N"] = graph.num_nodes
        env["E"] = adj.nnz
        env["K1"] = layer.in_size
        env["K2"] = layer.out_size
        # estimated nonzeros of adjacency powers, for SpGEMM-extension
        # candidates (compile_model(..., spgemm=True)); "E@k" is the
        # symbolic nnz of a depth-k sparse product
        from ..kernels import spgemm_output_nnz_estimate

        current = adj.nnz
        for depth in range(2, 7):
            current = spgemm_output_nnz_estimate(graph.num_nodes, current, adj.nnz)
            env[f"E@{depth}"] = current
        return env

    # ------------------------------------------------------------------
    def predict_plan_cost(
        self,
        plan: Plan,
        env: ShapeEnv,
        graph_vec: np.ndarray,
    ) -> float:
        """Cost-model estimate of one amortised iteration of this plan."""
        return self.predict_plan_costs([plan], env, graph_vec)[0]

    def predict_plan_costs(
        self,
        plans: Sequence[Plan],
        env: ShapeEnv,
        graph_vec: np.ndarray,
    ) -> List[float]:
        """:meth:`predict_plan_cost` of several plans for one input.

        Candidates of one model are re-associations of the same
        primitives, so most of their calls coincide: each distinct
        (primitive, shape) is priced once and every plan sums its own
        calls in its own order.
        """
        models = self.cost_models
        prices = models.prices(graph_vec.tobytes())
        eff = self.system.efficiency
        seconds: Dict[tuple, float] = {}

        def total(calls) -> float:
            out = 0.0
            for call in calls:
                key = call_key(call)
                t = seconds.get(key)
                if t is None:
                    t = models.predict_call(call, graph_vec, prices) * eff(call)
                    seconds[key] = t
                out += t
            return out

        costs = []
        for plan in plans:
            setup, per_iter = plan.kernel_calls(env, self.system.degree_method)
            cost = total(per_iter)
            if self.mode == "training":
                cost += total(plan.backward_calls(env))
            cost += total(setup) / max(self.iterations, 1)
            costs.append(cost)
        return costs

    def select_spmm_strategy(
        self, plan: Plan, env: ShapeEnv, graph_vec: np.ndarray
    ) -> Tuple[str, Dict[str, float]]:
        """Pick the aggregation strategy for this (plan, graph) pairing.

        With ``spmm_strategy='auto'`` the plan's per-iteration
        spmm/spmm_unweighted calls are re-priced under each
        :data:`~repro.kernels.spmm.SPMM_STRATEGY_TABLE` row's cost-model
        primitive (a row without one is never auto-selected) and the
        cheapest wins — the same input-aware mechanism the paper applies
        to composition choice, one level down at the kernel.  Auto only
        consults models that are already materialised: it never triggers
        the offline training pass on its own (a single-candidate
        selection must stay overhead-free), falling back to
        ``row_segment`` when no models are loaded.

        Strategies whose ``("spmm", strategy)`` circuit breaker is open
        (repeated runtime failures within the cooldown window) are
        excluded from auto selection; they rejoin the pool automatically
        once the cooldown elapses.  ``row_segment`` — the reference
        strategy — is never excluded.

        A *pinned* strategy (``spmm_strategy != 'auto'``, typically via
        ``REPRO_SPMM_STRATEGY``) is routed through the same static
        legality gate the pruner applies to auto selections: if
        ``analyze_plan`` rejects this plan under the pinned strategy
        (alias hazards, unbalanced workspace lifetimes), the executor
        falls back to ``row_segment`` with a warning instead of running
        an unvetted composition.
        """
        if self.spmm_strategy != "auto":
            pinned = self.spmm_strategy
            if pinned != "row_segment":
                from ..analysis.planlint import analyze_plan

                verdict = analyze_plan(plan, strategies=(pinned,))
                if not verdict.ok:
                    rules = sorted({d.rule for d in verdict.errors})
                    warnings.warn(
                        f"pinned spmm strategy {pinned!r} rejected by plan "
                        f"analysis ({', '.join(rules)}); falling back to "
                        f"row_segment",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    return "row_segment", {}
            return pinned, {}
        if self._cost_models is None:
            return "row_segment", {}
        setup, per_iter = plan.kernel_calls(env, self.system.degree_method)
        spmm_calls = [
            c for c in per_iter if c.primitive in ("spmm", "spmm_unweighted")
        ]
        if not spmm_calls:
            return "row_segment", {}
        eff = self.system.efficiency
        models = self.cost_models
        costs: Dict[str, float] = {}
        for row in SPMM_STRATEGY_TABLE:
            if row.priced_as(spmm_calls[0].primitive) is None:
                continue  # no cost primitive: reachable only when pinned
            if row.demotes_to is not None and self.breakers.is_open(
                "spmm", row.name
            ):
                continue
            variant = [
                KernelCall(row.priced_as(c.primitive), dict(c.shape), tag=c.tag)
                for c in spmm_calls
            ]
            try:
                costs[row.name] = models.predict_calls(variant, graph_vec, eff)
            except KeyError:
                # model set predates these primitives; skip the strategy
                continue
        return min(costs, key=costs.get), costs

    def select(
        self, compiled: CompiledModel, graph: Graph, layer
    ) -> SelectionReport:
        """Online stage: pick the cheapest viable composition (Figure 7)."""
        env = self.shape_env(graph, layer)
        scenario = "in_ge_out" if env["K1"] >= env["K2"] else "in_lt_out"
        viable = compiled.viable(env["K1"], env["K2"])
        if not viable:  # pragma: no cover - pruning guarantees at least one
            raise RuntimeError("no viable composition")
        memory_filtered = 0
        if self.memory_limit_bytes is not None:
            fitting = [
                p for p in viable
                if p.plan.peak_memory_bytes(env) <= self.memory_limit_bytes
            ]
            memory_filtered = len(viable) - len(fitting)
            if fitting:
                viable = fitting
            else:
                # nothing fits: degrade gracefully to the leanest plan
                # rather than refusing to run (the baseline would OOM too)
                viable = [
                    min(viable, key=lambda p: p.plan.peak_memory_bytes(env))
                ]
        if len(viable) > 1:
            # cost-model training is a one-time offline cost (paper §V);
            # force it here so it never pollutes the measured online overhead
            _ = self.cost_models
        t0 = time.perf_counter()
        feature_seconds = 0.0
        graph_vec = known_inspection(graph)
        if graph_vec is None:
            graph_vec = inspect_graph(graph)
            feature_seconds = time.perf_counter() - t0
        t1 = time.perf_counter()
        predicted: Dict[str, float] = {}
        if len(viable) == 1:
            chosen = viable[0]
            ranked = list(viable)
        else:
            costs = self.predict_plan_costs(
                [p.plan for p in viable], env, graph_vec
            )
            for p, c in zip(viable, costs):
                predicted[f"{p.label}#{p.plan.name}"] = c
            order = np.argsort(costs, kind="stable")
            ranked = [viable[int(i)] for i in order]
            chosen = ranked[0]
        spmm_strategy, strategy_costs = self.select_spmm_strategy(
            chosen.plan, env, graph_vec
        )
        if config.autotune_enabled():
            from .autotune import autotune_selection

            tuned = autotune_selection(self, chosen.plan, graph, layer)
            if tuned is not None:
                spmm_strategy = tuned.strategy
                if tuned.block_nnz is not None:
                    self.block_nnz = tuned.block_nnz
                strategy_costs = dict(strategy_costs)
                for strat, seconds in tuned.best_per_strategy.items():
                    strategy_costs[f"measured:{strat}"] = seconds
        selection_seconds = time.perf_counter() - t1
        # static verdict for the winner: proved facts let the guarded
        # executor skip re-deriving them on the hot path (see guard.py);
        # the workspace-lifetime trace covers the strategy that will run
        # and every strategy the guard may demote it to
        from ..analysis.planlint import analyze_plan

        verdict = analyze_plan(
            chosen.plan, env=env, strategies=demotion_chain(spmm_strategy)
        )
        peak = verdict.facts.get("peak_memory_bytes")  # already computed there
        return SelectionReport(
            model_name=compiled.model_name,
            chosen=chosen,
            scenario=scenario,
            predicted_costs=predicted,
            viable_count=len(viable),
            feature_seconds=feature_seconds,
            selection_seconds=selection_seconds,
            peak_memory_bytes=(
                chosen.plan.peak_memory_bytes(env) if peak is None else peak
            ),
            memory_filtered_count=memory_filtered,
            spmm_strategy=spmm_strategy,
            strategy_costs=strategy_costs,
            ranked=ranked,
            analysis=verdict,
        )

    # ------------------------------------------------------------------
    def make_executor(
        self,
        layer,
        planned: PlannedCandidate,
        spmm_strategy: str = "row_segment",
        selection: Optional[SelectionReport] = None,
        guarded: Optional[bool] = None,
        caches: Optional[ExecutorCaches] = None,
        inputs_validated: bool = False,
    ):
        """Wrap the chosen plan as a drop-in replacement for layer.forward.

        With ``verify_plans`` enabled the first call additionally runs the
        layer's baseline message-passing ``forward`` and compares outputs
        under the depth-scaled tolerance of
        :class:`~repro.core.verify.ToleranceModel`.  On divergence the
        executor warns, records the outcome on ``selection``, and
        permanently falls back to the reference composition — a wrong
        plan degrades performance, never correctness.

        With ``guarded`` (default: the engine's ``REPRO_GUARD`` setting)
        the executor is a :class:`~repro.core.guard.GuardedExecutor`
        instead: inputs pass an admission gate, every run is budgeted,
        and failures demote down the plan ladder rather than escaping.

        ``caches`` are the per-graph caches the executor starts with
        (default: empty; see :class:`~repro.core.guard.ExecutorCaches`
        for who may pass a predecessor's).  ``inputs_validated`` tells a
        guarded executor that its caller already ran the admission gate
        on the inputs it will be called with.
        """
        if guarded is None:
            guarded = self.guarded
        if guarded:
            if selection is None:
                selection = SelectionReport(
                    model_name=model_ir_name(layer),
                    chosen=planned,
                    scenario="",
                    predicted_costs={},
                    viable_count=1,
                    feature_seconds=0.0,
                    selection_seconds=0.0,
                    spmm_strategy=spmm_strategy,
                    ranked=[planned],
                )
            elif planned is not selection.chosen:
                selection.chosen = planned
            if selection.spmm_strategy != spmm_strategy:
                selection.spmm_strategy = spmm_strategy
            return GuardedExecutor(
                self, layer, selection, caches, inputs_validated
            )
        plan = planned.plan
        setup_caches = (caches if caches is not None else ExecutorCaches()).setup
        verify_state = {"pending": self.verify_plans, "fallback": False}

        def executor(g: MPGraph, feat, *args, **kwargs):
            if verify_state["fallback"]:
                return reference_forward(layer, g, feat)
            out = execute_plan(
                self, layer, plan, spmm_strategy, g, feat, setup_caches
            )
            if verify_state["pending"]:
                verify_state["pending"] = False
                ok, note = self._verify_against_reference(
                    layer, plan, g, feat, out
                )
                if selection is not None:
                    selection.record_verification(ok, note)
                if not ok:
                    verify_state["fallback"] = True
                    warnings.warn(note, RuntimeWarning, stacklevel=2)
                    return reference_forward(layer, g, feat)
            return out

        return executor

    def _verify_against_reference(
        self, layer, plan: Plan, g: MPGraph, feat, out
    ) -> Tuple[bool, str]:
        """Compare one plan output against the baseline forward."""
        from ..tensor import no_grad
        from .verify import ToleranceModel, _max_errors

        with no_grad():
            ref = reference_forward(layer, g, feat)
        ref_data = ref.data if isinstance(ref, Tensor) else np.asarray(ref)
        out_data = out.data if isinstance(out, Tensor) else np.asarray(out)
        tol = ToleranceModel().for_graph(
            g.adj, mode=self.mode, num_steps=len(plan.steps)
        )
        abs_err, _ = _max_errors(out_data, ref_data)
        ok = tol.allclose(out_data, ref_data)
        if ok:
            note = (
                f"plan verified against reference composition "
                f"(max_abs_err={abs_err:.3e}, atol={tol.atol:.1e})"
            )
        else:
            note = (
                f"plan {plan.candidate.output!r} diverged from the "
                f"reference composition (max_abs_err={abs_err:.3e}, "
                f"rtol={tol.rtol:.1e}, atol={tol.atol:.1e}); "
                f"falling back to layer.forward"
            )
        return ok, note

    def optimize(self, model, graph: Graph, feats=None, labels=None) -> OptimizationReport:
        """The GRANII(...) call of Figure 4: select and attach per layer.

        Containers (multi-layer stacks, multi-head attention) expose their
        independently-optimisable sub-layers through ``granii_layers()``.
        """
        report = OptimizationReport()
        layers = model.granii_layers() if hasattr(model, "granii_layers") else [model]
        for layer in layers:
            compiled = self.compile_for(layer, graph)
            selection = self.select(compiled, graph, layer)
            layer.attach_executor(
                self.make_executor(
                    layer,
                    selection.chosen,
                    selection.spmm_strategy,
                    selection=selection,
                )
            )
            report.selections.append(selection)
        return report
