"""GRANII's online runtime: featurize, predict, select, attach (paper §IV).

The engine wires the offline artifacts (compiled candidate sets, trained
cost models) to a concrete (model, graph, embedding sizes) instance:

1. resolve the embedding-size scenario and keep only viable candidates
   (the cheap Figure-7 conditions);
2. if more than one candidate remains, featurize the input graph once and
   sum per-primitive cost-model predictions for each candidate, with
   graph-only setup amortised over the expected iteration count;
3. lower the winner to an executor and attach it to the model.  Its
   aggregations run ``row_segment``, the fold; no strategy is priced or
   chosen.

Both decision overheads (feature extraction, selection) are measured and
reported, mirroring the paper's overhead accounting (§VI-C1).

What is remembered between calls, and where:

- the compiled candidate set, per (model, hyper-parameters), in
  ``codegen``'s compile cache — ``compile_for`` looks there before it
  parses a ``forward``;
- the graph's feature vector and Ã's edge count, on the adjacency
  matrix itself (:func:`repro.core.features.inspect_graph` and
  :meth:`CSRMatrix.nnz_with_self_loops` write ``CSRMatrix._aux``,
  where ``row_ids`` and the serving fingerprint's pattern digest also
  live), so every engine and the serving fingerprint read one copy and
  a re-weighted matrix (``with_values``) inherits them.  Like every
  ``_aux`` entry they assume ``indptr``/``indices`` are never written
  after construction; a new pattern is a new matrix.  An
  adjacency object the process has not seen pays the O(N+E) pass once;
  only a repeat submission of the same object skips it;
- the shape env's SpGEMM estimates and env key, per distinct
  ``(N, E, K1, K2)`` (:func:`~repro.core.ir.sized_env`, a bounded LRU;
  every caller gets its own env);
- cost-model predictions, per graph vector, in the model set's
  bounded memo (:meth:`CostModelSet.prices`); one selection prices each
  distinct (primitive, shape) call of its candidates once, all of a
  never-seen vector's in one forest descent (:meth:`CostModelSet.fill`);
- each plan's kernel calls, as a template per plan and a bounded table of
  views per shape env (:meth:`Plan.call_view`); a view also keeps the
  plan's peak-memory estimate under its env, which the report's
  ``peak_memory_bytes``, the memory limit and the guard's memory budget
  all read, so the liveness walk runs at most once per (plan, env);
- a price index per (plans, shape env, degree method, mode), kept with
  the first plan's views (:func:`~repro.core.plan.price_index`): every
  price, one plan's included, is an index's distinct calls priced once
  into one vector and every plan totalled with one array pass, so a
  repeat selection on the same sizes re-derives no plan.

The input's Ã is not built here: ``shape_env`` counts its edges
(:meth:`Graph.num_edges_with_self_loops`) and execution builds it.

Nothing is kept on the engine.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..framework import MPGraph, get_system
from ..graphs import Graph
from ..hardware import get_device
from ..tensor import Tensor
from .bindings import model_ir_kwargs, model_ir_name
from .codegen import CompiledModel, PlannedCandidate, cached_model, compile_model
from .costmodel import CostModelSet, get_cost_models
from .features import inspect_graph, known_inspection
from .guard import (
    DemotionRecord,
    ExecutorCaches,
    GuardedExecutor,
    execute_plan,
    reference_forward,
)
from .ir import ShapeEnv, sized_env
from .plan import Plan, PriceIndex, price_index

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
    # runtime verification outcome: None until the first verified call,
    # then True (plan agreed with the reference) or False (diverged; the
    # executor fell back to the reference composition — see verify_note)
    verified: Optional[bool] = None
    verify_note: str = ""
    # guarded-execution bookkeeping: surviving candidates cheapest-first
    # (the fallback ladder) and the demotions taken at runtime
    ranked: List[PlannedCandidate] = field(default_factory=list)
    demotions: List[DemotionRecord] = field(default_factory=list)
    last_error: str = ""
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

    def record_demotion(self, record: DemotionRecord) -> None:
        """Thread-safely append one demotion."""
        with self._lock:
            self.demotions.append(record)
            self.last_error = record.message

    def record_verification(self, ok: bool, note: str) -> None:
        """Thread-safely store a runtime-verification outcome."""
        with self._lock:
            self.verified = ok
            self.verify_note = note

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
        for record in self.demotions:
            lines.append(f"  demoted: {record.describe()}")
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


def _plan_costs(
    engine: "GraniiEngine",
    graph_vec: np.ndarray,
    index: PriceIndex,
    rows: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Predicted seconds per iteration of each of ``index``'s plans (or
    of ``rows`` of them): per-iteration calls, plus backward calls when
    training, plus setup calls over the iteration count.

    Every slot the rows read is priced in one :meth:`CostModelSet.fill`
    (one forest descent for what the set's memo lacks for this vector)
    and scaled by its kind's efficiency; every call list is then summed
    left to right in one array pass.
    """
    matrix = index.matrix
    if rows is None:
        slots = range(1, len(index.keys))
    else:
        plans = len(index.views)
        matrix = matrix[[b * plans + r for b in range(index.blocks) for r in rows]]
        slots = [slot for slot in np.unique(matrix).tolist() if slot]
    models, factor = engine.cost_models, engine.system.kind_factor
    prices = models.fill(
        models.prices(graph_vec.tobytes()), [index.keys[s] for s in slots],
        [index.calls[s] for s in slots], graph_vec,
    )
    seconds = [0.0] * len(index.keys)  # slot 0 pads and prices 0.0
    for slot, price in zip(slots, prices):
        seconds[slot] = price * factor(index.kinds[slot])
    # each row's seconds summed left to right, as call by call
    totals = np.array(seconds)[matrix].cumsum(axis=1)[:, -1]
    n = len(totals) // index.blocks
    cost = totals[:n] if index.blocks == 2 else totals[:n] + totals[2 * n:]
    return cost + totals[n:2 * n] / max(engine.iterations, 1)


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
        verify_plans: bool = False,
        guarded: bool = False,
    ) -> None:
        if mode not in ("inference", "training"):
            raise ValueError("mode must be 'inference' or 'training'")
        self.device = get_device(device)
        self.system = get_system(system)
        self.iterations = int(iterations)
        self.mode = mode
        self.scale = scale
        self.memory_limit_bytes = memory_limit_bytes
        # double-execute the chosen plan against the reference composition
        # on its first iteration; on divergence fall back to the reference
        self.verify_plans = bool(verify_plans)
        # guarded execution: executors run behind the admission gate,
        # budgets, and the fallback ladder of core.guard
        self.guarded = bool(guarded)
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
        kwargs = model_ir_kwargs(layer)
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
        """The selection's :class:`ShapeEnv` for ``layer`` on ``graph``
        (:func:`~repro.core.ir.sized_env`); the caller's own copy."""
        return self._env_and_key(graph, layer)[0]

    @staticmethod
    def _env_and_key(graph: Graph, layer) -> Tuple[ShapeEnv, Tuple]:
        # Ã's edge count, not Ã: execution builds Ã when it runs
        if getattr(layer, "wants_self_loops", True):
            nnz = graph.num_edges_with_self_loops()
        else:
            nnz = graph.num_edges
        return sized_env(graph.num_nodes, nnz, layer.in_size, layer.out_size)

    # ------------------------------------------------------------------
    def predict_plan_cost(
        self,
        plan: Plan,
        env: ShapeEnv,
        graph_vec: np.ndarray,
        input_grad: bool = True,
    ) -> float:
        """Cost-model estimate of one amortised iteration of this plan
        (:meth:`predict_plan_costs` of the one plan); ``input_grad``:
        whether the layer's input carries a gradient in training (any
        layer but the first)."""
        return self.predict_plan_costs(
            [plan], env, graph_vec, input_grad=input_grad
        )[0]

    def predict_plan_costs(
        self,
        plans: Sequence[Plan],
        env: ShapeEnv,
        graph_vec: np.ndarray,
        env_key: Optional[Tuple] = None,
        input_grad: bool = True,
    ) -> List[float]:
        """Cost-model estimate of one amortised iteration of each plan
        on one input (``input_grad`` as for :meth:`predict_plan_cost`).

        Candidates of one model are re-associations of the same
        primitives, so most of their calls coincide: the plans' views of
        ``env`` (``env_key``: its key, if known) share one
        :class:`~repro.core.plan.PriceIndex` (:func:`~repro.core.plan.price_index`),
        each distinct (primitive, shape) is priced once, and every plan
        sums its own calls in its own order.
        """
        if not plans:
            return []
        index = price_index(
            plans, env, env_key, self.system.degree_method,
            self.mode == "training", input_grad,
        )
        return _plan_costs(self, graph_vec, index).tolist()

    def select_spmm_strategy(
        self,
        plan: Plan,
        env: Optional[ShapeEnv] = None,
        graph_vec: Optional[np.ndarray] = None,
        env_key: Optional[Tuple] = None,
    ) -> str:
        """``row_segment``, whatever the input: nothing prices a strategy.

        Kept only for ``bench/harness/probes.py``'s ``price`` stage.
        """
        return "row_segment"

    def select(
        self, compiled: CompiledModel, graph: Graph, layer, input_grad: bool = True
    ) -> SelectionReport:
        """Online stage: pick the cheapest viable composition (Figure 7).

        In training, ``input_grad`` says whether the layer's input carries
        a gradient, which decides the backward kernels each plan is priced
        with: :meth:`optimize` passes False for a model's first layer.
        """
        env, key = self._env_and_key(graph, layer)
        scenario = "in_ge_out" if env["K1"] >= env["K2"] else "in_lt_out"
        viable = compiled.viable(env["K1"], env["K2"])
        if not viable:  # pragma: no cover - pruning guarantees at least one
            raise RuntimeError("no viable composition")
        index = price_index(
            [p.plan for p in viable], env, key, self.system.degree_method,
            self.mode == "training", input_grad,
        )
        rows = range(len(viable))  # the index rows still in the running
        memory_filtered = 0
        if self.memory_limit_bytes is not None:
            peaks = [view.peak_bytes for view in index.views]
            fitting = [i for i in rows if peaks[i] <= self.memory_limit_bytes]
            memory_filtered = len(viable) - len(fitting)
            if fitting:
                rows = fitting
            else:
                # nothing fits: degrade gracefully to the leanest plan
                # rather than refusing to run (the baseline would OOM too)
                rows = [min(rows, key=peaks.__getitem__)]
        if len(rows) > 1:
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
        if len(rows) == 1:
            chosen_row = rows[0]
            ranked = [viable[chosen_row]]
        else:
            costs = _plan_costs(
                self, graph_vec, index, None if memory_filtered == 0 else rows
            )
            for i, c in zip(rows, costs.tolist()):
                predicted[viable[i].cost_label] = c
            order = [rows[i] for i in costs.argsort(kind="stable").tolist()]
            ranked = [viable[i] for i in order]
            chosen_row = order[0]
        chosen = viable[chosen_row]
        selection_seconds = time.perf_counter() - t1
        return SelectionReport(
            model_name=compiled.model_name,
            chosen=chosen,
            scenario=scenario,
            predicted_costs=predicted,
            viable_count=len(rows),
            feature_seconds=feature_seconds,
            selection_seconds=selection_seconds,
            peak_memory_bytes=index.views[chosen_row].peak_bytes,
            memory_filtered_count=memory_filtered,
            ranked=ranked,
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

        Like ``forward``, the executor takes the features as a Tensor and
        returns one; inference runs it under :func:`~repro.tensor.no_grad`.
        ``spmm_strategy`` runs the plan's forward aggregations.

        With ``verify_plans`` enabled the first call additionally runs the
        layer's baseline message-passing ``forward`` and compares outputs
        under the depth-scaled tolerance of
        :class:`~repro.core.verify.ToleranceModel`.  On divergence the
        executor warns, records the outcome on ``selection``, and
        permanently falls back to the reference composition — a wrong
        plan degrades performance, never correctness.

        With ``guarded`` (default: the engine's ``guarded`` argument)
        the executor is a :class:`~repro.core.guard.GuardedExecutor`
        instead: inputs pass an admission gate, every run is budgeted,
        and failures demote down the plan ladder rather than escaping.
        Every rung runs ``row_segment``, so a guarded executor accepts no
        other ``spmm_strategy`` (``ValueError``); an unguarded one runs
        any row of :data:`~repro.kernels.spmm.SPMM_STRATEGIES`.

        ``caches`` are the per-graph caches the executor starts with
        (default: empty; see :class:`~repro.core.guard.ExecutorCaches`
        for who may pass a predecessor's).  ``inputs_validated`` tells a
        guarded executor that its caller already ran the admission gate
        on the inputs it will be called with.
        """
        if guarded is None:
            guarded = self.guarded
        if guarded:
            if spmm_strategy != "row_segment":
                raise ValueError(
                    f"a guarded executor runs row_segment only, "
                    f"not {spmm_strategy!r}"
                )
            if selection is None:
                selection = SelectionReport(
                    model_name=model_ir_name(layer),
                    chosen=planned,
                    scenario="",
                    predicted_costs={},
                    viable_count=1,
                    feature_seconds=0.0,
                    selection_seconds=0.0,
                    ranked=[planned],
                )
            elif planned is not selection.chosen:
                selection.chosen = planned
            return GuardedExecutor(
                self, layer, selection, caches, inputs_validated
            )
        plan = planned.plan
        setup_caches = (caches if caches is not None else ExecutorCaches()).setup
        verify_state = {"pending": self.verify_plans, "fallback": False}

        def executor(g: MPGraph, feat: Tensor, *args, **kwargs) -> Tensor:
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
        self, layer, plan: Plan, g: MPGraph, feat: Tensor, out: Tensor
    ) -> Tuple[bool, str]:
        """Compare one plan output against the baseline forward."""
        from ..tensor import no_grad
        from .verify import ToleranceModel, _max_errors

        with no_grad():
            ref = reference_forward(layer, g, feat)
        tol = ToleranceModel().for_graph(
            g.adj, mode=self.mode, num_steps=len(plan.steps)
        )
        abs_err, _ = _max_errors(out.data, ref.data)
        ok = tol.allclose(out.data, ref.data)
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
        In training, a layer reading the model's input is priced without
        the input-gradient kernels its tape never records.
        """
        report = OptimizationReport()
        layers = model.granii_layers() if hasattr(model, "granii_layers") else [model]
        # the model's input features carry no gradient: in a stack
        # (``granii_stacked``) every layer but the first reads one that
        # does, while heads all read the model's input
        stacked = getattr(model, "granii_stacked", False)
        for i, layer in enumerate(layers):
            compiled = self.compile_for(layer, graph)
            selection = self.select(
                compiled, graph, layer, input_grad=stacked and i > 0
            )
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
