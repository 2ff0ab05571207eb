"""Per-layer probes of the traced run: direct, timed calls to each layer's
public stage functions on the workload's own inputs.

The measured phase shows what an op costs; these probes show where a
selection spends it.  They run after the measured phase, so nothing here
touches an end-to-end metric.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.planlint import analyze_plan
from repro.core import assoc, codegen, frontend, pruning, rewrite
from repro.core.bindings import model_ir_kwargs, model_ir_name
from repro.core.features import featurize_graph
from repro.core.runtime import GraniiEngine, SelectionReport
from repro.graphs import Graph
from repro.hardware import bytes_moved
from repro.kernels import SPMM_STRATEGIES
from repro.models import MODEL_NAMES
from repro.tensor import Tensor, no_grad

from .stats import best_of, p50, timed

REGRET_REPEATS = 5


@dataclass
class LayerInput:
    """One (layer, graph, features) triple a selection is made for."""

    layer: object
    graph: Graph
    feats: np.ndarray


def layer_inputs(model, graph: Graph, feats: np.ndarray) -> List[LayerInput]:
    """The per-layer inputs of a model: layer ``i`` sees layer ``i-1``'s
    output, computed with the un-optimised forward."""
    out = []
    h = np.asarray(feats)
    with no_grad():
        for layer in model.granii_layers():
            out.append(LayerInput(layer, graph, h))
            forward = layer.forward(layer.as_mp_graph(graph), Tensor(h))
            h = np.asarray(forward.data)
    return out


def fresh(graph: Graph) -> Graph:
    """Same structure, new ``Graph`` object: defeats the memos that key on
    the object (``engine._graph_vec_cache``, ``_with_loops``, ``_mp_*``)."""
    return Graph(graph.adj, graph.name)


# ----------------------------------------------------------------------
# Selection stages
# ----------------------------------------------------------------------
def stage_probe(cost_models, mode: str, inputs: Sequence[LayerInput]) -> Dict[str, float]:
    """Time featurize / price / planlint / compile_plan / select /
    make_executor / guard on every input; report medians in ms."""
    t: Dict[str, List[float]] = {
        k: [] for k in (
            "featurize", "price", "planlint", "compile_plan", "select",
            "make_executor", "guard",
        )
    }
    for item in inputs:
        engine = GraniiEngine(device="cpu", cost_models=cost_models, mode=mode)
        layer, graph = item.layer, item.graph
        compiled = engine.compile_for(layer, graph)
        env = engine.shape_env(graph, layer)
        vec = featurize_graph(graph)
        viable = compiled.viable(env["K1"], env["K2"])
        t["featurize"].append(timed(lambda: featurize_graph(fresh(graph))))

        def price():
            costs = [engine.predict_plan_cost(p.plan, env, vec) for p in viable]
            best = viable[int(np.argmin(costs))]
            engine.select_spmm_strategy(best.plan, env, vec)

        t["price"].append(timed(price))
        selection = engine.select(compiled, fresh(graph), layer)
        plan = selection.chosen.plan
        strategies = tuple(dict.fromkeys(("blocked", selection.spmm_strategy)))
        t["planlint"].append(
            timed(lambda: analyze_plan(plan, env=env, strategies=strategies))
        )
        codegen.clear_plan_compile_cache()
        t["compile_plan"].append(timed(lambda: codegen.compile_plan(plan)))
        t["select"].append(
            timed(lambda: GraniiEngine(
                device="cpu", cost_models=cost_models, mode=mode
            ).select(compiled, fresh(graph), layer))
        )
        t["make_executor"].append(timed(lambda: engine.make_executor(
            layer, selection.chosen, selection.spmm_strategy,
            selection=selection, guarded=False,
        )))
        t["guard"].append(_guard_overhead(engine, item, selection))
    med = {k: 1e3 * p50(v) for k, v in t.items()}
    select = med["select"]
    inside = med["featurize"] + med["price"] + med["planlint"]
    return {
        "core.features.featurize_ms_p50": med["featurize"],
        "core.costmodel.price_ms_p50": med["price"],
        "analysis.planlint.analyze_ms_p50": med["planlint"],
        "core.codegen.compile_plan_ms_p50": med["compile_plan"],
        "core.runtime.select_ms_p50": select,
        "core.runtime.select_unattributed_share":
            (select - inside) / select if select else 0.0,
        "core.runtime.make_executor_ms_p50": med["make_executor"],
        "core.guard.overhead_ms_p50": med["guard"],
    }


def _run(executor, item: LayerInput):
    with no_grad():
        return executor(item.layer.as_mp_graph(item.graph), Tensor(item.feats))


def _guard_overhead(engine, item: LayerInput, selection: SelectionReport) -> float:
    """Guarded minus unguarded executor of the same plan on the same input."""
    times = {}
    for guarded in (False, True):
        executor = engine.make_executor(
            item.layer, selection.chosen, selection.spmm_strategy,
            selection=selection, guarded=guarded,
        )
        _run(executor, item)  # warm the setup cache
        times[guarded] = best_of(lambda: _run(executor, item), 5)
    return times[True] - times[False]


# ----------------------------------------------------------------------
# Offline compile stages
# ----------------------------------------------------------------------
# offline stage -> the layer (module) its metric is reported under
COMPILE_STAGES = {
    "parse_ms": "core.frontend",
    "enumerate_ms": "core.assoc",
    "prune_ms": "core.pruning",
    "compile_model_ms": "core.codegen",
    "enumerated": "core.codegen",
    "promoted": "core.codegen",
}


def compile_breakdown(layers: Dict[str, object]) -> Dict[str, float]:
    """Cold offline-stage times and exact candidate counts per model.

    Models the workload never compiles report 0: the layer did no work.
    """
    out: Dict[str, float] = {}
    for name in MODEL_NAMES:
        layer = layers.get(name)
        row = dict.fromkeys(COMPILE_STAGES, 0.0)
        if layer is not None:
            kwargs = dict(model_ir_kwargs(layer))
            stage: Dict[str, object] = {}
            row["parse_ms"] = 1e3 * timed(
                lambda: stage.update(ir=frontend.parse_forward(layer))
            )
            row["enumerate_ms"] = 1e3 * timed(lambda: stage.update(
                cands=assoc.enumerate_candidates(
                    rewrite.rewrite_variants(stage["ir"])
                )
            ))
            row["prune_ms"] = 1e3 * timed(
                lambda: pruning.prune_candidates(stage["cands"])
            )
            codegen.clear_compile_cache()
            row["compile_model_ms"] = 1e3 * timed(lambda: stage.update(
                compiled=codegen.compile_model(
                    model_ir_name(layer), ir=stage["ir"], **kwargs
                )
            ))
            row["enumerated"] = float(stage["compiled"].enumerated_count)
            row["promoted"] = float(len(stage["compiled"].promoted))
        for key, module in COMPILE_STAGES.items():
            out[f"{module}.{key}.{name}"] = row[key]
    return out


# ----------------------------------------------------------------------
# What was chosen, and what it costs on paper
# ----------------------------------------------------------------------
def choice_metrics(selections: Sequence[SelectionReport]) -> Dict[str, float]:
    """Strategy histogram and fused share over the workload's selections."""
    counts = Counter(s.spmm_strategy for s in selections)
    out = {
        f"core.runtime.chosen.{s}.count": float(counts.get(s, 0))
        for s in SPMM_STRATEGIES
    }
    fused = sum(
        1 for s in selections
        if s.spmm_strategy == "spmm_fused"
        and codegen.compile_plan(s.chosen.plan).segments
    )
    out["core.codegen.fused_share"] = fused / len(selections) if selections else 0.0
    return out


def plan_work(
    engine: GraniiEngine, selection: SelectionReport, item: LayerInput
) -> Tuple[float, float]:
    """``(flops, bytes)`` of one iteration of the chosen plan, computed
    from its ``KernelCall`` shapes — an estimate on paper, not a counter."""
    env = engine.shape_env(item.graph, item.layer)
    _, calls = selection.chosen.plan.kernel_calls(env, engine.system.degree_method)
    if engine.mode == "training":
        calls = list(calls) + list(selection.chosen.plan.backward_calls(env))
    return (
        float(sum(c.flops for c in calls)),
        float(sum(bytes_moved(c) for c in calls)),
    )


# ----------------------------------------------------------------------
# Selection regret
# ----------------------------------------------------------------------
def regret(engine: GraniiEngine, selections, inputs: Sequence[LayerInput]) -> float:
    """Time of the chosen (plan, strategy) over the best alternative.

    Alternatives per layer: the chosen plan under every strategy, and every
    ranked plan under the chosen strategy; minimum of five repetitions
    each; summed over the model's layers.  1.0 means nothing measured
    beat the choice.
    """
    training = engine.mode == "training"
    chosen_total = best_total = 0.0
    for selection, item in zip(selections, inputs):
        pairs = [(selection.chosen, s) for s in SPMM_STRATEGIES]
        pairs += [
            (p, selection.spmm_strategy)
            for p in selection.ranked if p is not selection.chosen
        ]
        times = {}
        for planned, strategy in pairs:
            executor = engine.make_executor(
                item.layer, planned, strategy, guarded=False
            )
            run = (
                (lambda: _train_pass(executor, item)) if training
                else (lambda: _run(executor, item))
            )
            try:
                run()
                times[(id(planned), strategy)] = best_of(run, REGRET_REPEATS)
            except Exception:  # an alternative that cannot run is no rival
                continue
        chosen = times[(id(selection.chosen), selection.spmm_strategy)]
        chosen_total += chosen
        best_total += min(times.values())
    return chosen_total / best_total if best_total else 0.0


def _train_pass(executor, item: LayerInput) -> None:
    out = executor(item.layer.as_mp_graph(item.graph), Tensor(item.feats))
    out.sum().backward()
    item.layer.zero_grad()
