"""Selection prices from per-plan call templates and re-derives nothing.

A plan's kernel calls are compiled once into a template and evaluated
once per shape env into a view (``Plan.call_view``); planlint keeps a
plan's env-free verdict per strategy tuple.  These tests pin that hoist:

- a warm ``select`` decides exactly what a cold one (every memo cleared)
  decides, bitwise, and every view key is the ``call_key`` of its call;
- a warm ``select`` on a fresh ``Graph`` runs no abstract interpretation,
  no workspace trace, no call expansion and no key sort (counted, so
  they cannot flake);
- verdicts are fresh per call, pinned-strategy rejections still fall
  back, the view table is bounded, and no memo rides in a snapshot.
"""

import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.analysis import planlint
from repro.analysis.planlint import Diagnostic, analyze_plan
from repro.core import costmodel
from repro.core.costmodel import CostModelSet, call_key, get_cost_models
from repro.core.features import featurize_graph
from repro.core.ir import ShapeEnv, env_key
from repro.core.plan import _VIEWS_KEPT, Plan
from repro.core.runtime import GraniiEngine
from repro.graphs import Graph
from repro.graphs.generators import erdos_renyi, rmat, road_mesh
from repro.kernels import SPMM_STRATEGY_TABLE
from repro.models import build_layer
from repro.serving import GraniiService, ServeRequest
from repro.state import StateStore

ZOO = ("gcn", "gin", "sgc", "tagcn", "gat", "sage", "appnp")
MODES = ("inference", "training")


@pytest.fixture(scope="module")
def cost_models():
    # h100/small shares the process-wide cost-model cache with the suite
    return get_cost_models("h100", scale="small")


def graphs():
    return {
        "rmat": rmat(300, 6, seed=3),
        "mesh": road_mesh(256, seed=4),
        "er": erdos_renyi(200, 5, seed=5),
    }


def engine_for(models, mode="inference", **kwargs):
    return GraniiEngine(
        device="h100", scale="small", cost_models=models, mode=mode, **kwargs
    )


def clear_memos(compiled):
    for planned in compiled.promoted:
        planned.plan.clear_memos()


def decision(sel):
    """Everything a selection decided, floats as their exact repr."""
    v = sel.analysis
    return {
        "predicted": {k: repr(c) for k, c in sel.predicted_costs.items()},
        "strategy_costs": {k: repr(c) for k, c in sel.strategy_costs.items()},
        "ranked": [f"{p.label}#{p.plan.name}" for p in sel.ranked],
        "strategy": sel.spmm_strategy,
        "peak": repr(sel.peak_memory_bytes),
        "diagnostics": [d.describe() for d in v.diagnostics],
        "proved": list(v.proved),
        "obligations": list(v.obligations),
        "facts": {k: repr(x) for k, x in v.facts.items()},
        "env_key": v.env_key,
    }


def counting(fn):
    """A plain function (so it binds as a method) counting its calls."""

    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


# ----------------------------------------------------------------------
# (a) warm == cold, bitwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ZOO)
def test_warm_select_equals_cold_select(name, mode, cost_models):
    layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
    for graph in graphs().values():
        compiled = engine_for(cost_models).compile_for(layer, graph)
        clear_memos(compiled)
        # a model set with an empty price memo: nothing priced before
        cold_models = CostModelSet(cost_models.device_name, cost_models._models)
        cold = engine_for(cold_models, mode).select(compiled, Graph(graph.adj), layer)
        warm = engine_for(cost_models, mode).select(compiled, Graph(graph.adj), layer)
        again = engine_for(cost_models, mode).select(compiled, Graph(graph.adj), layer)
        assert decision(warm) == decision(cold), (name, graph.name)
        assert decision(again) == decision(cold), (name, graph.name)
        assert cold.analysis.env_key == env_key(
            engine_for(cost_models).shape_env(graph, layer)
        )


@pytest.mark.parametrize("name", ZOO)
def test_view_keys_are_the_call_keys(name, cost_models):
    graph = rmat(300, 6, seed=3)
    layer = build_layer(name, 16, 32, rng=np.random.default_rng(0))
    engine = engine_for(cost_models)
    compiled = engine.compile_for(layer, graph)
    env = engine.shape_env(graph, layer)
    for planned in compiled.promoted:
        view = planned.plan.call_view(env)
        lists = [*view.forward("indptr"), *view.forward("binning"), view.backward]
        lists += [view.variant(row) for row in SPMM_STRATEGY_TABLE]
        for priced in filter(None, lists):
            assert priced.keys == [call_key(c) for c in priced.calls]
        setup, per_iter = planned.plan.kernel_calls(env)
        assert (setup, per_iter) == tuple(l.calls for l in view.forward("indptr"))


# ----------------------------------------------------------------------
# (b) a warm select re-derives nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ZOO)
def test_warm_select_rederives_nothing(name, mode, cost_models, monkeypatch):
    graph = rmat(300, 6, seed=3)
    layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
    compiled = engine_for(cost_models).compile_for(layer, graph)
    counters = {
        "analyze_candidate": (planlint, "analyze_candidate"),
        "workspace_trace": (planlint, "workspace_trace"),
        "_step_calls": (Plan, "_step_calls"),
        "call_key": (costmodel, "call_key"),
    }
    for label, (owner, attr) in counters.items():
        counters[label] = counting(getattr(owner, attr))
        monkeypatch.setattr(owner, attr, counters[label])

    clear_memos(compiled)
    engine_for(cost_models, mode).select(compiled, Graph(graph.adj), layer)
    # the cold select derived the plans: the counters are wired
    for label in ("analyze_candidate", "workspace_trace", "_step_calls"):
        assert counters[label].calls > 0, label
        counters[label].calls = 0
    engine_for(cost_models, mode).select(compiled, Graph(graph.adj), layer)
    assert {label: c.calls for label, c in counters.items()} == dict.fromkeys(
        counters, 0
    )
    # and call_key is the one predict_call falls back to without a key
    call = compiled.promoted[0].plan.kernel_calls(
        engine_for(cost_models).shape_env(graph, layer)
    )[1][0]
    cost_models.predict_call(call, featurize_graph(graph))
    assert counters["call_key"].calls == 1


# ----------------------------------------------------------------------
# (c) every verdict is fresh
# ----------------------------------------------------------------------
def test_mutating_a_verdict_does_not_leak(cost_models):
    graph = erdos_renyi(200, 5, seed=5)
    layer = build_layer("gcn", 32, 16, rng=np.random.default_rng(0))
    engine = engine_for(cost_models)
    compiled = engine.compile_for(layer, graph)
    first = engine.select(compiled, Graph(graph.adj), layer)
    want = decision(first)
    v = first.analysis
    v.diagnostics.append(Diagnostic("planted", "not a finding"))
    v.proved.append("planted")
    v.obligations.append("planted")
    v.facts["peak_memory_bytes"] = -1.0
    v.env_key = ("planted",)
    second = engine.select(compiled, Graph(graph.adj), layer)
    assert second.analysis is not v
    assert second.analysis.ok
    assert decision(second) == want

    plan = first.chosen.plan
    direct = analyze_plan(plan)
    direct.proved.clear()
    direct.diagnostics.append(Diagnostic("planted", "not a finding"))
    assert analyze_plan(plan).proved and analyze_plan(plan).ok


# ----------------------------------------------------------------------
# (d) a pinned strategy the analyzer rejects still falls back
# ----------------------------------------------------------------------
def test_pinned_strategy_rejection_warns_and_falls_back(cost_models, monkeypatch):
    graph = rmat(300, 6, seed=3)
    layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
    engine = engine_for(cost_models, spmm_strategy="blocked")
    compiled = engine.compile_for(layer, graph)
    env = engine.shape_env(graph, layer)
    vec = featurize_graph(graph)
    plan = compiled.viable(8, 4)[0].plan

    def leaky_trace(plan, strategy):
        # an arena tile acquired and never released on either edge
        return [("acquire", f"tile:{plan.name}", plan.candidate.output)]

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engine.select_spmm_strategy(plan, env, vec)[0] == "blocked"
        plan.clear_memos()
        monkeypatch.setattr(planlint, "workspace_trace", leaky_trace)
        for _ in range(2):  # derived, then memoised: both reject
            with pytest.warns(RuntimeWarning, match="workspace-leak"):
                strategy, costs = engine.select_spmm_strategy(plan, env, vec)
            assert (strategy, costs) == ("row_segment", {})
    finally:
        plan.clear_memos()  # the plan is cached process-wide


# ----------------------------------------------------------------------
# The view table is bounded, and eviction is invisible
# ----------------------------------------------------------------------
def _gcn_plan(cost_models):
    graph = rmat(300, 6, seed=3)
    layer = build_layer("gcn", 32, 16, rng=np.random.default_rng(0))
    engine = engine_for(cost_models, mode="training")
    compiled = engine.compile_for(layer, graph)
    plan = compiled.viable(32, 16)[0].plan
    return engine, plan, engine.shape_env(graph, layer), featurize_graph(graph)


def _env_with(env, n):
    other = ShapeEnv(env)
    other["N"] = n
    return other


def test_view_table_is_bounded_and_an_evicted_env_reprices_the_same(cost_models):
    engine, plan, env, vec = _gcn_plan(cost_models)
    first = engine.predict_plan_costs([plan], env, vec)
    for i in range(300):
        engine.predict_plan_costs([plan], _env_with(env, env["N"] + 1 + i), vec)
    assert len(plan._views) <= _VIEWS_KEPT
    assert env_key(env) not in plan._views
    assert repr(engine.predict_plan_costs([plan], env, vec)) == repr(first)


def test_concurrent_pricing_keeps_the_bound(cost_models):
    engine, plan, env, vec = _gcn_plan(cost_models)
    want = repr(engine.predict_plan_costs([plan], env, vec))
    errors = []

    def worker(offset):
        try:
            for i in range(80):
                env_i = _env_with(env, env["N"] + 1000 * offset + i)
                engine.predict_plan_costs([plan], env_i, vec)
                assert repr(engine.predict_plan_costs([plan], env, vec)) == want
        except Exception as exc:  # surfaced below, on the test thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the table updates
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(plan._views) <= _VIEWS_KEPT


# ----------------------------------------------------------------------
# Memos never ride in a snapshot
# ----------------------------------------------------------------------
def test_memos_never_ride_in_a_snapshot(cost_models, tmp_path):
    graph = erdos_renyi(150, 6.0, seed=3)
    feats = np.random.default_rng(1).standard_normal((graph.num_nodes, 8))

    def service():
        svc = GraniiService(
            device="h100", scale="small", cost_models=cost_models,
            num_threads=1, state_dir=str(tmp_path),
        )
        svc.register_model("tagcn", 8, 4)
        return svc

    request = ServeRequest(tenant="t", model="tagcn", graph=graph, feats=feats)
    with service() as svc:
        assert svc.serve(request, timeout=120.0).ok
        svc.save_state()
    [(_, _, saved)] = StateStore(tmp_path).load("plan_cache")
    assert len(saved.predicted_costs) > 1
    for planned in saved.ranked:
        assert planned.plan._template is None
        assert len(planned.plan._views) == 0 and planned.plan._verdicts == {}

    with service() as svc2:  # restart warm
        assert svc2.warm_start["plan_cache"] == 1
        assert svc2.serve(request, timeout=120.0).cache_hit

    layer = build_layer("tagcn", 8, 4, rng=np.random.default_rng(0))
    engine = engine_for(cost_models)
    compiled = engine.compile_for(layer, graph)
    # the live plan the service priced is warm, and pickles as a cold one
    live = next(
        p.plan for p in compiled.promoted if p.plan.name == saved.chosen.plan.name
    )
    assert live._template is not None and live._views and live._verdicts
    warm_bytes = pickle.dumps(live)
    live.clear_memos()
    assert pickle.dumps(live) == warm_bytes

    again = engine.select(compiled, Graph(graph.adj), layer)
    assert again.predicted_costs == saved.predicted_costs
    assert [p.label for p in again.ranked] == [p.label for p in saved.ranked]
    assert again.spmm_strategy == saved.spmm_strategy
    # the restored plans price from templates they rebuild themselves
    env = engine.shape_env(graph, layer)
    costs = engine.predict_plan_costs(
        [p.plan for p in saved.ranked], env, featurize_graph(graph)
    )
    assert dict(zip(
        (f"{p.label}#{p.plan.name}" for p in saved.ranked), costs
    )) == saved.predicted_costs
