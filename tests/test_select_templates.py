"""Selection prices from per-plan call templates and re-derives nothing.

A plan's kernel calls are compiled once into a template and evaluated
once per shape env into a view (``Plan.call_view``); planlint keeps a
plan's env-free verdict per strategy tuple.  These tests pin that hoist:

- a warm ``select`` decides exactly what a cold one (every memo cleared)
  decides, bitwise, and every view key is the ``call_key`` of its call;
- no ``select`` runs abstract interpretation or a workspace trace (every
  plan it can choose passed planlint when it was compiled), and a warm
  one on a fresh ``Graph`` runs no call expansion and no key sort
  (counted, so they cannot flake);
- planlint verdicts are fresh per call, pinned-strategy rejections stay
  rejected, the view table is bounded, and no memo rides in a snapshot;
- ``shape_env`` counts Ã's edges instead of building Ã, and the count is
  exactly ``adj_with_self_loops().nnz`` on every pattern;
- a model's plans are priced from one price index per env: every total
  is bitwise what summing call by call gives, from a cold or a warm price
  memo, the index table is bounded, and concurrent first selections agree;
- the removed ``REPRO_AUTOTUNE`` knob changes no decision;
- selection prices only primitives in the loaded model set, so a set
  saved with the deleted strategy primitives loads and prices the same.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.analysis import planlint
from repro.analysis.planlint import Diagnostic, analyze_plan
from repro.core import costmodel
from repro.core.codegen import CompiledModel
from repro.core.costmodel import (
    CostModelSet,
    call_key,
    get_cost_models,
    load_cost_models,
    save_cost_models,
)
from repro.core.features import featurize_graph
from repro.core.ir import ShapeEnv, env_key
from repro.core.plan import _VIEWS_KEPT, Plan, price_index
from repro.core.runtime import GraniiEngine
from repro.graphs import Graph
from repro.graphs.generators import erdos_renyi, rmat, road_mesh
from repro.learn.gbt import Forest
from repro.models import build_layer
from repro.serving import GraniiService, ServeRequest
from repro.sparse import CSRMatrix
from repro.state import StateStore
from repro.tensor import no_grad

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
    return {
        "predicted": {k: repr(c) for k, c in sel.predicted_costs.items()},
        "ranked": [f"{p.label}#{p.plan.name}" for p in sel.ranked],
        "strategy": sel.spmm_strategy,
        "peak": repr(sel.peak_memory_bytes),
        "viable": sel.viable_count,
        "filtered": sel.memory_filtered_count,
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
        env = engine_for(cost_models).shape_env(graph, layer)
        assert cold.peak_memory_bytes == cold.chosen.plan.peak_memory_bytes(env)


@pytest.mark.parametrize("name", ZOO)
def test_view_keys_are_the_call_keys(name, cost_models):
    graph = rmat(300, 6, seed=3)
    layer = build_layer(name, 16, 32, rng=np.random.default_rng(0))
    engine = engine_for(cost_models)
    compiled = engine.compile_for(layer, graph)
    env = engine.shape_env(graph, layer)
    for planned in compiled.promoted:
        plan = planned.plan
        view = plan.call_view(env)
        for dm in ("indptr", "binning"):
            for pairs, calls in zip(view.pairs(dm), plan.kernel_calls(env, dm)):
                assert [key for key, _ in pairs] == [call_key(c) for c in calls]
        for input_grad in (True, False):
            pairs = view.backward_pairs(input_grad)
            calls = plan.backward_calls(env, input_grad)
            assert [key for key, _ in pairs] == [call_key(c) for c in calls]


# ----------------------------------------------------------------------
# (b) no select analyzes a plan; a warm one re-derives nothing
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
        "add_self_loops": (CSRMatrix, "add_self_loops"),
    }
    for label, (owner, attr) in counters.items():
        counters[label] = counting(getattr(owner, attr))
        monkeypatch.setattr(owner, attr, counters[label])

    clear_memos(compiled)
    engine_for(cost_models, mode).select(compiled, Graph(graph.adj), layer)
    # the cold select derived the plans (the counters are wired) but
    # analyzed none: every plan it can choose passed planlint at compile
    assert counters["_step_calls"].calls > 0
    assert counters["analyze_candidate"].calls == 0
    assert counters["workspace_trace"].calls == 0
    counters["_step_calls"].calls = 0
    engine_for(cost_models, mode).select(compiled, Graph(graph.adj), layer)
    assert {label: c.calls for label, c in counters.items()} == dict.fromkeys(
        counters, 0
    )
    # and the counted call_key is the one predict_call keys a call with
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
    plan, env = first.chosen.plan, engine.shape_env(graph, layer)
    v = analyze_plan(plan, env=env, strategies=("row_segment",))
    v.diagnostics.append(Diagnostic("planted", "not a finding"))
    v.proved.append("planted")
    v.obligations.append("planted")
    v.facts["peak_memory_bytes"] = -1.0
    v.env_key = ("planted",)
    again = analyze_plan(plan, env=env, strategies=("row_segment",))
    assert again is not v and again.ok
    assert again.facts["peak_memory_bytes"] == plan.peak_memory_bytes(env)
    assert again.env_key == env_key(env)
    second = engine.select(compiled, Graph(graph.adj), layer)
    assert decision(second) == want

    direct = analyze_plan(plan)
    direct.proved.clear()
    direct.diagnostics.append(Diagnostic("planted", "not a finding"))
    assert analyze_plan(plan).proved and analyze_plan(plan).ok


# ----------------------------------------------------------------------
# (d) a rejected verdict stays rejected once memoised
# ----------------------------------------------------------------------
def test_a_rejected_blocked_verdict_stays_rejected(cost_models, monkeypatch):
    graph = rmat(300, 6, seed=3)
    layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
    engine = engine_for(cost_models)
    plan = engine.compile_for(layer, graph).viable(8, 4)[0].plan

    def leaky_trace(plan, strategy):
        # an arena tile acquired and never released on either edge
        return [("acquire", f"tile:{plan.name}", plan.candidate.output)]

    try:
        assert analyze_plan(plan, strategies=("blocked",)).ok
        plan.clear_memos()
        monkeypatch.setattr(planlint, "workspace_trace", leaky_trace)
        for _ in range(2):  # derived, then memoised: both reject
            verdict = analyze_plan(plan, strategies=("blocked",))
            assert not verdict.ok
            assert "workspace-leak" in {d.rule for d in verdict.errors}
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
    analyze_plan(live)  # planlint's memo, which no selection fills
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


# ----------------------------------------------------------------------
# shape_env counts Ã's edges; it never builds Ã
# ----------------------------------------------------------------------
def _csr(n, rows, cols, values=None):
    """A CSR matrix holding the entries in the given order, as given."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    vals = None if values is None else np.asarray(values, float)[order]
    return CSRMatrix(indptr, np.asarray(cols, np.int64)[order], vals, (n, n))


def _patterns():
    rng = np.random.default_rng(7)
    mesh = road_mesh(64, seed=1).adj
    with_loops = mesh.add_self_loops()
    some = _csr(6, [0, 0, 1, 2, 2, 3, 5], [0, 3, 2, 1, 2, 5, 0])
    return {
        "no loops": mesh,
        "some loops": some,
        "all loops": with_loops,
        "weighted": CSRMatrix(
            with_loops.indptr, with_loops.indices,
            rng.standard_normal(with_loops.nnz), with_loops.shape,
        ),
        "weighted, some loops": _csr(
            6, [0, 0, 1, 2, 2, 3, 5], [0, 3, 2, 1, 2, 5, 0],
            [1.5, -2.0, 0.5, 1.0, -1.0, 2.0, 3.0],
        ),
        "empty rows": _csr(7, [1, 1, 3, 4], [0, 1, 6, 4]),
        "no entries": CSRMatrix(
            np.zeros(5, np.int64), np.zeros(0, np.int64), None, (4, 4)
        ),
        "unsorted columns": _csr(5, [0, 0, 0, 2, 2, 4], [3, 0, 1, 2, 0, 4]),
        "duplicate columns": _csr(5, [0, 0, 1, 1, 3], [2, 2, 1, 1, 0]),
        "weighted duplicates": _csr(
            4, [0, 0, 2, 2], [0, 0, 1, 1], [1.0, -2.0, 3.0, 4.0]
        ),
    }


@pytest.mark.parametrize("name", list(_patterns()))
def test_counted_edges_are_the_built_edges(name):
    adj = _patterns()[name]
    want = adj.add_self_loops().nnz
    assert adj.nnz_with_self_loops() == want
    graph = Graph(adj)
    assert graph.num_edges_with_self_loops() == want
    assert graph._with_loops is None  # counted, not built
    assert graph.adj_with_self_loops().nnz == want
    assert Graph(adj).num_edges_with_self_loops() == want


def test_only_a_non_canonical_pattern_merges(monkeypatch):
    merges = counting(CSRMatrix._merge_diagonal)
    monkeypatch.setattr(CSRMatrix, "_merge_diagonal", merges)
    patterns = _patterns()
    for name in ("no loops", "some loops", "all loops", "weighted", "empty rows"):
        patterns[name].nnz_with_self_loops()
    assert merges.calls == 0
    patterns["unsorted columns"].nnz_with_self_loops()
    patterns["duplicate columns"].nnz_with_self_loops()
    assert merges.calls == 2


def test_shape_env_reads_a_held_tilde_a(cost_models):
    graph = Graph(rmat(300, 6, seed=3).adj)
    layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
    engine = engine_for(cost_models)
    counted = engine.shape_env(graph, layer)
    assert graph._with_loops is None
    held = graph.adj_with_self_loops()
    assert engine.shape_env(graph, layer) == counted
    assert counted["E"] == held.nnz


@pytest.mark.parametrize("name", ZOO)
def test_forward_after_optimize_matches_message_passing(name, cost_models):
    rng = np.random.default_rng(2)
    base = rmat(300, 6, seed=3).adj
    rows, cols, _ = base.to_coo()
    loops = np.arange(0, base.shape[0], 3)
    # the same pattern storing a loop on every third node
    some_loops = CSRMatrix.from_coo(
        np.concatenate([rows, loops]), np.concatenate([cols, loops]),
        None, base.shape,
    )
    layer = build_layer(name, 16, 8, rng=np.random.default_rng(0))
    for matrix in (base, some_loops, road_mesh(256, seed=4).adj):
        feats = rng.standard_normal((matrix.shape[0], 16))
        graph = Graph(matrix)
        engine_for(cost_models).optimize(layer, graph, feats)
        assert graph._with_loops is None  # select built no Ã
        with no_grad():
            got = np.asarray(layer(graph, feats).data)
            layer.detach_executor()
            want = np.asarray(layer(Graph(matrix), feats).data)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# One price vector per selection, bitwise the per-call sums
# ----------------------------------------------------------------------
def _call_by_call(engine, calls, vec):
    """A call list's seconds, summed one call at a time in call order."""
    return engine.cost_models.predict_calls(calls, vec, engine.system.efficiency)


def _reference_costs(engine, plans, env, vec):
    costs = []
    for plan in plans:
        setup, per_iter = plan.kernel_calls(env, engine.system.degree_method)
        cost = _call_by_call(engine, per_iter, vec)
        if engine.mode == "training":
            cost += _call_by_call(engine, plan.backward_calls(env), vec)
        cost += _call_by_call(engine, setup, vec) / max(engine.iterations, 1)
        costs.append(cost)
    return costs


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ZOO)
def test_totals_are_the_call_by_call_sums(name, mode, memo, cost_models, monkeypatch):
    """Totals are the call-by-call sums whether a selection prices from an
    empty memo or from the one an earlier selection filled; a warm
    selection walks no tree."""
    walks = counting(Forest.predict)  # the one descent every price takes
    monkeypatch.setattr(Forest, "predict", walks)
    layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
    for graph in graphs().values():
        # a model set of its own, so "cold" means nothing priced yet
        models = CostModelSet(cost_models.device_name, cost_models._models)
        engine = engine_for(models, mode)
        compiled = engine.compile_for(layer, graph)
        if memo == "warm":
            engine.select(compiled, Graph(graph.adj), layer)
            walks.calls = 0
        sel = engine.select(compiled, Graph(graph.adj), layer)
        walked = walks.calls
        env = engine.shape_env(graph, layer)
        vec = featurize_graph(graph)
        viable = compiled.viable(env["K1"], env["K2"])
        if len(viable) > 1:
            # a lone viable plan is chosen unpriced
            assert (walked == 0) == (memo == "warm"), (name, graph.name)
            want = _reference_costs(engine, [p.plan for p in viable], env, vec)
            assert {k: repr(c) for k, c in sel.predicted_costs.items()} == {
                f"{p.label}#{p.plan.name}": repr(c) for p, c in zip(viable, want)
            }, (name, graph.name)
        got = engine.predict_plan_costs([p.plan for p in viable], env, vec)
        assert repr(got) == repr(
            _reference_costs(engine, [p.plan for p in viable], env, vec)
        )
        assert sel.spmm_strategy == "row_segment"
        assert engine.select_spmm_strategy(sel.chosen.plan, env, vec) == "row_segment"


@pytest.mark.parametrize("name", ZOO)
def test_the_removed_autotune_knob_changes_no_decision(name, cost_models, monkeypatch):
    """``REPRO_AUTOTUNE`` is read by nothing: with it set, every selection
    ranks, prices and picks a strategy exactly as with it unset."""
    layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))

    def decisions():
        out = []
        for mode in MODES:
            for graph in graphs().values():
                engine = engine_for(cost_models, mode)
                compiled = engine.compile_for(layer, graph)
                out.append(decision(engine.select(compiled, Graph(graph.adj), layer)))
        return out

    monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
    want = decisions()
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    assert decisions() == want


def _zoo_prices(models, graph):
    """Every zoo model's selection decisions and plan totals, both modes."""
    out = []
    for mode in MODES:
        for name in ZOO:
            layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
            engine = engine_for(models, mode)
            compiled = engine.compile_for(layer, graph)
            sel = engine.select(compiled, Graph(graph.adj), layer)
            env = engine.shape_env(graph, layer)
            plans = [p.plan for p in compiled.viable(env["K1"], env["K2"])]
            costs = engine.predict_plan_costs(plans, env, featurize_graph(graph))
            out.append((decision(sel), repr(costs)))
    return out


def test_select_prices_only_primitives_in_the_loaded_set(cost_models, monkeypatch):
    asked = set()
    real = CostModelSet.fill  # every price is asked for here

    def spy(self, prices, keys, calls, *args, **kwargs):
        asked.update(call.primitive for call in calls)
        return real(self, prices, keys, calls, *args, **kwargs)

    monkeypatch.setattr(CostModelSet, "fill", spy)
    for graph in graphs().values():
        _zoo_prices(CostModelSet(cost_models.device_name, cost_models._models), graph)
    assert {"spmm", "gemm"} <= asked
    assert asked <= set(cost_models.primitives)
    assert not {p for p in asked if p.startswith("spmm_")} - {"spmm_unweighted"}


def test_a_set_saved_with_the_deleted_strategy_primitives_prices_the_same(
    cost_models, tmp_path
):
    # a file from a tree that still priced strategies carries one model per
    # strategy primitive, "spmm_<row>", beside the plain aggregations
    payload = cost_models.to_dict()
    spmm = payload["models"]["spmm"]
    for row in ("blocked", "parallel", "fused"):
        payload["models"][f"spmm_{row}"] = spmm
    old = CostModelSet.from_dict(payload)
    assert len(old.primitives) == len(cost_models.primitives) + 3
    save_cost_models(old, tmp_path / "old.json")
    loaded = load_cost_models(tmp_path / "old.json", device="h100", scale="small")
    assert loaded.primitives == old.primitives
    fresh = CostModelSet(cost_models.device_name, cost_models._models)
    for graph in graphs().values():
        assert _zoo_prices(loaded, graph) == _zoo_prices(fresh, graph), graph.name


def test_the_index_table_is_bounded_over_200_sizes(cost_models):
    graph = rmat(300, 6, seed=3)
    layer = build_layer("gcn", 32, 16, rng=np.random.default_rng(0))
    engine = engine_for(cost_models)
    compiled = engine.compile_for(layer, graph)
    first = decision(engine.select(compiled, Graph(graph.adj), layer))
    env = engine.shape_env(graph, layer)
    plans = [p.plan for p in compiled.viable(32, 16)]
    assert len(plans) > 1 and plans[0]._indexes
    for i in range(200):
        env_i = _env_with(env, env["N"] + 1 + i)
        price_index(plans, env_i, env_key(env_i), "indptr", False)
    assert len(plans[0]._indexes) <= _VIEWS_KEPT
    assert all(key[1] != env_key(env) for key in plans[0]._indexes)
    assert decision(engine.select(compiled, Graph(graph.adj), layer)) == first


def test_cleared_plans_rebuild_their_index(cost_models):
    graph = rmat(300, 6, seed=3)
    layer = build_layer("tagcn", 32, 16, rng=np.random.default_rng(0))
    engine = engine_for(cost_models)
    compiled = engine.compile_for(layer, graph)
    want = decision(engine.select(compiled, Graph(graph.adj), layer))
    clear_memos(compiled)
    assert decision(engine.select(compiled, Graph(graph.adj), layer)) == want
    key = env_key(engine.shape_env(graph, layer))
    viable = compiled.viable(32, 16)
    assert len(viable) > 1
    for planned in viable:  # each priced from a view derived again
        assert key in planned.plan._views


def test_no_index_rides_in_a_pickle(cost_models):
    graph = erdos_renyi(200, 5, seed=5)
    layer = build_layer("tagcn", 32, 16, rng=np.random.default_rng(0))
    engine = engine_for(cost_models, mode="training")
    compiled = engine.compile_for(layer, graph)
    want = decision(engine.select(compiled, Graph(graph.adj), layer))
    assert any(p.plan._indexes for p in compiled.promoted)
    blob = pickle.dumps(compiled)
    assert b"PriceIndex" not in blob and b"_indexes" not in blob
    restored = pickle.loads(blob)
    assert isinstance(restored, CompiledModel)
    assert not any(p.plan._indexes for p in restored.promoted)
    assert decision(engine.select(restored, Graph(graph.adj), layer)) == want


def test_concurrent_first_selections_agree(cost_models):
    graph = rmat(300, 6, seed=3)
    layer = build_layer("tagcn", 32, 16, rng=np.random.default_rng(0))
    compiled = engine_for(cost_models).compile_for(layer, graph)
    clear_memos(compiled)  # every index and view is built by the threads
    barrier = threading.Barrier(8)
    got, errors = [None] * 8, []

    def worker(k):
        try:
            engine = engine_for(cost_models, MODES[k % 2])
            barrier.wait(timeout=60.0)
            got[k] = decision(engine.select(compiled, Graph(graph.adj), layer))
        except Exception as exc:  # surfaced below, on the test thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for k, mode in enumerate(MODES):
        want = decision(engine_for(cost_models, mode).select(
            compiled, Graph(graph.adj), layer
        ))
        assert all(report == want for report in got[k::2])


def test_index_rows_list_each_views_calls_in_order(cost_models):
    graph = rmat(300, 6, seed=3)
    layer = build_layer("tagcn", 32, 16, rng=np.random.default_rng(0))
    for mode in MODES:
        engine = engine_for(cost_models, mode)
        compiled = engine.compile_for(layer, graph)
        env = engine.shape_env(graph, layer)
        plans = [p.plan for p in compiled.viable(32, 16)]
        training = mode == "training"
        dm = engine.system.degree_method
        index = price_index(plans, env, None, dm, training)
        for i, view in enumerate(index.views):
            setup, per_iter = view.pairs(dm)
            lists = [per_iter, setup] + ([view.backward_pairs()] if training else [])
            for block, pairs in enumerate(lists):
                row = index.matrix[block * len(plans) + i]
                assert [index.keys[s] for s in row if s] == [k for k, _ in pairs]


def test_one_plan_pricing_is_the_call_by_call_sum(cost_models):
    graph = erdos_renyi(200, 5, seed=5)
    layer = build_layer("tagcn", 32, 16, rng=np.random.default_rng(0))
    engine = engine_for(cost_models, mode="training")
    compiled = engine.compile_for(layer, graph)
    clear_memos(compiled)
    env = engine.shape_env(graph, layer)
    vec = featurize_graph(graph)
    plans = [p.plan for p in compiled.viable(32, 16)]
    got = [engine.predict_plan_cost(plan, env, vec) for plan in plans]
    strategies = [engine.select_spmm_strategy(plan, env, vec) for plan in plans]
    assert repr(got) == repr(_reference_costs(engine, plans, env, vec))
    assert set(strategies) == {"row_segment"}
