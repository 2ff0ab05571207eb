"""The SpMM strategy table's contract, one parametrised case per row.

``repro.kernels.spmm.SPMM_STRATEGY_TABLE`` is the only place a strategy
is described; these tests pin what every consumer relies on: each row is
bitwise-equal to the reference, no row is priced or pinned (every
selection and every guard rung runs the fold), an unguarded executor
still runs any row, the guard's ladder walks the ranked plans in order,
no engine or service option pins a row, and a name outside the table is
rejected everywhere a strategy can be named.  One more case runs the fold split across
worker spans: it is no row of its own, so it must behave as
``row_segment`` does.
"""

import numpy as np
import pytest

from repro.core import GraniiEngine
from repro.core.features import featurize_graph
from repro.core.verify import adversarial_battery
from repro.faults import FaultInjected
from repro.graphs import load
from repro.kernels import (
    PRIMITIVES,
    SPMM_STRATEGIES,
    SPMM_STRATEGY_TABLE,
    get_semiring,
    gspmm,
    spmm_strategy,
)
from repro.models import GCNLayer, build_layer
from repro.tensor import Tensor, no_grad

from helpers import spmm_cases, strategy_for_case

CASES = pytest.mark.parametrize("case", spmm_cases())


@pytest.fixture(scope="module")
def graph():
    return load("CA", "small")


def engine_for(**kwargs):
    # shares the process-wide cost-model cache; scale=small keeps it fast
    return GraniiEngine(device="h100", scale="small", **kwargs)


def row_for(case, monkeypatch):
    """The table row a case runs (the split case forces the worker split)."""
    name = strategy_for_case(case, monkeypatch)
    return SPMM_STRATEGY_TABLE[SPMM_STRATEGIES.index(name)]


def select(engine, graph, k1=64, k2=32):
    layer = GCNLayer(k1, k2, rng=np.random.default_rng(0))
    return layer, engine.select(engine.compile_for(layer), graph, layer)


def test_table_is_the_strategy_namespace():
    assert SPMM_STRATEGIES == tuple(row.name for row in SPMM_STRATEGY_TABLE)
    assert len(set(SPMM_STRATEGIES)) == len(SPMM_STRATEGIES)
    assert SPMM_STRATEGIES[0] == "row_segment"


@pytest.mark.parametrize("deleted", ["spmm_sharded", "spmm_fused"])
def test_a_deleted_row_is_rejected(deleted):
    assert SPMM_STRATEGIES == ("row_segment", "blocked")
    with pytest.raises(ValueError) as exc:
        spmm_strategy(deleted)
    for name in SPMM_STRATEGIES:
        assert name in str(exc.value)
    with pytest.raises(ValueError, match="unknown strategy"):
        gspmm(np.zeros((0, 0)), np.zeros((0, 1)), strategy=deleted)


def test_the_kept_stub_is_two_no_ops():
    import repro.kernels
    from repro.kernels.sharded import release_segments, shutdown_pool

    assert release_segments() is None
    assert shutdown_pool() is None
    assert not hasattr(repro.kernels, "sharded_pool")
    assert "release_segments" not in repro.kernels.__all__


@CASES
@pytest.mark.parametrize("names", [("sum", "mul"), ("mean", "copy_rhs"), ("max", "add")])
def test_row_bitwise_equal_to_row_segment(case, names, monkeypatch):
    semiring = get_semiring(*names)
    rng = np.random.default_rng(11)
    inputs = []
    for g in adversarial_battery(quick=True):
        adj = g.adj.with_values(rng.standard_normal(g.adj.nnz))
        x = rng.standard_normal((adj.shape[1], 5))
        # the reference is the one-span fold, taken before any split is forced
        inputs.append((g.name, adj, x, gspmm(adj, x, semiring, strategy="row_segment")))
    row = row_for(case, monkeypatch)
    for name, adj, x, ref in inputs:
        out = gspmm(adj, x, semiring, strategy=row.name, block_nnz=16)
        assert np.array_equal(out, ref), (name, case)


def guarded_sgc(graph):
    """A guarded sgc executor: its selection ranks six plans."""
    engine = engine_for()
    layer = build_layer("sgc", 16, 8, rng=np.random.default_rng(0))
    selection = engine.select(engine.compile_for(layer), graph, layer)
    executor = engine.make_executor(
        layer, selection.chosen, selection=selection, guarded=True,
    )
    return layer, selection, executor


def rung_labels(executor):
    return [executor._rung_label(i) for i in range(len(executor.rungs) + 1)]


# the zoo models whose selection on CA ranks at least three plans
@pytest.mark.parametrize("model", ["sgc", "tagcn", "appnp"])
def test_guard_ladder_is_the_ranked_plans_then_reference(model, graph):
    engine = engine_for()
    layer = build_layer(model, 64, 32, rng=np.random.default_rng(0))
    selection = engine.select(engine.compile_for(layer), graph, layer)
    assert len(selection.ranked) >= 3
    executor = engine.make_executor(
        layer, selection.chosen, selection=selection, guarded=True,
    )
    survivors = [p for p in selection.ranked if p is not selection.chosen]
    assert rung_labels(executor) == [
        f"{p.label}#{p.plan.name}@row_segment"
        for p in [selection.chosen] + survivors
    ] + ["reference"]


def test_a_failed_rung_hands_over_to_the_next_plan(graph, monkeypatch):
    """The chosen plan fails: the cheapest survivor serves the call, on
    ``row_segment``, and one demotion names both rungs."""
    import repro.core.guard as guard_mod

    layer, selection, executor = guarded_sgc(graph)
    real = guard_mod.execute_plan
    ran = []

    def chosen_fails(engine, layer, plan, strategy, *args, **kwargs):
        ran.append((plan.name, strategy))
        if plan is selection.chosen.plan:
            raise FaultInjected("injected raise in the chosen plan")
        return real(engine, layer, plan, strategy, *args, **kwargs)

    monkeypatch.setattr(guard_mod, "execute_plan", chosen_fails)
    feat = np.random.default_rng(3).standard_normal((graph.num_nodes, 16))
    mp = layer.as_mp_graph(graph)
    with no_grad():
        out = executor(mp, Tensor(feat))
        baseline = layer.forward(mp, Tensor(feat))
    assert np.allclose(out.data, baseline.data)
    labels = rung_labels(executor)
    assert executor.rung == 1
    assert [(d.from_label, d.to_label, d.reason) for d in selection.demotions] == [
        (labels[0], labels[1], "kernel_error")
    ]
    assert ran == [
        (selection.chosen.plan.name, "row_segment"),
        (executor.rungs[1].plan.name, "row_segment"),
    ]


def test_every_plan_rung_failing_walks_the_ladder_in_order(graph, monkeypatch):
    """Each plan rung fails once, in ladder order, before the reference
    serves the call; none is tried twice."""
    import repro.core.guard as guard_mod

    layer, selection, executor = guarded_sgc(graph)
    tried = []

    def every_plan_fails(engine, layer, plan, strategy, *args, **kwargs):
        tried.append(plan)
        raise FaultInjected("injected raise in every plan")

    monkeypatch.setattr(guard_mod, "execute_plan", every_plan_fails)
    feat = np.random.default_rng(4).standard_normal((graph.num_nodes, 16))
    mp = layer.as_mp_graph(graph)
    with no_grad():
        out = executor(mp, Tensor(feat))
        baseline = layer.forward(mp, Tensor(feat))
    assert np.allclose(out.data, baseline.data)
    assert executor.on_reference
    assert tried == [p.plan for p in executor.rungs]
    labels = rung_labels(executor)
    assert [(d.from_label, d.to_label) for d in selection.demotions] == list(
        zip(labels, labels[1:])
    )


def test_a_guarded_executor_runs_row_segment_only(graph):
    engine = engine_for()
    layer, selection = select(engine, graph)
    with pytest.raises(ValueError, match="row_segment"):
        engine.make_executor(
            layer, selection.chosen, "blocked", selection=selection,
            guarded=True,
        )


def test_no_row_is_priced(graph):
    engine = engine_for()
    layer, selection = select(engine, graph)
    assert selection.spmm_strategy == "row_segment"
    assert engine.select_spmm_strategy(
        selection.chosen.plan, engine.shape_env(graph, layer), featurize_graph(graph)
    ) == "row_segment"
    # no cost primitive beyond the plain aggregations names an SpMM row
    spmm_like = {p for p in PRIMITIVES if p.startswith("spmm")}
    assert spmm_like == {"spmm", "spmm_unweighted"}
    assert not spmm_like & set(SPMM_STRATEGIES)


@CASES
def test_an_unguarded_executor_runs_any_row(case, graph, monkeypatch):
    layer, selection = select(engine_for(), graph, 16, 8)
    assert selection.spmm_strategy == "row_segment"  # nothing else is chosen
    row = row_for(case, monkeypatch)
    executor = engine_for().make_executor(
        layer, selection.chosen, row.name, guarded=False
    )
    feat = np.random.default_rng(1).standard_normal((graph.num_nodes, 16))
    mp = layer.as_mp_graph(graph)
    with no_grad():
        out = executor(mp, Tensor(feat))
        baseline = layer.forward(mp, Tensor(feat))
    assert np.allclose(out.data, baseline.data)


@pytest.mark.parametrize("model", ["gcn", "gin", "sgc", "tagcn", "gat"])
def test_the_strategy_env_var_changes_nothing(model, graph, monkeypatch):
    """``REPRO_SPMM_STRATEGY`` is gone: a zoo selection and its output are
    bitwise the same with it set."""
    feat = np.random.default_rng(2).standard_normal((graph.num_nodes, 16))

    def run():
        layer = build_layer(model, 16, 8, rng=np.random.default_rng(0))
        sel = engine_for().optimize(layer, graph).selections[0]
        with no_grad():
            out = layer(graph, feat)
        return (sel.label, sel.chosen.plan.name, sel.spmm_strategy,
                sel.predicted_costs, np.asarray(out.data).tobytes())

    before = run()
    monkeypatch.setenv("REPRO_SPMM_STRATEGY", "blocked")
    assert run() == before


def test_a_name_outside_the_table_is_rejected_everywhere(graph):
    adj = adversarial_battery(quick=True)[-1].adj
    with pytest.raises(ValueError, match="gather_scatter"):
        gspmm(adj, np.ones((adj.shape[1], 2)), strategy="gather_scatter")
    engine = engine_for()
    layer, selection = select(engine, graph, 16, 8)
    executor = engine.make_executor(
        layer, selection.chosen, "gather_scatter", guarded=False
    )
    feat = Tensor(np.ones((graph.num_nodes, 16)))
    with pytest.raises(ValueError, match="gather_scatter"):
        executor(layer.as_mp_graph(graph), feat)
    with pytest.raises(ValueError, match="row_segment"):
        engine.make_executor(
            layer, selection.chosen, "gather_scatter", guarded=True
        )


# the deleted row's name is spelt in two pieces so that it appears
# nowhere in the tree as a word
@pytest.mark.parametrize("name", ["blocked" + "_parallel", "auto"])
def test_a_deleted_name_is_rejected(name):
    with pytest.raises(ValueError, match="must be one of"):
        spmm_strategy(name)


@pytest.mark.parametrize(
    "option", [("spmm_strategy", "blocked"), ("block_nnz", 64), ("breakers", {})],
    ids=lambda option: option[0],
)
def test_a_removed_engine_option_is_rejected(option):
    name, value = option
    with pytest.raises(TypeError, match=name):
        GraniiEngine(device="h100", scale="small", **{name: value})


def test_the_service_takes_no_strategy():
    from repro.serving import GraniiService

    with pytest.raises(TypeError, match="spmm_strategy"):
        GraniiService(device="h100", scale="small", spmm_strategy="blocked")
