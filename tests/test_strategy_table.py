"""The SpMM strategy table's contract, one parametrised case per row.

``repro.kernels.spmm.SPMM_STRATEGY_TABLE`` is the only place a strategy
is described; these tests pin what every consumer relies on: each row is
bitwise-equal to the reference, the guard ladder follows the row's
demotion chain, no row is priced (the fold runs unless a row is pinned),
and a name outside the table is rejected everywhere a strategy can be
named.  One more case runs the fold split across worker spans: it is no
row of its own, so it must behave as ``row_segment`` does.
"""

import numpy as np
import pytest

from repro.core import GraniiEngine
from repro.core.features import featurize_graph
from repro.core.verify import adversarial_battery
from repro.errors import GraniiConfigError
from repro.graphs import load
from repro.kernels import (
    PRIMITIVES,
    SPMM_STRATEGIES,
    SPMM_STRATEGY_TABLE,
    default_spmm_strategy,
    demotion_chain,
    get_semiring,
    gspmm,
)
from repro.models import GCNLayer

from helpers import spmm_cases, strategy_for_case

CASES = pytest.mark.parametrize("case", spmm_cases())


@pytest.fixture(scope="module")
def graph():
    return load("CA", "small")


def engine_for(strategy="row_segment"):
    # shares the process-wide cost-model cache; scale=small keeps it fast
    return GraniiEngine(device="h100", scale="small", spmm_strategy=strategy)


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
    assert SPMM_STRATEGY_TABLE[0].demotes_to is None


def test_the_process_pool_row_is_gone():
    assert SPMM_STRATEGIES == ("row_segment", "blocked", "spmm_fused")
    with pytest.raises(ValueError) as exc:
        GraniiEngine(spmm_strategy="spmm_sharded")
    for name in SPMM_STRATEGIES:
        assert name in str(exc.value)
    with pytest.raises(ValueError, match="unknown strategy"):
        gspmm(np.zeros((0, 0)), np.zeros((0, 1)), strategy="spmm_sharded")


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


@CASES
def test_guard_rungs_follow_the_demotion_chain(case, graph, monkeypatch):
    row = row_for(case, monkeypatch)
    chain = demotion_chain(row.name)
    assert chain[0] == row.name and chain[-1] == "row_segment"
    assert len(set(chain)) == len(chain)
    engine = engine_for(row.name)
    layer, selection = select(engine, graph)
    executor = engine.make_executor(
        layer, selection.chosen, selection.spmm_strategy,
        selection=selection, guarded=True,
    )
    own_plan = [s for planned, s in executor.rungs if planned is selection.chosen]
    assert tuple(own_plan) == chain
    assert all(s == "row_segment" for _, s in executor.rungs[len(chain):])


def test_no_row_is_priced(graph):
    engine = engine_for()
    layer, selection = select(engine, graph)
    assert selection.spmm_strategy == "row_segment"
    assert selection.strategy_costs == {}
    assert engine.select_spmm_strategy(
        selection.chosen.plan, engine.shape_env(graph, layer), featurize_graph(graph)
    ) == "row_segment"
    # no cost primitive beyond the plain aggregations names an SpMM row
    spmm_like = {p for p in PRIMITIVES if p.startswith("spmm")}
    assert spmm_like == {"spmm", "spmm_unweighted"}
    assert not spmm_like & set(SPMM_STRATEGIES)


@CASES
def test_unpriced_row_is_pin_only(case, graph, monkeypatch):
    row = row_for(case, monkeypatch)
    layer, selection = select(engine_for(row.name), graph, 16, 8)
    assert selection.spmm_strategy == row.name  # pinned: always reachable
    if row.demotes_to is None and case == row.name:
        return
    default = engine_for()
    chosen = default.select_spmm_strategy(
        selection.chosen.plan, default.shape_env(graph, layer), featurize_graph(graph)
    )
    # nothing but the fold is ever chosen; a split fold is that same choice
    assert chosen == "row_segment"
    # it still runs when pinned (or split), agreeing with the baseline forward
    engine_for(row.name).optimize(layer, graph)
    feat = np.random.default_rng(1).standard_normal((graph.num_nodes, 16))
    out = layer(graph, feat)
    layer.detach_executor()
    assert np.allclose(out.data, layer(graph, feat).data)


def test_a_name_outside_the_table_is_rejected_everywhere(monkeypatch):
    adj = adversarial_battery(quick=True)[-1].adj
    with pytest.raises(ValueError, match="gather_scatter"):
        gspmm(adj, np.ones((adj.shape[1], 2)), strategy="gather_scatter")
    with pytest.raises(ValueError):
        GraniiEngine(spmm_strategy="gather_scatter")
    monkeypatch.setenv("REPRO_SPMM_STRATEGY", "gather_scatter")
    with pytest.raises(GraniiConfigError, match="REPRO_SPMM_STRATEGY"):
        default_spmm_strategy()


# the deleted row's name is spelt in two pieces so that it appears
# nowhere in the tree as a word
@pytest.mark.parametrize("name", ["blocked" + "_parallel", "auto"])
def test_a_deleted_name_is_rejected(name, monkeypatch):
    with pytest.raises(ValueError, match="must be one of"):
        GraniiEngine(spmm_strategy=name)
    monkeypatch.setenv("REPRO_SPMM_STRATEGY", name)
    with pytest.raises(GraniiConfigError, match="REPRO_SPMM_STRATEGY"):
        default_spmm_strategy()
