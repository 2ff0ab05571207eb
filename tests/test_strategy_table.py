"""The SpMM strategy table's contract, one parametrised case per row.

``repro.kernels.spmm.SPMM_STRATEGY_TABLE`` is the only place a strategy
is described; these tests pin what every consumer relies on: each row is
bitwise-equal to the reference, the guard ladder follows the row's
demotion chain, exactly the priced rows are auto-selectable, and a name
outside the table is rejected everywhere a strategy can be named.
"""

import numpy as np
import pytest

from repro.core import GraniiEngine
from repro.core.features import featurize_graph
from repro.core.verify import adversarial_battery
from repro.errors import GraniiConfigError
from repro.graphs import load
from repro.kernels import (
    PRICED_STRATEGIES,
    SPMM_STRATEGIES,
    SPMM_STRATEGY_TABLE,
    default_spmm_strategy,
    demotion_chain,
    get_semiring,
    gspmm,
)
from repro.models import GCNLayer

ROWS = pytest.mark.parametrize("row", SPMM_STRATEGY_TABLE, ids=lambda r: r.name)
PRICED_NAMES = {row.name for row in PRICED_STRATEGIES.values()}


@pytest.fixture(scope="module")
def graph():
    return load("CA", "small")


def engine_for(strategy="auto"):
    # shares the process-wide cost-model cache; scale=small keeps it fast
    engine = GraniiEngine(
        device="h100", scale="small", spmm_strategy=strategy,
        num_threads=2, num_workers=2,
    )
    engine.cost_models  # auto only consults models already materialised
    return engine


def select(engine, graph, k1=64, k2=32):
    layer = GCNLayer(k1, k2, rng=np.random.default_rng(0))
    return layer, engine.select(engine.compile_for(layer), graph, layer)


def test_table_is_the_strategy_namespace():
    assert SPMM_STRATEGIES == tuple(row.name for row in SPMM_STRATEGY_TABLE)
    assert len(set(SPMM_STRATEGIES)) == len(SPMM_STRATEGIES)
    assert SPMM_STRATEGIES[0] == "row_segment"
    assert SPMM_STRATEGY_TABLE[0].demotes_to is None


@ROWS
@pytest.mark.parametrize("names", [("sum", "mul"), ("mean", "copy_rhs"), ("max", "add")])
def test_row_bitwise_equal_to_row_segment(row, names):
    semiring = get_semiring(*names)
    rng = np.random.default_rng(11)
    for g in adversarial_battery(quick=True):
        adj = g.adj.with_values(rng.standard_normal(g.adj.nnz))
        x = rng.standard_normal((adj.shape[1], 5))
        ref = gspmm(adj, x, semiring, strategy="row_segment")
        out = gspmm(
            adj, x, semiring, strategy=row.name,
            block_nnz=16, num_threads=2, num_workers=2,
        )
        assert np.array_equal(out, ref), (g.name, row.name)


@ROWS
def test_guard_rungs_follow_the_demotion_chain(row, graph):
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


def test_auto_prices_row_segment_plus_exactly_the_priced_rows(graph):
    engine = engine_for()
    _, selection = select(engine, graph)
    assert set(selection.strategy_costs) == {"row_segment"} | PRICED_NAMES
    assert selection.spmm_strategy in selection.strategy_costs
    trained = set(engine.cost_models.primitives)
    assert set(PRICED_STRATEGIES) <= trained
    # an unpriced row has no model under any name (spmm_sharded's old
    # primitive carried the strategy's own name)
    assert not (set(SPMM_STRATEGIES) - PRICED_NAMES) & trained


@ROWS
def test_unpriced_row_is_pin_only(row, graph):
    layer, selection = select(engine_for(row.name), graph, 16, 8)
    assert selection.spmm_strategy == row.name  # pinned: always reachable
    if row.name in PRICED_NAMES or row.demotes_to is None:
        return
    auto = engine_for()
    chosen, costs = auto.select_spmm_strategy(
        selection.chosen.plan, auto.shape_env(graph, layer), featurize_graph(graph)
    )
    assert chosen != row.name and row.name not in costs
    # it still runs when pinned, agreeing with the baseline forward
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
