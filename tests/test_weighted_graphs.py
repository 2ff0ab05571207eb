"""GRANII on weighted input graphs (Table I's `weighted` sub-attribute).

For weighted graphs the cheap pattern-only aggregation of Appendix B is
illegal: the adjacency leaf compiles as sparse.weighted, the enumerator
emits `spmm` instead of `spmm_unweighted`, and the normalization uses
weighted degrees.
"""

import numpy as np
import pytest

from repro.core import GraniiEngine, compile_model
from repro.core.bindings import build_binding
from repro.framework import MPGraph
from repro.graphs import erdos_renyi
from repro.graphs.graph import Graph
from repro.models import GCNLayer
from repro.tensor import Tensor, no_grad


@pytest.fixture
def weighted_graph(rng):
    base = erdos_renyi(40, 6, seed=23)
    weights = rng.random(base.adj.nnz) + 0.1
    return Graph(base.adj.with_values(weights), name="weighted_er")


class TestWeightedCompilation:
    def test_weighted_ir_drops_pattern_fast_path(self):
        weighted = compile_model("gcn", weighted=True)
        unweighted = compile_model("gcn")
        assert all(
            "spmm_unweighted" not in p.plan.primitives
            for p in weighted.promoted
        )
        assert any(
            "spmm_unweighted" in p.plan.primitives
            for p in unweighted.promoted
        )

    def test_engine_detects_weighted_input(self, weighted_graph, rng):
        engine = GraniiEngine(device="h100", scale="small")
        layer = GCNLayer(8, 4, rng=rng)
        compiled = engine.compile_for(layer, weighted_graph)
        assert all(
            "spmm_unweighted" not in p.plan.primitives
            for p in compiled.promoted
        )
        plain = engine.compile_for(layer, erdos_renyi(20, 4, seed=1))
        assert any(
            "spmm_unweighted" in p.plan.primitives for p in plain.promoted
        )


class TestWeightedExecution:
    def _closed_form(self, graph: Graph, layer: GCNLayer, feat: np.ndarray):
        adj = graph.adj_with_self_loops()
        dense = adj.to_dense()
        deg = dense.sum(axis=1)  # weighted degrees
        d_is = np.diag(np.where(deg > 0, deg ** -0.5, 0.0))
        out = d_is @ dense @ d_is @ feat @ layer.linear.weight.data
        return np.maximum(out, 0.0)

    def test_all_weighted_plans_match_closed_form(self, weighted_graph, rng):
        layer = GCNLayer(6, 3, rng=rng)
        feat = rng.standard_normal((40, 6))
        expected = self._closed_form(weighted_graph, layer, feat)
        g = MPGraph(weighted_graph.adj_with_self_loops())
        compiled = compile_model("gcn", weighted=True)
        for planned in compiled.promoted:
            binding = build_binding(layer, g, feat)
            with no_grad():
                out = planned.plan.execute(binding)
            assert np.allclose(out.data, expected, atol=1e-9), planned.label

    def test_weighted_tensor_mode_gradients(self, weighted_graph, rng):
        layer = GCNLayer(6, 3, rng=rng)
        feat = Tensor(rng.standard_normal((40, 6)))
        g = MPGraph(weighted_graph.adj_with_self_loops())
        compiled = compile_model("gcn", weighted=True)
        grads = []
        for planned in compiled.promoted:
            layer.zero_grad()
            binding = build_binding(layer, g, feat)
            planned.plan.execute(binding).sum().backward()
            grads.append(layer.linear.weight.grad.copy())
        for other in grads[1:]:
            assert np.allclose(other, grads[0], atol=1e-8)

    def test_end_to_end_optimize(self, weighted_graph, rng):
        engine = GraniiEngine(device="h100", scale="small")
        layer = GCNLayer(8, 4, rng=rng)
        feat = rng.standard_normal((40, 8))
        expected = self._closed_form(weighted_graph, layer, feat)
        engine.optimize(layer, weighted_graph, feat)
        out = layer(weighted_graph, feat)
        assert np.allclose(out.data, expected, atol=1e-8)
