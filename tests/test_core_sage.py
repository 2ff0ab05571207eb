"""GRANII support for GraphSAGE (the §VI-E extension model)."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import GraniiEngine, compile_model
from repro.core.bindings import build_binding, model_ir_kwargs, model_ir_name
from repro.framework import MPGraph
from repro.graphs import erdos_renyi, load
from repro.models import SAGELayer, uses_self_loops
from repro.tensor import Tensor, no_grad


@pytest.fixture
def layer(rng):
    return SAGELayer(8, 4, rng=rng)


@pytest.fixture
def graph():
    return erdos_renyi(36, 5, seed=11)


class TestSageCompilation:
    def test_ir_registered(self, layer):
        assert model_ir_name(layer) == "sage"
        assert model_ir_kwargs(layer) == {"activation": True}
        assert not uses_self_loops("sage")

    def test_promoted_structure(self):
        compiled = compile_model("sage")
        assert len(compiled.promoted) == 4
        tags = {(p.tags["norm"], p.tags["order"]) for p in compiled.promoted}
        assert tags == {
            ("dynamic", "agg_first"),
            ("dynamic", "update_first"),
            ("precompute", "agg_first"),
            ("precompute", "update_first"),
        }

    def test_precompute_materialises_mean_adjacency(self):
        compiled = compile_model("sage")
        planned = compiled.find(norm="precompute")[0]
        assert any(s.primitive == "sddmm_diag" for s in planned.plan.setup_steps)


class TestSageExecution:
    def test_all_plans_match_baseline(self, layer, graph, rng):
        g = MPGraph(graph.adj)
        feat = Tensor(rng.standard_normal((graph.num_nodes, 8)))
        base = layer.forward(g, feat).data
        compiled = compile_model("sage")
        for planned in compiled.promoted:
            for tape in (False, True):
                binding = build_binding(layer, g, feat)
                with nullcontext() if tape else no_grad():
                    out = planned.plan.execute(binding)
                assert np.allclose(out.data, base, atol=1e-9), (planned.label, tape)

    def test_gradients_match_baseline(self, layer, graph, rng):
        g = MPGraph(graph.adj)
        feat = Tensor(rng.standard_normal((graph.num_nodes, 8)))
        layer.zero_grad()
        layer.forward(g, feat).sum().backward()
        base_grads = {n: p.grad.copy() for n, p in layer.named_parameters()}
        compiled = compile_model("sage")
        for planned in compiled.promoted:
            layer.zero_grad()
            binding = build_binding(layer, g, feat)
            planned.plan.execute(binding).sum().backward()
            for n, p in layer.named_parameters():
                assert np.allclose(p.grad, base_grads[n], atol=1e-8), (planned.label, n)

    def test_runtime_end_to_end(self, rng):
        graph = load("CA", "small")
        layer = SAGELayer(32, 16, rng=rng)
        feats = rng.standard_normal((graph.num_nodes, 32))
        baseline = layer(graph, feats)
        engine = GraniiEngine(device="h100", scale="small")
        report = engine.optimize(layer, graph, feats)
        accel = layer(graph, feats)
        assert np.allclose(accel.data, baseline.data, atol=1e-8)
        assert report.selections[0].model_name == "sage"
