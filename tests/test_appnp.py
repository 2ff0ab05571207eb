"""Tests for the APPNP model and its GRANII integration."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import GraniiEngine, compile_model
from repro.core.bindings import build_binding, model_ir_kwargs, model_ir_name
from repro.graphs import erdos_renyi, load
from repro.models import APPNPLayer, prepare_mp_graph
from repro.tensor import Tensor, no_grad


@pytest.fixture
def graph():
    return erdos_renyi(36, 5, seed=17)


class TestAPPNPModel:
    def test_parameter_validation(self, rng):
        with pytest.raises(ValueError):
            APPNPLayer(4, 2, hops=0, rng=rng)
        with pytest.raises(ValueError):
            APPNPLayer(4, 2, alpha=1.0, rng=rng)

    def test_compositions_equivalent(self, graph, rng):
        layer = APPNPLayer(8, 4, hops=3, alpha=0.2, rng=rng)
        g = prepare_mp_graph(graph)
        feat = Tensor(rng.standard_normal((36, 8)))
        engine = GraniiEngine()
        compiled = engine.compile_for(layer)
        dynamic = compiled.find(norm="dynamic")[0]
        precompute = compiled.find(norm="precompute")[0]
        assert np.allclose(
            engine.make_executor(layer, dynamic, guarded=False)(g, feat).data,
            engine.make_executor(layer, precompute, guarded=False)(g, feat).data,
            atol=1e-10,
        )

    def test_matches_closed_form(self, graph, rng):
        layer = APPNPLayer(6, 3, hops=2, alpha=0.15, rng=rng)
        g = prepare_mp_graph(graph)
        feat = Tensor(rng.standard_normal((36, 6)))
        adj = g.adj.to_dense()
        d_is = np.diag(adj.sum(axis=1) ** -0.5)
        nadj = d_is @ adj @ d_is
        z0 = feat.data @ layer.linear.weight.data
        z = z0
        for _ in range(2):
            z = 0.85 * (nadj @ z) + 0.15 * z0
        assert np.allclose(layer(g, feat).data, z, atol=1e-10)

    def test_alpha_zero_is_pure_propagation(self, graph, rng):
        layer = APPNPLayer(5, 2, hops=2, alpha=0.0, rng=rng)
        g = prepare_mp_graph(graph)
        feat = Tensor(rng.standard_normal((36, 5)))
        adj = g.adj.to_dense()
        d_is = np.diag(adj.sum(axis=1) ** -0.5)
        nadj = d_is @ adj @ d_is
        expected = np.linalg.matrix_power(nadj, 2) @ feat.data @ layer.linear.weight.data
        assert np.allclose(layer(g, feat).data, expected, atol=1e-10)

    def test_gradients_flow(self, graph, rng):
        layer = APPNPLayer(6, 3, rng=rng)
        g = prepare_mp_graph(graph)
        layer(g, Tensor(rng.standard_normal((36, 6)))).sum().backward()
        assert np.abs(layer.linear.weight.grad).max() > 0


class TestAPPNPCompilation:
    def test_registered(self, rng):
        layer = APPNPLayer(8, 4, hops=3, rng=rng)
        assert model_ir_name(layer) == "appnp"
        assert model_ir_kwargs(layer) == {"hops": 3}

    def test_promoted_plans_match_baseline(self, graph, rng):
        layer = APPNPLayer(8, 4, hops=2, alpha=0.1, rng=rng)
        g = prepare_mp_graph(graph)
        feat = Tensor(rng.standard_normal((36, 8)))
        base = layer.forward(g, feat).data
        compiled = compile_model("appnp", hops=2)
        assert len(compiled.promoted) >= 2
        for planned in compiled.promoted:
            for tape in (False, True):
                binding = build_binding(layer, g, feat)
                with nullcontext() if tape else no_grad():
                    out = planned.plan.execute(binding)
                assert np.allclose(out.data, base, atol=1e-8), (planned.label, tape)

    def test_precompute_variant_exists_with_setup(self):
        compiled = compile_model("appnp", hops=2)
        pre = compiled.find(norm="precompute")
        assert pre
        assert any(
            s.primitive == "sddmm_diag" for s in pre[0].plan.setup_steps
        )

    def test_runtime_end_to_end(self, rng):
        graph = load("BL", "small")
        layer = APPNPLayer(32, 16, hops=2, rng=rng)
        feats = rng.standard_normal((graph.num_nodes, 32))
        baseline = layer(graph, feats)
        engine = GraniiEngine(device="h100", scale="small")
        report = engine.optimize(layer, graph, feats)
        accel = layer(graph, feats)
        assert np.allclose(accel.data, baseline.data, atol=1e-8)
        assert report.selections[0].model_name == "appnp"
