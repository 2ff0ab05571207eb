"""Cross-feature integration scenarios.

Each test exercises several subsystems together the way a downstream
user would: GRANII + training + persistence, fusion + containers,
memory limits + weighted graphs, sampling + per-size decisions.
"""

import numpy as np
import pytest

from repro.core import (
    GraniiEngine,
    compile_model,
    load_cost_models,
    save_cost_models,
)
from repro.core.costmodel import get_cost_models
from repro.graphs import load, make_node_features, sample_fanout
from repro.graphs.graph import Graph
from repro.models import (
    GATLayer,
    GCNLayer,
    GNNStack,
    MultiLayerGNN,
)
from repro.tensor import Adam, Tensor, cross_entropy


@pytest.fixture(scope="module")
def graph():
    return load("CA", "small")


class TestTrainThenPersistThenReload:
    def test_full_lifecycle(self, graph, tmp_path, rng):
        feats, labels = make_node_features(graph, dim=16, seed=9, num_classes=4)
        model = MultiLayerGNN("gcn", [16, 24, 4], rng=rng)
        # 1. optimize with GRANII and train
        engine = GraniiEngine(device="h100", scale="small")
        engine.optimize(model, graph, feats)
        opt = Adam(model.parameters(), lr=0.02)
        x = Tensor(feats)
        for _ in range(10):
            opt.zero_grad()
            loss = cross_entropy(model(graph, x), labels)
            loss.backward()
            opt.step()
        trained_out = model(graph, x).data
        # 2. persist the cost models and the weights
        models = get_cost_models("h100", scale="small")
        save_cost_models(models, tmp_path / "cm.json")
        state = model.state_dict()
        # 3. a fresh process-equivalent: reload both, re-optimize, compare
        restored_models = load_cost_models(tmp_path / "cm.json")
        fresh = MultiLayerGNN("gcn", [16, 24, 4], rng=np.random.default_rng(1))
        fresh.load_state_dict(state)
        engine2 = GraniiEngine(
            device="h100", scale="small", cost_models=restored_models
        )
        engine2.optimize(fresh, graph, feats)
        assert np.allclose(fresh(graph, x).data, trained_out, atol=1e-8)


class TestFusionInContainers:
    def test_stack_with_fused_gat_selection(self, graph, rng):
        # fused candidates selected inside a heterogeneous stack still
        # produce identical outputs
        stack = GNNStack([
            GCNLayer(16, 32, rng=rng),
            GATLayer(32, 8, rng=rng),
        ])
        feats = rng.standard_normal((graph.num_nodes, 16))
        baseline = stack(graph, feats)
        engine = GraniiEngine(device="h100", scale="small")
        # manually attach a fused-aware selection to the GAT layer
        gat = stack.layers[1]
        compiled = compile_model("gat", fusion=True)
        selection = engine.select(compiled, graph, gat)
        gat.attach_executor(engine.make_executor(gat, selection.chosen))
        out = stack(graph, feats)
        assert np.allclose(out.data, baseline.data, atol=1e-8)


class TestMemoryLimitWithWeightedGraph:
    def test_combined(self, rng):
        base = load("BL", "small")
        weighted = Graph(
            base.adj.with_values(rng.random(base.adj.nnz) + 0.5),
            name="weighted_bl",
        )
        layer = GCNLayer(16, 8, rng=rng)
        engine = GraniiEngine(
            device="h100", scale="small", memory_limit_bytes=1e12
        )
        report = engine.optimize(layer, weighted, rng.standard_normal((weighted.num_nodes, 16)))
        sel = report.selections[0]
        assert sel.peak_memory_bytes > 0
        # weighted compile: no pattern-only aggregation anywhere
        assert "spmm_unweighted" not in sel.chosen.plan.primitives


class TestSampledDecisionsEndToEnd:
    def test_decision_per_fanout_runs_model(self, rng):
        graph = load("MC", "small")
        feats, _ = make_node_features(graph, dim=12, seed=2)
        engine = GraniiEngine(device="h100", scale="small")
        for fanout in (50, 5):
            sub = sample_fanout(graph, fanout, rng)
            sub.node_features = feats
            layer = GCNLayer(12, 6, rng=rng)
            baseline = layer(sub, feats)
            engine.optimize(layer, sub, feats)
            accel = layer(sub, feats)
            assert np.allclose(accel.data, baseline.data, atol=1e-8)
