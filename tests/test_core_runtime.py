"""End-to-end tests of the GRANII engine and the public entry point."""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.core import GraniiEngine, compile_model
from repro.graphs import erdos_renyi, load, make_node_features
from repro.models import (
    GATLayer,
    GCNLayer,
    GINLayer,
    MultiLayerGNN,
    SGCLayer,
    TAGCNLayer,
)
from repro.tensor import Adam, Tensor, cross_entropy


@pytest.fixture(scope="module")
def engine():
    # shares the process-wide cost-model cache; scale=small keeps it fast
    return GraniiEngine(device="h100", system="dgl", scale="small")


@pytest.fixture(scope="module")
def graph():
    return load("CA", "small")


class TestSelection:
    def test_gcn_selection_runs(self, engine, graph, rng):
        layer = GCNLayer(64, 32, rng=rng)
        report = engine.select(engine.compile_for(layer), graph, layer)
        assert report.scenario == "in_ge_out"
        assert report.viable_count == 2
        assert report.chosen.label
        assert report.feature_seconds >= 0

    def test_single_viable_skips_cost_models(self, engine, graph, rng):
        layer = GATLayer(64, 32, rng=rng)  # shrinking sizes: reuse only
        report = engine.select(engine.compile_for(layer), graph, layer)
        assert report.viable_count == 1
        assert report.predicted_costs == {}

    def test_graph_features_cached(self, engine, graph, rng):
        layer = GCNLayer(64, 32, rng=rng)
        compiled = engine.compile_for(layer)
        engine.select(compiled, graph, layer)
        second = engine.select(compiled, graph, layer)
        assert second.feature_seconds == 0.0

    def test_gat_growing_uses_cost_models(self, engine, graph, rng):
        layer = GATLayer(32, 128, rng=rng)
        report = engine.select(engine.compile_for(layer), graph, layer)
        assert report.viable_count == 2
        assert len(report.predicted_costs) == 2

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            GraniiEngine(mode="profiling")


class TestOptimize:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: GCNLayer(48, 24, rng=rng),
            lambda rng: GINLayer(48, 24, rng=rng),
            lambda rng: SGCLayer(48, 24, hops=2, rng=rng),
            lambda rng: TAGCNLayer(24, 24, hops=2, rng=rng),
            lambda rng: GATLayer(24, 48, rng=rng),
        ],
    )
    def test_accelerated_output_matches_baseline(self, engine, graph, rng, make):
        layer = make(rng)
        feats = rng.standard_normal((graph.num_nodes, layer.in_size))
        baseline = layer(graph, feats)
        report = engine.optimize(layer, graph, feats)
        assert layer.granii_enabled
        accel = layer(graph, feats)
        assert np.allclose(accel.data, baseline.data, atol=1e-8)
        assert len(report.selections) == 1

    def test_multilayer_optimizes_each_layer(self, engine, graph, rng):
        model = MultiLayerGNN("gcn", [32, 64, 16], rng=rng)
        feats = rng.standard_normal((graph.num_nodes, 32))
        baseline = model(graph, feats)
        report = engine.optimize(model, graph, feats)
        assert len(report.selections) == 2
        assert all(layer.granii_enabled for layer in model.layers)
        accel = model(graph, feats)
        assert np.allclose(accel.data, baseline.data, atol=1e-8)
        assert "layer 1" in report.describe()

    def test_training_through_optimized_model(self, engine, graph, rng):
        feats, labels = make_node_features(graph, dim=16, seed=3, num_classes=4)
        model = MultiLayerGNN("gcn", [16, 32, 4], rng=rng)
        engine.optimize(model, graph, feats)
        opt = Adam(model.parameters(), lr=0.02)
        losses = []
        x = Tensor(feats)
        for _ in range(25):
            opt.zero_grad()
            loss = cross_entropy(model(graph, x), labels)
            losses.append(loss.item())
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0] * 0.8

    @pytest.mark.parametrize("guarded", [False, True])
    def test_fresh_graphs_at_recycled_addresses_get_their_own_setup(
        self, engine, guarded
    ):
        # CPython hands a dead graph's address to the next one built, so
        # per-graph executor state must key on the object, never on id()
        layer = GCNLayer(16, 8, rng=np.random.default_rng(0))
        first = erdos_renyi(300, 6, seed=0)
        selection = engine.select(engine.compile_for(layer, first), first, layer)
        executor = engine.make_executor(
            layer, selection.chosen, selection.spmm_strategy,
            selection=selection, guarded=guarded,
        )
        layer.attach_executor(executor)
        del first
        for seed in range(1, 41):
            g = erdos_renyi(300, 6, seed=seed)
            feats = Tensor(np.random.default_rng(seed).standard_normal((300, 16)))
            out = layer(g, feats)
            ref = layer.forward(layer.as_mp_graph(g), feats)
            assert np.allclose(out.data, ref.data), seed
            del g
        gc.collect()
        if guarded:
            caches = executor.caches.setup
        else:
            caches = next(
                cell.cell_contents for cell in executor.__closure__
                if isinstance(cell.cell_contents, weakref.WeakKeyDictionary)
            )
        assert len(caches) == 0  # the cache does not outlive its graphs

    def test_overhead_reported(self, engine, graph, rng):
        layer = GCNLayer(16, 16, rng=rng)
        report = engine.optimize(layer, graph, rng.standard_normal((graph.num_nodes, 16)))
        assert report.total_overhead_seconds < 5.0  # CPU featurizer budget


class TestPublicAPI:
    def test_figure4_usage(self, graph, rng):
        feats, labels = make_node_features(graph, dim=32, seed=1, num_classes=4)
        model = GCNLayer(32, 16, rng=rng)
        baseline = model(graph, feats)
        report = repro.GRANII(model, graph, feats, labels, scale="small")
        res = model(graph, feats)
        assert np.allclose(res.data, baseline.data, atol=1e-8)
        assert report.selections[0].model_name == "gcn"

    def test_system_and_device_accepted(self, graph, rng):
        model = GINLayer(16, 8, rng=rng)
        report = repro.GRANII(
            model, graph, rng.standard_normal((graph.num_nodes, 16)),
            device="h100", system="wisegraph", iterations=50, scale="small",
        )
        assert model.granii_enabled
        assert report.selections


class TestSelectionQuality:
    def test_gcn_dense_vs_sparse_choice_differs(self, rng):
        """On WiseGraph/A100, GRANII must escape binning normalization for
        the dense graph but may keep dynamic normalization elsewhere."""
        engine = GraniiEngine(device="a100", system="wisegraph", scale="small")
        dense = load("MC", "small")
        layer = GCNLayer(64, 64, rng=rng)
        report = engine.select(engine.compile_for(layer), dense, layer)
        assert report.chosen.tags["norm"] == "precompute"

    def test_gat_recompute_chosen_when_profitable(self, rng):
        """Dense graph + strongly growing sizes: recomputation wins
        (aggregating K1=32 wide features beats K2=1024 wide)."""
        engine = GraniiEngine(device="h100", system="dgl", scale="small")
        dense = load("MC", "small")
        layer = GATLayer(32, 1024, rng=rng)
        report = engine.select(engine.compile_for(layer), dense, layer)
        assert report.chosen.tags["gat"] == "recompute"

    def test_gat_reuse_on_sparse_graph(self, rng):
        engine = GraniiEngine(device="h100", system="dgl", scale="small")
        sparse = load("BL", "small")
        layer = GATLayer(1024, 2048, rng=rng)
        report = engine.select(engine.compile_for(layer), sparse, layer)
        assert report.chosen.tags["gat"] == "reuse"
