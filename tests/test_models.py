"""Model zoo tests: compositions, closed forms, gradients, multi-layer, SAGE.

A layer's compositions (paper Eq. 2–6) come from its compiled plan pool;
the tests here run the named ones through plan executors.  Every promoted
plan of GCN, GIN, SGC, TAGCN and GAT is also checked against the layer's
``forward`` in ``test_core_plan.py::TestExecutorEquivalence``.
"""

import numpy as np
import pytest

from repro.core import GraniiEngine
from repro.framework import MPGraph
from repro.graphs import erdos_renyi, rmat, sample_blocks
from repro.models import (
    GATLayer,
    GCNLayer,
    GINLayer,
    MODEL_NAMES,
    MultiLayerGNN,
    SAGELayer,
    SGCLayer,
    TAGCNLayer,
    build_layer,
    prepare_mp_graph,
    uses_self_loops,
)
from repro.tensor import Adam, Tensor, cross_entropy


@pytest.fixture
def small_graph():
    return erdos_renyi(40, 6, seed=3)


def make_inputs(graph, in_size, rng, self_loops=True):
    g = prepare_mp_graph(graph) if self_loops else MPGraph(graph.adj)
    feat = Tensor(rng.standard_normal((graph.num_nodes, in_size)))
    return g, feat


CONV_COMPOSITIONS = (
    "dynamic:agg_first",
    "dynamic:update_first",
    "precompute:agg_first",
    "precompute:update_first",
)


def run_compositions(layer, g, feat, labels=CONV_COMPOSITIONS):
    """Run the first promoted plan of each named composition of ``layer``."""
    engine = GraniiEngine()
    compiled = engine.compile_for(layer)
    outs = []
    for label in labels:
        planned = [p for p in compiled.promoted if p.label == label]
        assert planned, f"no {label} plan in the pool"
        executor = engine.make_executor(layer, planned[0], guarded=False)
        outs.append(executor(g, feat))
    return outs


class TestGCN:
    def test_baseline_matches_dynamic(self, small_graph, rng):
        layer = GCNLayer(8, 4, rng=rng)
        g, feat = make_inputs(small_graph, 8, rng)
        base = layer.forward(g, feat)
        (dyn,) = run_compositions(layer, g, feat, ["dynamic:agg_first"])
        assert np.allclose(base.data, dyn.data)

    def test_compositions_equivalent(self, small_graph, rng):
        layer = GCNLayer(8, 4, rng=rng)
        g, feat = make_inputs(small_graph, 8, rng)
        outs = run_compositions(layer, g, feat)
        for out in outs[1:]:
            assert np.allclose(out.data, outs[0].data, atol=1e-10)

    def test_matches_closed_form(self, small_graph, rng):
        layer = GCNLayer(6, 3, activation=False, rng=rng)
        g, feat = make_inputs(small_graph, 6, rng)
        adj = g.adj.to_dense()
        deg = adj.sum(axis=1)
        d_is = np.diag(deg ** -0.5)
        expected = d_is @ adj @ d_is @ feat.data @ layer.linear.weight.data
        assert np.allclose(layer.forward(g, feat).data, expected)

    def test_gradients_flow(self, small_graph, rng):
        layer = GCNLayer(6, 3, rng=rng)
        g, feat = make_inputs(small_graph, 6, rng)
        layer.forward(g, feat).sum().backward()
        assert layer.linear.weight.grad is not None
        assert np.abs(layer.linear.weight.grad).max() > 0


class TestSGC:
    def test_compositions_equivalent(self, small_graph, rng):
        layer = SGCLayer(8, 4, hops=2, rng=rng)
        g, feat = make_inputs(small_graph, 8, rng)
        base = layer.forward(g, feat)
        for out in run_compositions(layer, g, feat):
            assert np.allclose(out.data, base.data, atol=1e-10)

    def test_hops_validated(self, rng):
        with pytest.raises(ValueError):
            SGCLayer(4, 2, hops=0, rng=rng)

    def test_matches_closed_form(self, small_graph, rng):
        layer = SGCLayer(5, 2, hops=3, rng=rng)
        g, feat = make_inputs(small_graph, 5, rng)
        adj = g.adj.to_dense()
        d_is = np.diag(adj.sum(axis=1) ** -0.5)
        nadj = d_is @ adj @ d_is
        expected = np.linalg.matrix_power(nadj, 3) @ feat.data @ layer.linear.weight.data
        assert np.allclose(layer.forward(g, feat).data, expected, atol=1e-10)


class TestTAGCN:
    def test_compositions_equivalent(self, small_graph, rng):
        layer = TAGCNLayer(8, 4, hops=2, rng=rng)
        g, feat = make_inputs(small_graph, 8, rng)
        base = layer.forward(g, feat)
        for out in run_compositions(layer, g, feat):
            assert np.allclose(out.data, base.data, atol=1e-10)

    def test_matches_closed_form(self, small_graph, rng):
        layer = TAGCNLayer(5, 3, hops=2, rng=rng)
        g, feat = make_inputs(small_graph, 5, rng)
        adj = g.adj.to_dense()
        d_is = np.diag(adj.sum(axis=1) ** -0.5)
        nadj = d_is @ adj @ d_is
        expected = feat.data @ layer.filters[0].weight.data
        h = feat.data
        for l in range(1, 3):
            h = nadj @ h
            expected = expected + h @ layer.filters[l].weight.data
        assert np.allclose(layer.forward(g, feat).data, expected, atol=1e-10)

    def test_filters_are_parameters(self, rng):
        layer = TAGCNLayer(4, 2, hops=2, rng=rng)
        names = [n for n, _ in layer.named_parameters()]
        assert sum("filters" in n for n in names) == 3


class TestGIN:
    def test_compositions_equivalent(self, small_graph, rng):
        layer = GINLayer(8, 4, eps=0.3, rng=rng)
        g, feat = make_inputs(small_graph, 8, rng, self_loops=False)
        base = layer.forward(g, feat)
        for out in run_compositions(layer, g, feat):
            assert np.allclose(out.data, base.data, atol=1e-10)

    def test_matches_closed_form(self, small_graph, rng):
        layer = GINLayer(5, 3, eps=0.2, activation=False, rng=rng)
        g, feat = make_inputs(small_graph, 5, rng, self_loops=False)
        adj = g.adj.to_dense()
        b = adj + 1.2 * np.eye(adj.shape[0])
        expected = b @ feat.data @ layer.linear.weight.data
        assert np.allclose(layer.forward(g, feat).data, expected)


class TestGAT:
    def test_reuse_equals_recompute(self, small_graph, rng):
        layer = GATLayer(8, 4, rng=rng)
        g, feat = make_inputs(small_graph, 8, rng)
        reuse, recompute = run_compositions(
            layer, g, feat, ["reuse", "recompute"]
        )
        assert np.allclose(reuse.data, recompute.data, atol=1e-10)

    def test_attention_rows_normalised(self, small_graph, rng):
        layer = GATLayer(6, 3, rng=rng)
        g, feat = make_inputs(small_graph, 6, rng)
        theta = feat @ layer.linear.weight
        alpha = layer._attention(g, theta)
        sums = np.bincount(g.adj.row_ids(), weights=alpha.data, minlength=g.num_nodes)
        assert np.allclose(sums[g.adj.row_degrees() > 0], 1.0)

    def test_gradients_reach_attention_params(self, small_graph, rng):
        layer = GATLayer(6, 3, rng=rng)
        g, feat = make_inputs(small_graph, 6, rng)
        layer.forward(g, feat).sum().backward()
        assert layer.attn_l.grad is not None
        assert layer.attn_r.grad is not None
        assert np.abs(layer.attn_l.grad).max() > 0


class TestSAGE:
    def test_full_graph_forward(self, small_graph, rng):
        layer = SAGELayer(6, 3, activation=False, rng=rng)
        g, feat = make_inputs(small_graph, 6, rng, self_loops=False)
        out = layer.forward(g, feat)
        adj = g.adj.to_dense()
        deg = np.maximum(adj.sum(axis=1), 1)
        mean_agg = (adj / deg[:, None]) @ feat.data
        expected = (
            feat.data @ layer.self_linear.weight.data
            + mean_agg @ layer.neigh_linear.weight.data
        )
        assert np.allclose(out.data, expected)

    def test_block_forward_shapes(self, rng):
        graph = rmat(128, 12, seed=9)
        layer = SAGELayer(5, 4, rng=rng)
        seeds = rng.choice(128, size=16, replace=False)
        blocks = sample_blocks(graph, seeds, fanouts=[8], rng=rng)
        feat = Tensor(rng.standard_normal((blocks[0].input_nodes.shape[0], 5)))
        out = layer.forward_block(blocks[0], feat)
        assert out.shape == (16, 4)


class TestZoo:
    def test_build_layer_all_names(self, rng):
        for name in MODEL_NAMES:
            layer = build_layer(name, 8, 4, rng=rng)
            assert layer.in_size == 8

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            build_layer("transformer", 4, 2)

    def test_uses_self_loops(self):
        assert uses_self_loops("gcn")
        assert not uses_self_loops("gin")

    def test_multilayer_shapes(self, small_graph, rng):
        model = MultiLayerGNN("gcn", [8, 16, 4], rng=rng)
        g, feat = make_inputs(small_graph, 8, rng)
        out = model(g, feat)
        assert out.shape == (40, 4)
        assert model.num_layers == 2

    def test_multilayer_needs_two_sizes(self, rng):
        with pytest.raises(ValueError):
            MultiLayerGNN("gcn", [8], rng=rng)

    def test_executor_attachment(self, small_graph, rng):
        layer = GCNLayer(4, 2, rng=rng)
        g, feat = make_inputs(small_graph, 4, rng)
        base = layer(g, feat)
        engine = GraniiEngine()
        planned = engine.compile_for(layer).find(norm="precompute")[0]
        layer.attach_executor(engine.make_executor(layer, planned, guarded=False))
        assert layer.granii_enabled
        accel = layer(g, feat)
        assert np.allclose(accel.data, base.data, atol=1e-10)
        layer.detach_executor()
        assert not layer.granii_enabled

    def test_end_to_end_training_improves(self, rng):
        from repro.graphs import sbm_communities, make_node_features

        graph = sbm_communities(120, 4, 10, seed=6)
        feats, labels = make_node_features(graph, dim=8, seed=0)
        model = MultiLayerGNN("gcn", [8, 16, 4], rng=rng)
        g = prepare_mp_graph(graph)
        x = Tensor(feats)
        opt = Adam(model.parameters(), lr=0.02)
        losses = []
        for _ in range(30):
            opt.zero_grad()
            loss = cross_entropy(model(g, x), labels)
            losses.append(loss.item())
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0] * 0.7
