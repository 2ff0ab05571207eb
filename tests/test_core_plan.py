"""Plan lowering tests: kernel calls, setup split, executor correctness.

The crucial invariant: for every model, *every* promoted plan executes to
exactly the same values as the model's baseline message-passing forward,
for inference (under ``no_grad``) and training (gradients) alike.
"""

import numpy as np
import pytest

from repro.core import ShapeEnv, compile_model
from repro.core.bindings import build_binding
from repro.core.plan import LEAF_CACHE_KEY
from repro.graphs import erdos_renyi
from repro.models import (
    APPNPLayer,
    GATLayer,
    GCNLayer,
    GINLayer,
    SAGELayer,
    SGCLayer,
    TAGCNLayer,
    prepare_mp_graph,
)
from repro.framework import MPGraph
from repro.tensor import Tensor, no_grad


@pytest.fixture
def graph():
    return erdos_renyi(36, 6, seed=7)


def env_for(graph, layer, self_loops=True):
    adj = graph.adj_with_self_loops() if self_loops else graph.adj
    return ShapeEnv(
        {"N": graph.num_nodes, "E": adj.nnz, "K1": layer.in_size, "K2": layer.out_size}
    )


MODEL_CASES = [
    ("gcn", lambda rng: GCNLayer(8, 4, rng=rng), True),
    ("gin", lambda rng: GINLayer(8, 4, rng=rng), False),
    ("sgc", lambda rng: SGCLayer(8, 4, hops=2, rng=rng), True),
    ("tagcn", lambda rng: TAGCNLayer(8, 4, hops=2, rng=rng), True),
    ("gat", lambda rng: GATLayer(8, 4, rng=rng), True),
]


class TestSetupSplit:
    def test_gcn_precompute_has_setup(self):
        compiled = compile_model("gcn")
        pre = compiled.find(norm="precompute")
        dyn = compiled.find(norm="dynamic")
        assert pre and dyn
        for planned in pre:
            assert any(
                s.primitive == "sddmm_diag" for s in planned.plan.setup_steps
            )
        for planned in dyn:
            assert not planned.plan.setup_steps

    def test_degree_prep_phase_follows_usage(self):
        compiled = compile_model("gcn")
        env = ShapeEnv({"N": 100, "E": 500, "K1": 8, "K2": 4})
        pre = compiled.find(norm="precompute")[0].plan
        dyn = compiled.find(norm="dynamic")[0].plan
        pre_setup, pre_iter = pre.kernel_calls(env, degree_method="binning")
        dyn_setup, dyn_iter = dyn.kernel_calls(env, degree_method="binning")
        # precompute amortises the binning; dynamic pays it per iteration
        assert any(c.primitive == "degree_binning" for c in pre_setup)
        assert not any(c.primitive.startswith("degree") for c in pre_iter)
        assert any(c.primitive == "degree_binning" for c in dyn_iter)

    def test_gin_precompute_setup_is_spadd(self):
        compiled = compile_model("gin")
        planned = compiled.find(norm="precompute")[0]
        assert any(s.primitive == "spadd_diag" for s in planned.plan.setup_steps)

    def test_gat_has_no_setup(self):
        compiled = compile_model("gat")
        for planned in compiled.promoted:
            assert not planned.plan.setup_steps


class TestKernelCalls:
    def test_concrete_dims_resolved(self):
        compiled = compile_model("gcn")
        env = ShapeEnv({"N": 100, "E": 500, "K1": 8, "K2": 4})
        for planned in compiled.promoted:
            setup, per_iter = planned.plan.kernel_calls(env)
            for call in setup + per_iter:
                assert all(isinstance(v, (int, float)) for v in call.shape.values())
                assert call.flops >= 0

    def test_spadd_nnz_includes_loops(self):
        compiled = compile_model("gin")
        env = ShapeEnv({"N": 100, "E": 500, "K1": 8, "K2": 4})
        planned = compiled.find(norm="precompute")[0]
        _, per_iter = planned.plan.kernel_calls(env)
        spmm = next(c for c in per_iter if c.primitive == "spmm")
        assert spmm.shape["nnz"] == 600  # E + N

    def test_attention_expands_to_four_calls(self):
        compiled = compile_model("gat")
        env = ShapeEnv({"N": 100, "E": 500, "K1": 8, "K2": 4})
        planned = compiled.promoted[0]
        _, per_iter = planned.plan.kernel_calls(env)
        attn_calls = [
            c for c in per_iter
            if c.tag.endswith((":score_l", ":score_r", ":logits", ":softmax"))
        ]
        assert len(attn_calls) == 4
        assert {c.primitive for c in attn_calls} == {
            "gemm", "gsddmm_attn", "edge_softmax"
        }

    def test_backward_calls_scale_with_forward(self):
        compiled = compile_model("gcn")
        env = ShapeEnv({"N": 100, "E": 500, "K1": 8, "K2": 4})
        plan = compiled.promoted[0].plan
        _, fwd = plan.kernel_calls(env)
        bwd = plan.backward_calls(env)
        assert len(bwd) >= len([c for c in fwd if not c.tag.startswith("prep")])

    def test_gat_backward_includes_edge_gradient(self):
        compiled = compile_model("gat")
        env = ShapeEnv({"N": 100, "E": 500, "K1": 8, "K2": 4})
        plan = compiled.promoted[0].plan
        bwd = plan.backward_calls(env)
        assert any(c.primitive == "sddmm" for c in bwd)


class TestExecutorEquivalence:
    @pytest.mark.parametrize("name,make,self_loops", MODEL_CASES)
    def test_all_plans_match_baseline_no_grad(self, graph, rng, name, make, self_loops):
        layer = make(rng)
        g = prepare_mp_graph(graph) if self_loops else MPGraph(graph.adj)
        feat = rng.standard_normal((graph.num_nodes, layer.in_size))
        baseline = layer.forward(g, Tensor(feat)).data
        compiled = compile_model(name, **({"hops": 2} if name in ("sgc", "tagcn") else {}))
        for planned in compiled.promoted:
            # an ndarray is bound as a Tensor
            binding = build_binding(layer, g, feat)
            with no_grad():
                out = planned.plan.execute(binding)
            assert isinstance(out, Tensor) and not out.requires_grad
            assert np.allclose(out.data, baseline, atol=1e-9), planned.label

    @pytest.mark.parametrize("name,make,self_loops", MODEL_CASES)
    def test_all_plans_match_baseline_tensor(self, graph, rng, name, make, self_loops):
        layer = make(rng)
        g = prepare_mp_graph(graph) if self_loops else MPGraph(graph.adj)
        feat = Tensor(rng.standard_normal((graph.num_nodes, layer.in_size)))
        baseline = layer.forward(g, feat).data
        compiled = compile_model(name, **({"hops": 2} if name in ("sgc", "tagcn") else {}))
        for planned in compiled.promoted:
            binding = build_binding(layer, g, feat)
            out = planned.plan.execute(binding)
            assert np.allclose(out.data, baseline, atol=1e-9), planned.label

    @pytest.mark.parametrize("name,make,self_loops", MODEL_CASES)
    def test_tensor_mode_gradients_match_baseline(self, graph, rng, name, make, self_loops):
        layer = make(rng)
        g = prepare_mp_graph(graph) if self_loops else MPGraph(graph.adj)
        feat_np = rng.standard_normal((graph.num_nodes, layer.in_size))
        # baseline gradient
        layer.zero_grad()
        layer.forward(g, Tensor(feat_np)).sum().backward()
        base_grads = {n: p.grad.copy() for n, p in layer.named_parameters()}
        compiled = compile_model(name, **({"hops": 2} if name in ("sgc", "tagcn") else {}))
        for planned in compiled.promoted:
            layer.zero_grad()
            binding = build_binding(layer, g, Tensor(feat_np))
            planned.plan.execute(binding).sum().backward()
            for n, p in layer.named_parameters():
                assert p.grad is not None, (planned.label, n)
                assert np.allclose(p.grad, base_grads[n], atol=1e-8), (planned.label, n)

    def test_setup_cache_reused(self, graph, rng):
        layer = GCNLayer(8, 4, rng=rng)
        g = prepare_mp_graph(graph)
        feat = rng.standard_normal((graph.num_nodes, 8))
        compiled = compile_model("gcn")
        planned = compiled.find(norm="precompute")[0]
        binding = build_binding(layer, g, feat)
        cache = {}
        out1 = planned.plan.execute(binding, setup_cache=cache)
        assert cache  # setup results persisted
        cached_objs = {k: id(v) for k, v in cache.items()}
        out2 = planned.plan.execute(binding, setup_cache=cache)
        assert {k: id(v) for k, v in cache.items()} == cached_objs
        assert np.allclose(out1.data, out2.data)

    @pytest.mark.parametrize(
        "make,self_loops,leaves,knob",
        [
            (lambda rng: GCNLayer(8, 4, rng=rng), True, ("D",), None),
            (lambda rng: GINLayer(8, 4, rng=rng), False, ("Eps",), "eps"),
            (lambda rng: SAGELayer(8, 4, rng=rng), False, ("Dm",), None),
            (
                lambda rng: APPNPLayer(8, 4, hops=2, rng=rng), True,
                ("D", "Ds", "T"), "alpha",
            ),
        ],
    )
    def test_graph_only_leaves_built_once_per_setup_cache(
        self, graph, rng, make, self_loops, leaves, knob
    ):
        layer = make(rng)
        g = prepare_mp_graph(graph) if self_loops else MPGraph(graph.adj)
        feat = rng.standard_normal((graph.num_nodes, 8))
        plain = build_binding(layer, g, feat)
        cache = {}
        first = build_binding(layer, g, feat, setup_cache=cache)
        again = build_binding(layer, g, Tensor(feat), setup_cache=cache)
        assert set(cache) == {LEAF_CACHE_KEY}
        for name in leaves:
            assert again.values[name] is first.values[name], name
            # bitwise what the uncached builder makes
            assert np.array_equal(
                first.values[name].diag, plain.values[name].diag
            ), name
        # A's pattern view is made per call (see build_binding)
        assert again.values["A"] is not first.values["A"]
        # another degree kernel is another leaf, not a stale hit
        if "D" in leaves or "Dm" in leaves:
            name = "D" if "D" in leaves else "Dm"
            binned = build_binding(layer, g, feat, "binning", setup_cache=cache)
            assert binned.values[name] is not first.values[name]
        # eps / alpha are layer state: changing them must not serve the
        # leaf scaled by the old value
        if knob is not None:
            setattr(layer, knob, getattr(layer, knob) + 0.25)
            moved = build_binding(layer, g, feat, setup_cache=cache)
            fresh = build_binding(layer, g, feat)
            for name in leaves:
                assert np.array_equal(
                    moved.values[name].diag, fresh.values[name].diag
                ), name
        # the reserved slot never reaches a plan's value environment
        if isinstance(layer, GCNLayer):
            planned = compile_model("gcn").find(norm="precompute")[0]
            out = planned.plan.execute(first, setup_cache=cache)
            ref = planned.plan.execute(plain)
            assert np.array_equal(out.data, ref.data)

    def test_unknown_strategy_rejected(self, graph, rng):
        layer = GCNLayer(4, 2, rng=rng)
        g = prepare_mp_graph(graph)
        compiled = compile_model("gcn")
        binding = build_binding(layer, g, np.zeros((graph.num_nodes, 4)))
        with pytest.raises(ValueError, match="unknown strategy"):
            compiled.promoted[0].plan.execute(binding, strategy="quantum")
