"""Unit tests for the fused attention step and the attention-fusion pass."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import compile_model
from repro.core.bindings import build_binding
from repro.core.codegen import enumerate_model, fuse_attention_candidates
from repro.kernels import edge_softmax, leaky_relu, spmm
from repro.models import GATLayer, prepare_mp_graph
from repro.tensor import Tensor, attention_aggregate, no_grad

from helpers import random_csr


class TestFusedAttentionStep:
    def test_matches_unfused_pipeline(self, rng):
        pattern = random_csr(rng, 10, 10, density=0.3, weighted=False)
        value = rng.standard_normal((10, 4))
        s_dst = rng.standard_normal(10)
        s_src = rng.standard_normal(10)
        with no_grad():
            fused = attention_aggregate(
                pattern, Tensor(s_dst), Tensor(s_src), Tensor(value), 0.2
            )
        rows, cols = pattern.row_ids(), pattern.indices
        logits = leaky_relu(s_dst[rows] + s_src[cols], 0.2)
        alpha = edge_softmax(pattern, logits)
        assert np.allclose(fused.data, spmm(alpha, value))

    def test_score_shapes_validated(self, rng):
        pattern = random_csr(rng, 5, 5, density=0.4, weighted=False)
        with pytest.raises(ValueError):
            attention_aggregate(
                pattern, Tensor(np.zeros(4)), Tensor(np.zeros(5)),
                Tensor(np.zeros((5, 2))),
            )


class TestFusionPass:
    def test_pass_emits_one_fused_variant_per_fusable(self):
        plain = enumerate_model("gat")[1]
        extra = fuse_attention_candidates(plain)
        assert len(extra) == len(plain)  # both GAT trees fuse
        for cand in extra:
            prims = cand.primitives
            assert "fused_attn_spmm" in prims
            assert "attention" not in prims
            # the fused step replaced the attention-consuming spmm
            assert "spmm" not in prims

    def test_non_attention_models_unaffected(self):
        gcn = enumerate_model("gcn")[1]
        assert fuse_attention_candidates(gcn) == []

    def test_compile_with_fusion_caches_separately(self):
        plain = compile_model("gat")
        fused = compile_model("gat", fusion=True)
        assert plain is not fused
        assert fused.enumerated_count == plain.enumerated_count + 2
        tags = {p.tags["gat"] for p in fused.promoted}
        assert tags == {"reuse", "recompute", "fused_reuse", "fused_recompute"}

    def test_fused_plans_numerically_identical(self, rng):
        from repro.graphs import erdos_renyi

        graph = erdos_renyi(30, 6, seed=13)
        layer = GATLayer(6, 3, rng=rng)
        g = prepare_mp_graph(graph)
        feat = Tensor(rng.standard_normal((30, 6)))
        base = layer.forward(g, feat).data
        compiled = compile_model("gat", fusion=True)
        for planned in compiled.promoted:
            for tape in (False, True):
                binding = build_binding(layer, g, feat)
                with nullcontext() if tape else no_grad():
                    out = planned.plan.execute(binding)
                assert np.allclose(out.data, base, atol=1e-9), (planned.label, tape)

    def test_fused_kernel_calls_reduce_launches(self):
        from repro.core import ShapeEnv

        compiled = compile_model("gat", fusion=True)
        env = ShapeEnv({"N": 100, "E": 600, "K1": 8, "K2": 16})
        fused = compiled.find(gat="fused_reuse")[0]
        unfused = compiled.find(gat="reuse")[0]
        _, fused_calls = fused.plan.kernel_calls(env)
        _, unfused_calls = unfused.plan.kernel_calls(env)
        assert len(fused_calls) < len(unfused_calls)
