"""Tests for the matrix IR and the rewrite passes."""

import pytest

from repro.core.ir import (
    Add,
    Leaf,
    MatMul,
    RowBroadcast,
    ShapeEnv,
    dense_data,
    dense_weight,
    diagonal,
    flatten,
    sparse_unweighted,
)
from repro.core.ir import ir_leaves, ir_repr, ir_shape
from repro.core.rewrite import (
    distribute_add,
    eliminate_row_broadcasts,
    factor_add,
    rewrite_variants,
)
from repro.core.modelir import build_model_ir


class TestLeaves:
    def test_attribute_validation(self):
        with pytest.raises(ValueError):
            Leaf("X", ("N", "N"), "fuzzy", "data")
        with pytest.raises(ValueError):
            Leaf("X", ("N", "N"), "dense", "weighted")

    def test_sparse_needs_nnz(self):
        with pytest.raises(ValueError):
            Leaf("A", ("N", "N"), "sparse", "unweighted")
        leaf = sparse_unweighted("A", "N", "N", "E")
        assert leaf.nnz == "E"

    def test_diagonal_nnz_defaults_to_dim(self):
        d = diagonal("D", "N")
        assert d.nnz == "N"
        assert d.is_diagonal

    def test_describe(self):
        leaf = dense_weight("W", "K1", "K2")
        assert "W" in leaf.describe()
        assert "dense.weight" in leaf.describe()


class TestStructure:
    def test_matmul_arity(self):
        with pytest.raises(ValueError):
            MatMul((dense_data("H", "N", "K1"),))

    def test_flatten_nested_matmul(self):
        a = sparse_unweighted("A", "N", "N", "E")
        h = dense_data("H", "N", "K1")
        w = dense_weight("W", "K1", "K2")
        nested = MatMul((a, MatMul((h, w))))
        flat = flatten(nested)
        assert len(flat.children) == 3

    def test_flatten_nested_add(self):
        h = dense_data("H", "N", "K1")
        nested = Add((h, Add((h, h))))
        assert len(flatten(nested).children) == 3

    def test_ir_shape(self):
        ir = build_model_ir("gcn")
        assert ir_shape(ir) == ("N", "K2")

    def test_ir_leaves_and_repr(self):
        ir = build_model_ir("gcn")
        names = [leaf.name for leaf in ir_leaves(ir)]
        assert names.count("D") == 2
        assert "A" in names and "W" in names
        assert "rb(" in ir_repr(ir)

    def test_shape_env(self):
        env = ShapeEnv({"N": 10, "K1": 4})
        assert env.resolve("N") == 10
        assert env.resolve(7) == 7
        with pytest.raises(KeyError):
            env.resolve("K2")


class TestRewrites:
    def test_broadcast_elimination_gcn(self):
        ir = build_model_ir("gcn")
        rewritten = eliminate_row_broadcasts(flatten(ir))
        assert "rb(" not in ir_repr(rewritten)
        # the D leaves merge into one multiplication level: D.A.D.H.W
        body = rewritten.child  # under the relu barrier
        assert isinstance(body, MatMul)
        assert [c.name for c in body.children] == ["D", "A", "D", "H", "W"]

    def test_broadcast_elimination_requires_diagonal(self):
        bad = RowBroadcast(dense_data("X", "N", "N"), dense_data("H", "N", "K1"))
        with pytest.raises(ValueError):
            eliminate_row_broadcasts(bad)

    def test_distribute_add_partial_and_full(self):
        ir = eliminate_row_broadcasts(flatten(build_model_ir("gin", activation=False)))
        variants = distribute_add(ir)
        reprs = {ir_repr(v) for v in variants}
        assert "((A + Eps) . H . W)" in reprs  # original
        assert "(((A . H) + (Eps . H)) . W)" in reprs  # partial
        assert "((A . H . W) + (Eps . H . W))" in reprs  # full

    def test_factor_add_inverts_distribution(self):
        ir = eliminate_row_broadcasts(flatten(build_model_ir("gin", activation=False)))
        distributed = distribute_add(ir)[-1]
        factored = factor_add(distributed)
        assert ir_repr(ir) in {ir_repr(v) for v in factored}

    def test_rewrite_variants_closure_dedupes(self):
        variants = rewrite_variants(build_model_ir("gin"))
        reprs = [ir_repr(v) for v in variants]
        assert len(reprs) == len(set(reprs))
        assert len(variants) >= 3

    def test_rewrite_variants_gcn_single(self):
        assert len(rewrite_variants(build_model_ir("gcn"))) == 1

    def test_attention_survives_rewrites(self):
        variants = rewrite_variants(build_model_ir("gat"))
        assert all("atten(" in ir_repr(v) for v in variants)


class TestModelIR:
    def test_all_builders(self):
        for name in ("gcn", "gin", "sgc", "tagcn", "gat"):
            ir = build_model_ir(name)
            assert ir is not None

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            build_model_ir("rgcn")

    def test_sgc_hops_scale_chain(self):
        one = eliminate_row_broadcasts(flatten(build_model_ir("sgc", hops=1)))
        three = eliminate_row_broadcasts(flatten(build_model_ir("sgc", hops=3)))
        assert len(three.children) - len(one.children) == 6  # 3 extra (D,A,D)

    def test_tagcn_hop_weights_distinct(self):
        ir = build_model_ir("tagcn", hops=2)
        names = {leaf.name for leaf in ir_leaves(ir)}
        assert {"W0", "W1", "W2"} <= names
