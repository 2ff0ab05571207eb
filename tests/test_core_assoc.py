"""Tests for association rules, Algorithm 1 enumeration, and pruning."""

import pytest

from repro.core.assoc import Candidate, enumerate_candidates, leaf_operand
from repro.core.codegen import clear_compile_cache, compile_model, enumerate_model
from repro.core.ir import (
    dense_data,
    dense_weight,
    diagonal,
    sparse_unweighted,
    MatMul,
)
from repro.core.modelir import build_model_ir
from repro.core.pruning import (
    SCENARIOS,
    cost_signature,
    prune_candidates,
)
from repro.core.rewrite import rewrite_variants
from repro.core.rules import Operand, match_add_children, match_matmul_window


def op(leaf):
    return leaf_operand(leaf)


A = op(sparse_unweighted("A", "N", "N", "E"))
D = op(diagonal("D", "N"))
H = op(dense_data("H", "N", "K1"))
W = op(dense_weight("W", "K1", "K2"))


class TestRules:
    def test_diag_sparse_diag_is_sddmm(self):
        match = match_matmul_window([D, A, D])
        assert match.primitive == "sddmm_diag"
        assert match.result_subattr == "weighted"
        assert match.result_nnz == "E"

    def test_two_sided_diag_matches(self):
        assert match_matmul_window([D, A]).primitive == "sddmm_diag"
        assert match_matmul_window([A, D]).primitive == "sddmm_diag"

    def test_diag_diag_is_diag_mul(self):
        match = match_matmul_window([D, D])
        assert match.primitive == "diag_mul"
        assert match.result_subattr == "diagonal"

    def test_sparse_dense_is_spmm(self):
        assert match_matmul_window([A, H]).primitive == "spmm_unweighted"
        weighted = Operand("Nrm", "sparse", "weighted", ("N", "N"), "E")
        assert match_matmul_window([weighted, H]).primitive == "spmm"

    def test_diag_dense_is_row_broadcast(self):
        assert match_matmul_window([D, H]).primitive == "row_broadcast"

    def test_dense_dense_is_gemm(self):
        match = match_matmul_window([H, W])
        assert match.primitive == "gemm"
        assert match.result_shape == ("N", "K2")

    def test_sparse_sparse_rejected(self):
        assert match_matmul_window([A, A]) is None

    def test_dense_sparse_rejected(self):
        assert match_matmul_window([H, A]) is None

    def test_three_way_only_for_diag_sandwich(self):
        assert match_matmul_window([D, H, W]) is None
        assert match_matmul_window([A, H, W]) is None

    def test_add_dense_is_elementwise(self):
        out = match_add_children([H, H, H])
        assert out.primitive == "elementwise"

    def test_add_sparse_diag_is_spadd(self):
        eps = op(diagonal("Eps", "N"))
        out = match_add_children([A, eps])
        assert out.primitive == "spadd_diag"
        assert out.result_nnz == "E+N"
        assert match_add_children([eps, A]).primitive == "spadd_diag"

    def test_add_mixed_rejected(self):
        assert match_add_children([A, H]) is None


class TestEnumeration:
    def test_gcn_counts(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("gcn")))
        assert len(cands) == 16

    def test_gat_exactly_two(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("gat")))
        assert len(cands) == 2
        gemm_counts = sorted(c.primitives.count("gemm") for c in cands)
        assert gemm_counts == [1, 2]  # reuse vs recompute

    def test_cse_shares_theta_in_gat(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("gat")))
        reuse = min(cands, key=lambda c: len(c.steps))
        # the aggregation's H·W association resolved to the prelude's Θ:
        # only one gemm step exists and attention consumes its output
        attn = next(s for s in reuse.steps if s.primitive == "attention")
        spmm = next(s for s in reuse.steps if s.primitive == "spmm")
        assert attn.args[1] in spmm.args

    def test_ordered_steps_topological(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("gcn")))
        for cand in cands:
            seen = set()
            for step in cand.ordered_steps():
                for arg in step.args:
                    if "(" in arg:  # an intermediate, not a leaf
                        assert arg in seen
                seen.add(step.out)

    def test_deduplication_across_variants(self):
        variants = rewrite_variants(build_model_ir("gin"))
        merged = enumerate_candidates(variants)
        separate = set()
        for v in variants:
            for c in enumerate_candidates([v]):
                separate.add((c.output, c.steps))
        assert len(merged) == len(separate)

    def test_unsupported_chain_yields_nothing(self):
        # sparse·sparse has no rule; a chain of two sparse matrices is
        # unenumerable and should produce zero candidates
        from repro.core.ir import sparse_unweighted as su

        chain = MatMul((su("A", "N", "N", "E"), su("B", "N", "N", "E")))
        assert enumerate_candidates([chain]) == []


class TestPruning:
    def test_gcn_promotes_four(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("gcn")))
        promoted = prune_candidates(cands)
        assert len(promoted) == 4
        prims = sorted(p.candidate.primitives for p in promoted)
        # two precompute (sddmm_diag+spmm) and two dynamic compositions
        assert sum("sddmm_diag" in p for p in prims) == 2

    def test_gcn_scenario_split(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("gcn")))
        promoted = prune_candidates(cands)
        for scenario in SCENARIOS:
            assert sum(scenario in p.scenarios for p in promoted) == 2

    def test_gat_recompute_only_when_growing(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("gat")))
        promoted = prune_candidates(cands)
        assert len(promoted) == 2
        reuse = min(promoted, key=lambda p: len(p.candidate.steps))
        recompute = max(promoted, key=lambda p: len(p.candidate.steps))
        assert set(reuse.scenarios) == set(SCENARIOS)
        assert recompute.scenarios == ("in_lt_out",)
        assert reuse.needs_cost_model
        assert not recompute.needs_cost_model

    def test_gin_promotes_four(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("gin")))
        promoted = prune_candidates(cands)
        assert len(promoted) == 4

    def test_pruning_reduces_sgc_substantially(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("sgc")))
        promoted = prune_candidates(cands)
        assert len(promoted) < len(cands) / 10

    def test_cost_signature_collapses_equivalent(self):
        cands = enumerate_candidates(rewrite_variants(build_model_ir("sgc")))
        sigs = {cost_signature(c) for c in cands}
        assert len(sigs) < len(cands)  # some DAGs are cost-equivalent

    def test_pruning_never_empties(self):
        for name in ("gcn", "gin", "gat", "sgc"):
            cands = enumerate_candidates(rewrite_variants(build_model_ir(name)))
            assert prune_candidates(cands)


def recursive_order(cand):
    """The dependency order as first written: a recursive post-order over
    each step's args, roots in sorted-output order."""
    by_out = {s.out: s for s in cand.steps}
    ordered, seen = [], set()

    def visit(ref):
        step = by_out.get(ref)
        if step is None or ref in seen:
            return
        seen.add(ref)
        for arg in step.args:
            visit(arg)
        ordered.append(step)

    for out in sorted(by_out):
        visit(out)
    return ordered


class TestSharedOrder:
    """A cold compile orders each tree once and hands that order to the
    verifier, to pruning and to the promoted plans."""

    def test_ordered_steps_is_the_recursive_order(self):
        from repro.analysis.mutate import MUTATIONS, NotApplicable

        for name in ("tagcn", "gat", "sgc"):
            for k, cand in enumerate(enumerate_model(name)[1]):
                batch = [cand]
                if k % 50 == 0:  # mutants bring cycles, double writes, ...
                    for mutation in MUTATIONS:
                        if mutation.kind != "candidate":
                            continue
                        try:
                            batch.append(mutation.apply(cand))
                        except NotApplicable:
                            pass
                for tree in batch:
                    got = tree.ordered_steps()
                    assert [id(s) for s in got] == [
                        id(s) for s in recursive_order(tree)
                    ]

    @pytest.mark.parametrize("name,trees", [("tagcn", 5184), ("sgc", 324)])
    def test_cold_compile_orders_each_tree_once(self, name, trees, monkeypatch):
        ordered = []
        real = Candidate.ordered_steps

        def counting(cand):
            ordered.append(id(cand))
            return real(cand)

        monkeypatch.setattr(Candidate, "ordered_steps", counting)
        clear_compile_cache()
        try:
            compiled = compile_model(name)
        finally:
            clear_compile_cache()
        assert len(ordered) == compiled.enumerated_count == trees
        assert len(set(ordered)) == trees
        for planned in compiled.promoted:
            assert planned.plan.steps == real(planned.plan.candidate)
