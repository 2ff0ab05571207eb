"""Reproducibility: the evaluation pipeline is deterministic end to end."""

import numpy as np
import pytest

from repro.core import compile_model
from repro.experiments.common import Workload, evaluate_workload
from repro.graphs import load, make_node_features, rmat, star
from repro.kernels import SPMM_STRATEGIES, blocked, gspmm
from repro.kernels.semiring import get_semiring

from helpers import spmm_cases, strategy_for_case


class TestDeterminism:
    def test_workload_evaluation_identical_twice(self):
        w = Workload("gcn", "MC", 64, 32, scale="small")
        r1 = evaluate_workload(w)
        r2 = evaluate_workload(w)
        assert r1.default_seconds == r2.default_seconds
        assert r1.granii_seconds == r2.granii_seconds
        assert r1.granii_label == r2.granii_label
        assert r1.plan_seconds == r2.plan_seconds

    def test_dataset_generation_deterministic(self):
        g1 = load("RD", "small")
        feats1, labels1 = make_node_features(g1, dim=8, seed=3)
        feats2, labels2 = make_node_features(g1, dim=8, seed=3)
        assert np.array_equal(feats1, feats2)
        assert np.array_equal(labels1, labels2)

    def test_compile_deterministic_across_cache_clears(self):
        from repro.core.codegen import clear_compile_cache

        first = compile_model("gcn")
        sigs_first = sorted(p.plan.candidate.output for p in first.promoted)
        clear_compile_cache()
        try:
            second = compile_model("gcn")
            sigs_second = sorted(p.plan.candidate.output for p in second.promoted)
            assert sigs_first == sigs_second
        finally:
            pass  # cache repopulated by the second compile


class TestSpmmStrategyDeterminism:
    """The SpMM strategies are bitwise deterministic and bitwise equal.

    Every row reduces inside exactly one block span, and
    ``segment_reduce`` makes each row's result a pure function of that
    row's messages in CSR edge order — so neither thread scheduling nor
    the block budget can reassociate a floating-point sum (see the
    determinism note in ``repro.kernels.blocked``).  The
    plan-equivalence harness leans on this: strategy-induced drift would
    otherwise blur into plan-divergence signal.
    """

    # every row of the strategy table, reference first
    BITWISE = SPMM_STRATEGIES

    def graph_and_feats(self):
        g = rmat(96, 6.0, seed=9)
        x = np.random.default_rng(17).standard_normal((96, 7))
        return g.adj.add_self_loops(), x

    @pytest.mark.parametrize("case", spmm_cases())
    def test_repeated_runs_bitwise_identical(self, case, monkeypatch):
        strategy = strategy_for_case(case, monkeypatch)
        adj, x = self.graph_and_feats()
        first = gspmm(adj, x, strategy=strategy)
        for _ in range(3):
            assert np.array_equal(first, gspmm(adj, x, strategy=strategy))

    def test_tiled_strategies_bitwise_equal_to_row_segment(self):
        adj, x = self.graph_and_feats()
        baseline = gspmm(adj, x, strategy="row_segment")
        for strategy in self.BITWISE[1:]:
            assert np.array_equal(
                baseline, gspmm(adj, x, strategy=strategy)
            ), strategy

    @pytest.mark.parametrize("block_nnz", (1, 7, 64, 10**6))
    def test_blocked_invariant_to_block_size(self, block_nnz):
        adj, x = self.graph_and_feats()
        baseline = gspmm(adj, x, strategy="row_segment")
        assert np.array_equal(
            baseline, gspmm(adj, x, strategy="blocked", block_nnz=block_nnz)
        )

    @pytest.mark.parametrize("num_threads", (1, 2, 4))
    def test_parallel_invariant_to_thread_count(self, num_threads, monkeypatch):
        adj, x = self.graph_and_feats()
        # one span: the fold below its crossover
        baseline = gspmm(adj, x, strategy="row_segment")
        monkeypatch.setattr(blocked, "FOLD_CROSSOVER", 0)
        monkeypatch.setenv("REPRO_NUM_THREADS", str(num_threads))
        assert np.array_equal(
            baseline, gspmm(adj, x, strategy="row_segment", block_nnz=16)
        )

    def test_skewed_graph_and_mean_semiring(self):
        # star graphs put one giant row in its own oversized span; mean
        # adds the degree-division epilogue to the comparison
        adj = star(200).adj.add_self_loops()
        x = np.random.default_rng(3).standard_normal((200, 4))
        semiring = get_semiring("mean", "copy_rhs")
        baseline = gspmm(adj, x, semiring, strategy="row_segment")
        for strategy in self.BITWISE[1:]:
            assert np.array_equal(
                baseline, gspmm(adj, x, semiring, strategy=strategy)
            ), strategy

    def test_env_thread_override_does_not_change_bits(self, monkeypatch):
        adj, x = self.graph_and_feats()
        monkeypatch.setattr(blocked, "FOLD_CROSSOVER", 0)
        baseline = gspmm(adj, x, strategy="row_segment", block_nnz=16)
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert np.array_equal(
            baseline,
            gspmm(adj, x, strategy="row_segment", block_nnz=16),
        )


class TestGatTrainingDeterminism:
    """A GAT training step is bitwise identical under every row-fold
    strategy: the edge softmax's 1-D sums and maxes do not depend on the
    strategy at all, and the attention-weighted aggregation folds each
    row the same way whatever span it arrives in.  The strategy runs the
    plan's forward aggregations; the backward runs the fold."""

    STRATEGIES = SPMM_STRATEGIES

    def step(self, strategy):
        from repro.core.bindings import build_binding, model_ir_kwargs
        from repro.models import GATLayer, prepare_mp_graph
        from repro.tensor import Tensor, cross_entropy

        g = prepare_mp_graph(rmat(96, 6.0, seed=9))
        rng = np.random.default_rng(17)
        feat = Tensor(rng.standard_normal((96, 8)), requires_grad=True)
        labels = rng.integers(0, 4, size=96)
        layer = GATLayer(8, 4, rng=np.random.default_rng(5))
        plan = compile_model("gat", **model_ir_kwargs(layer)).promoted[0].plan
        out = plan.execute(build_binding(layer, g, feat), strategy=strategy)
        cross_entropy(out, labels).backward()
        return [out.data, feat.grad] + [p.grad for p in layer.parameters()]

    def test_forward_and_gradients_bitwise_equal(self):
        baseline = self.step("row_segment")
        assert all(np.isfinite(a).all() and np.abs(a).max() > 0 for a in baseline)
        for strategy in self.STRATEGIES[1:]:
            for want, got in zip(baseline, self.step(strategy)):
                assert np.array_equal(want, got), strategy
