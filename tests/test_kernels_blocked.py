"""Blocked / thread-parallel g-SpMM and g-SDDMM: equivalence & memory.

The fold (split across threads) and the blocked strategy must be
bit-compatible in semantics with a one-span fold (and with scipy for the
arithmetic semiring) while keeping their transient footprint at
O(block·K) instead of O(E·K).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import GraniiEngine, compile_model
from repro.graphs import load
from repro.kernels import (
    SPMM_STRATEGIES,
    WorkspaceArena,
    blocked,
    get_semiring,
    gsddmm,
    gsddmm_blocked,
    gspmm,
    gspmm_row_blocks,
    row_block_spans,
)
from repro.models import GCNLayer
from repro.tensor import no_grad

from helpers import random_csr

REDUCES = ("sum", "mean", "max", "min")
BINARIES = ("mul", "add", "sub", "div", "copy_lhs", "copy_rhs")
# the table rows this module's kernels implement: gspmm_fold / gspmm_row_blocks
BLOCKED = ("row_segment", "blocked")
THREADS = ("1", "2", "4")


@pytest.fixture
def split_everything(monkeypatch):
    """The fold crossover at 0, so REPRO_NUM_THREADS really splits."""
    monkeypatch.setattr(blocked, "FOLD_CROSSOVER", 0)


def one_span(adj, x, semiring=None):
    """The reference: every row folded in one span on the caller."""
    return blocked.fold_spans(adj, x, semiring, [(0, adj.shape[0])])


def to_scipy(adj):
    return sp.csr_array(
        (adj.effective_values(), adj.indices, adj.indptr), shape=adj.shape
    )


class TestRowBlockSpans:
    def test_spans_partition_rows(self, rng):
        adj = random_csr(rng, 50, 50, density=0.15)
        spans = row_block_spans(adj.indptr, block_nnz=40)
        assert spans[0][0] == 0 and spans[-1][1] == 50
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0 and a0 < a1
        assert spans[-1][0] < spans[-1][1]

    def test_span_edge_budget(self, rng):
        adj = random_csr(rng, 64, 64, density=0.2)
        budget = 30
        for r0, r1 in row_block_spans(adj.indptr, budget):
            nnz = adj.indptr[r1] - adj.indptr[r0]
            # a span may exceed the budget only as a single oversized row
            assert nnz <= budget or r1 - r0 == 1

    def test_oversized_row_gets_own_span(self):
        indptr = np.array([0, 2, 102, 104], dtype=np.int64)
        spans = row_block_spans(indptr, block_nnz=10)
        assert (1, 2) in spans

    def test_empty_matrix(self):
        assert row_block_spans(np.zeros(1, dtype=np.int64), 8) == []


class TestBlockedEquivalence:
    @pytest.mark.parametrize("strategy", BLOCKED)
    def test_matches_scipy_arithmetic(
        self, rng, strategy, monkeypatch, split_everything
    ):
        adj = random_csr(rng, 40, 35, density=0.2)
        x = rng.standard_normal((35, 7))
        for threads in THREADS:
            monkeypatch.setenv("REPRO_NUM_THREADS", threads)
            out = gspmm(adj, x, strategy=strategy, block_nnz=16)
            assert np.allclose(out, to_scipy(adj) @ x)

    @pytest.mark.parametrize("reduce_name", REDUCES)
    @pytest.mark.parametrize("binary_name", BINARIES)
    @pytest.mark.parametrize("strategy", BLOCKED)
    def test_all_semirings_match_row_segment(
        self, rng, reduce_name, binary_name, strategy, monkeypatch,
        split_everything,
    ):
        adj = random_csr(rng, 30, 26, density=0.25)
        if binary_name == "div":
            adj = adj.with_values(np.abs(adj.values) + 0.5)
        x = rng.standard_normal((26, 4)) + 3.0  # keep div well-conditioned
        semiring = get_semiring(reduce_name, binary_name)
        ref = one_span(adj, x, semiring)
        for threads in THREADS:
            monkeypatch.setenv("REPRO_NUM_THREADS", threads)
            out = gspmm(adj, x, semiring, strategy=strategy, block_nnz=11)
            assert np.allclose(out, ref, equal_nan=True)

    @pytest.mark.parametrize("strategy", BLOCKED)
    def test_unweighted_pattern(self, rng, strategy):
        adj = random_csr(rng, 25, 25, density=0.2, weighted=False)
        x = rng.standard_normal((25, 3))
        ref = one_span(adj, x, get_semiring("sum", "copy_rhs"))
        out = gspmm(
            adj, x, get_semiring("sum", "copy_rhs"), strategy=strategy, block_nnz=7
        )
        assert np.allclose(out, ref)

    @pytest.mark.parametrize("strategy", BLOCKED)
    def test_empty_rows(self, strategy):
        from repro.sparse import CSRMatrix

        adj = CSRMatrix.from_coo([0, 4], [1, 0], [2.0, 3.0], (5, 2))
        x = np.ones((2, 3))
        for reduce_name in REDUCES:
            semiring = get_semiring(reduce_name, "mul")
            ref = one_span(adj, x, semiring)
            out = gspmm(adj, x, semiring, strategy=strategy, block_nnz=1)
            assert np.allclose(out, ref)

    @pytest.mark.parametrize("strategy", BLOCKED)
    def test_zero_nnz(self, strategy):
        from repro.sparse import CSRMatrix

        adj = CSRMatrix(
            np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64), None, (4, 4)
        )
        out = gspmm(adj, np.ones((4, 2)), strategy=strategy)
        assert out.shape == (4, 2)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("strategy", BLOCKED)
    def test_1d_features_promoted(self, rng, strategy):
        adj = random_csr(rng, 12, 12, density=0.3)
        x = rng.standard_normal(12)
        out = gspmm(adj, x, strategy=strategy, block_nnz=5)
        assert out.shape == (12, 1)
        assert np.allclose(out[:, 0], to_scipy(adj) @ x)

    def test_single_row_denser_than_block(self, rng):
        from repro.sparse import CSRMatrix

        cols = np.arange(100, dtype=np.int64)
        adj = CSRMatrix.from_coo(
            np.zeros(100, dtype=np.int64), cols, rng.random(100), (3, 100)
        )
        x = rng.standard_normal((100, 4))
        out = gspmm_row_blocks(adj, x, block_nnz=8)
        assert np.allclose(out, to_scipy(adj) @ x)

    def test_parallel_single_span_falls_back(self, rng, monkeypatch):
        adj = random_csr(rng, 10, 10, density=0.3)
        x = rng.standard_normal((10, 2))
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        out = blocked.gspmm_fold(adj, x, block_nnz=10_000)
        assert np.allclose(out, to_scipy(adj) @ x)

    def test_default_num_threads_reads_cpu_count_once(self, monkeypatch):
        import os

        def cpu_count():
            raise AssertionError("os.cpu_count() called per g-SpMM")

        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", cpu_count)
        assert blocked.default_num_threads() == blocked._AUTO_NUM_THREADS
        assert 1 <= blocked._AUTO_NUM_THREADS <= 4
        # the variable is still read per call, and still wins
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert blocked.default_num_threads() == 3
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert blocked.default_num_threads() == blocked._AUTO_NUM_THREADS

    @pytest.mark.parametrize("strategy", BLOCKED)
    def test_shape_mismatch_raises(self, rng, strategy):
        adj = random_csr(rng, 6, 6, density=0.3)
        with pytest.raises(ValueError):
            gspmm(adj, np.ones((7, 2)), strategy=strategy)


class TestWorkspaceArena:
    def test_buffers_reused_across_calls(self, rng):
        adj = random_csr(rng, 40, 40, density=0.2)
        x = rng.standard_normal((40, 5))
        # max keeps the message tile; the sum family folds without one
        semiring = get_semiring("max", "mul")
        ws = WorkspaceArena()
        gspmm_row_blocks(adj, x, semiring, block_nnz=16, workspace=ws)
        assert ws.misses == 1
        gspmm_row_blocks(adj, x, semiring, block_nnz=16, workspace=ws)
        assert ws.misses == 1 and ws.hits >= 1
        gspmm_row_blocks(adj, x, block_nnz=16, workspace=ws)
        assert ws.misses == 1  # sum.mul: compiled fold, no scratch at all

    def test_slots_do_not_alias(self):
        ws = WorkspaceArena()
        a = ws.request((4, 4), slot=0)
        b = ws.request((4, 4), slot=1)
        assert a is not b
        assert ws.request((4, 4), slot=0) is a

    def test_clear(self):
        ws = WorkspaceArena()
        ws.request((8,))
        ws.clear()
        assert ws.num_buffers == 0 and ws.nbytes == 0

    def test_peak_intermediate_is_block_not_edges(self, rng):
        """Acceptance: blocked g-SpMM scratch is O(block·K), not O(E·K)."""
        adj = random_csr(rng, 400, 400, density=0.1)  # ~16k edges
        k, block_nnz = 16, 512
        x = rng.standard_normal((400, k))
        ws = WorkspaceArena()
        out = gspmm_row_blocks(adj, x, block_nnz=block_nnz, workspace=ws)
        assert np.allclose(out, to_scipy(adj) @ x)
        max_degree = int(adj.row_degrees().max())
        tile_cap = max(block_nnz, max_degree)
        assert ws.nbytes <= 8 * tile_cap * k
        assert ws.nbytes < 8 * adj.nnz * k / 4  # far below the naive O(E·K)


class TestGsddmmBlocked:
    @pytest.mark.parametrize(
        "op", ("dot", "add", "mul", "sub", "copy_lhs", "copy_rhs")
    )
    def test_matches_naive(self, rng, op):
        mask = random_csr(rng, 30, 24, density=0.2, weighted=False)
        u = rng.standard_normal((30, 5))
        v = rng.standard_normal((24, 5))
        ref = gsddmm(mask, u, v, op)
        out = gsddmm_blocked(mask, u, v, op, block_nnz=13)
        assert np.allclose(out, ref)

    def test_workspace_reuse(self, rng):
        mask = random_csr(rng, 20, 20, density=0.3, weighted=False)
        u = rng.standard_normal((20, 4))
        v = rng.standard_normal((20, 4))
        ws = WorkspaceArena()
        gsddmm_blocked(mask, u, v, "dot", block_nnz=8, workspace=ws)
        misses = ws.misses
        gsddmm_blocked(mask, u, v, "dot", block_nnz=8, workspace=ws)
        assert ws.misses == misses

    def test_unknown_op_raises(self, rng):
        mask = random_csr(rng, 5, 5, weighted=False)
        with pytest.raises(ValueError):
            gsddmm_blocked(mask, np.ones((5, 1)), np.ones((5, 1)), op="pow")

    @pytest.mark.parametrize("u_rows, v_rows", [(29, 24), (31, 24), (30, 23), (30, 25)])
    def test_operand_height_is_checked_up_front(self, rng, u_rows, v_rows):
        """The unbuffered gathers clamp, so a short operand must not reach
        them — and a long one, which indexing never noticed, is refused too."""
        mask = random_csr(rng, 30, 24, density=0.2, weighted=False)
        with pytest.raises(ValueError, match="shape mismatch"):
            gsddmm_blocked(mask, np.ones((u_rows, 3)), np.ones((v_rows, 3)))

    def test_out_of_range_column_still_raises_without_validation(
        self, rng, monkeypatch
    ):
        good = random_csr(rng, 12, 12, density=0.4, weighted=False)
        indices = good.indices.copy()
        indices[-1] = 12
        monkeypatch.setenv("REPRO_SKIP_VALIDATION", "1")
        bad = type(good)(good.indptr, indices, None, good.shape)
        u, v = np.ones((12, 2)), np.ones((12, 2))
        with pytest.raises(IndexError, match="column index 12"):
            gsddmm_blocked(bad, u, v)
        # one pass per pattern: a clean pattern is not scanned again, nor are
        # the matrices that share it
        gsddmm_blocked(good, u, v)
        assert good._aux["columns_in_range"] is True
        assert good.with_values(np.ones(good.nnz))._aux["columns_in_range"] is True

    @pytest.mark.parametrize("k, tile_edges", [(32, 2048), (16, 4096), (8, 8192)])
    def test_default_tile_is_sized_from_the_operand_width(self, rng, k, tile_edges):
        """Two tiles of 512 KiB, whatever k — not SpMM's 32 768-edge budget."""
        mask = random_csr(rng, 300, 300, density=0.12, weighted=False)
        assert mask.nnz > 8192
        u = rng.standard_normal((300, k))
        v = rng.standard_normal((300, k))
        ws = WorkspaceArena()
        out = gsddmm_blocked(mask, u, v, "dot", workspace=ws)
        assert np.array_equal(out, gsddmm(mask, u, v, "dot"))
        assert ws.num_buffers == 2 and ws.nbytes == 2 * tile_edges * k * 8


class TestStrategyDispatch:
    def test_unknown_strategy_raises(self, rng):
        adj = random_csr(rng, 5, 5)
        with pytest.raises(ValueError):
            gspmm(adj, np.ones((5, 2)), strategy="simd")


@pytest.fixture(scope="module")
def graph():
    return load("CA", "small")


class TestPlanStrategy:
    def _plan_and_binding(self, graph, rng):
        from repro.core.bindings import build_binding

        layer = GCNLayer(16, 8, rng=rng)
        compiled = compile_model("gcn")
        planned = compiled.viable(16, 8)[0]
        from repro.models.functional import prepare_mp_graph

        mpg = prepare_mp_graph(graph)
        feat = rng.standard_normal((graph.num_nodes, 16))
        binding = build_binding(layer, mpg, feat)
        return planned.plan, binding

    @pytest.mark.parametrize("strategy", SPMM_STRATEGIES)
    def test_strategies_match_default(self, graph, rng, strategy):
        plan, binding = self._plan_and_binding(graph, rng)
        with no_grad():
            ref = plan.execute(binding)
            out = plan.execute(binding, strategy=strategy)
        assert np.allclose(out.data, ref.data)


class TestEngineStrategySelection:
    def test_auto_without_models_stays_cheap(self, graph, rng):
        engine = GraniiEngine(device="h100", scale="small")
        layer = GCNLayer(16, 8, rng=rng)
        compiled = compile_model("gcn")
        plan = compiled.viable(16, 8)[0].plan
        env = engine.shape_env(graph, layer)
        from repro.core.features import featurize_graph

        strategy = engine.select_spmm_strategy(plan, env, featurize_graph(graph))
        assert strategy == "row_segment"
        # choosing the strategy never triggers training: nothing is priced
        assert engine._cost_models is None

    def test_a_trained_cpu_set_prices_no_strategy(self, graph, rng):
        """The fold is chosen without pricing, so no strategy has a model."""
        engine = GraniiEngine(device="cpu", system="dgl", scale="small")
        trained = set(engine.cost_models.primitives)
        assert {"spmm", "spmm_unweighted"} <= trained
        assert not {p for p in trained if p.startswith("spmm_")} - {
            "spmm_unweighted"
        }
        layer = GCNLayer(64, 32, rng=rng)
        report = engine.select(engine.compile_for(layer), graph, layer)
        assert report.spmm_strategy == "row_segment"

    def test_optimized_layer_runs_under_every_strategy(self, graph, rng):
        feat = rng.standard_normal((graph.num_nodes, 16))
        out_ref = None
        engine = GraniiEngine(device="h100", scale="small")
        layer = GCNLayer(16, 8, rng=np.random.default_rng(7))
        selection = engine.optimize(layer, graph).selections[0]
        for strategy in SPMM_STRATEGIES:
            layer.attach_executor(engine.make_executor(
                layer, selection.chosen, strategy, guarded=False
            ))
            assert layer.granii_enabled
            out = layer(graph, feat)
            out = getattr(out, "data", out)
            if out_ref is None:
                out_ref = out
            else:
                assert np.allclose(out, out_ref)
