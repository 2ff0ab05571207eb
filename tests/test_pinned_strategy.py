"""A pinned SpMM strategy: its legality gate, its differential, its demotion.

``blocked`` is the one row besides the reference ``row_segment`` fold,
and it runs only when pinned (``REPRO_SPMM_STRATEGY``,
``GraniiEngine(spmm_strategy=...)``):

- a pinned row passes planlint's workspace-lifetime gate before it
  runs, and a row the analyzer rejects falls back to the reference with
  a warning instead of executing an unproven plan;
- ``blocked`` is *bitwise* equal to ``row_segment`` across the
  adversarial battery, every semiring and zero-width features, as a
  bare kernel and inside plan execution;
- a fault inside the ``blocked`` rung demotes the plan to
  ``row_segment`` with the rung's WorkspaceArena released on the
  exception edge.
"""

import numpy as np
import pytest

from repro.analysis.planlint import analyze_plan
from repro.core import GraniiEngine, compile_model
from repro.core.bindings import build_binding
from repro.core.plan import KernelExecutionConfig
from repro.core.verify import adversarial_battery
from repro.faults import FaultInjected
from repro.framework import MPGraph, get_system
from repro.graphs.generators import erdos_renyi
from repro.kernels import WorkspaceArena, gspmm
from repro.kernels.semiring import get_semiring
from repro.models import build_layer
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 6.0, seed=3)


def feats_for(graph, k=8, seed=1):
    return np.random.default_rng(seed).standard_normal((graph.num_nodes, k))


def plan_output(plan, layer, graph, feats, strategy):
    mp = MPGraph(
        graph.adj_with_self_loops() if layer.wants_self_loops else graph.adj
    )
    binding = build_binding(
        layer, mp, feats, "numpy", get_system("dgl").degree_method
    )
    return plan.execute(
        binding,
        mode="numpy",
        kernel_config=KernelExecutionConfig(strategy=strategy),
    )


@pytest.fixture
def blocked_rung_raises(monkeypatch):
    """Every ``blocked`` aggregation raises; ``row_segment`` still runs."""
    import repro.kernels.blocked as blocked_mod

    def boom(*args, **kwargs):
        raise FaultInjected("injected raise in blocked")

    monkeypatch.setattr(blocked_mod, "gspmm_row_blocks", boom)


# ----------------------------------------------------------------------
# Differential battery, bitwise determinism
# ----------------------------------------------------------------------
class TestBlockedDifferential:
    SEMIRINGS = [
        ("sum", "mul"),
        ("sum", "copy_rhs"),
        ("sum", "copy_lhs"),
        ("sum", "add"),
        ("max", "mul"),
        ("min", "mul"),
        ("mean", "mul"),
        ("max", "add"),
    ]

    @pytest.mark.parametrize("names", SEMIRINGS, ids=lambda p: ".".join(p))
    def test_bare_kernel_bitwise_vs_row_segment(self, names):
        semiring = get_semiring(*names)
        rng = np.random.default_rng(0)
        # copy_lhs ignores the dense operand: row_segment emits a width-1
        # result, blocked broadcasts it, so they agree at width 1 only
        ref_widths = (1,) if names[1] == "copy_lhs" else (0, 1, 5)
        for graph in adversarial_battery(quick=True):
            adj = graph.adj
            for k in ref_widths:  # zero-width features included
                x = rng.standard_normal((adj.shape[1], k))
                ref = gspmm(adj, x, semiring, strategy="row_segment")
                for block_nnz in (3, 64, None):
                    out = gspmm(
                        adj, x, semiring, strategy="blocked",
                        block_nnz=block_nnz,
                    )
                    assert out.shape == ref.shape
                    assert np.array_equal(out, ref), (
                        graph.name, names, k, block_nnz
                    )

    @pytest.mark.parametrize("model", ["gcn", "gin"])
    def test_plan_execution_bitwise_vs_row_segment(self, model):
        layer = build_layer(model, 6, 4, rng=np.random.default_rng(0))
        compiled = compile_model(model)
        rng = np.random.default_rng(1)
        for graph in adversarial_battery(quick=True):
            feats = rng.standard_normal((graph.num_nodes, 6))
            for planned in compiled.promoted:
                ref = plan_output(planned.plan, layer, graph, feats,
                                  "row_segment")
                out = plan_output(planned.plan, layer, graph, feats,
                                  "blocked")
                assert np.array_equal(
                    np.asarray(out), np.asarray(ref)
                ), (model, planned.plan.name, graph.name)


# ----------------------------------------------------------------------
# Pinned strategies still pass the legality gate
# ----------------------------------------------------------------------
class TestPinnedStrategyGate:
    def _plan_env_vec(self, engine, graph, layer):
        from repro.core.features import featurize_graph

        compiled = engine.compile_for(layer, graph)
        env = engine.shape_env(graph, layer)
        plan = compiled.viable(env["K1"], env["K2"])[0].plan
        return plan, env, featurize_graph(graph)

    def test_legal_pinned_blocked_is_honoured(self, graph):
        engine = GraniiEngine(device="h100", scale="small",
                              spmm_strategy="blocked")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        plan, env, vec = self._plan_env_vec(engine, graph, layer)
        strategy = engine.select_spmm_strategy(plan, env, vec)
        assert strategy == "blocked"

    def test_illegal_pinned_strategy_falls_back_with_warning(
        self, graph, monkeypatch
    ):
        # simulate a plan the analyzer rejects under the pinned strategy:
        # the gate, not the analyzer, is under test here
        class FakeDiag:
            rule = "workspace-imbalance"

        class FakeVerdict:
            ok = False
            errors = [FakeDiag()]

        import repro.analysis.planlint as planlint_mod

        monkeypatch.setattr(
            planlint_mod, "analyze_plan",
            lambda plan, env=None, strategies=("blocked",): FakeVerdict(),
        )
        engine = GraniiEngine(device="h100", scale="small",
                              spmm_strategy="blocked")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        plan, env, vec = self._plan_env_vec(engine, graph, layer)
        with pytest.warns(RuntimeWarning, match="workspace-imbalance"):
            strategy = engine.select_spmm_strategy(plan, env, vec)
        assert strategy == "row_segment"

    def test_row_segment_pin_skips_the_gate(self, graph):
        # the reference strategy is trusted unconditionally
        engine = GraniiEngine(device="h100", scale="small",
                              spmm_strategy="row_segment")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        plan, env, vec = self._plan_env_vec(engine, graph, layer)
        assert engine.select_spmm_strategy(plan, env, vec) == "row_segment"

    def test_blocked_strategy_passes_static_analysis_for_zoo(self):
        # the pinned gate and verify's static gate share this invariant
        for model in ("gcn", "gin", "sgc", "tagcn", "gat"):
            for planned in compile_model(model).promoted:
                verdict = analyze_plan(planned.plan, strategies=("blocked",))
                assert verdict.ok, (model, planned.plan.name,
                                    [d.rule for d in verdict.errors])


# ----------------------------------------------------------------------
# Guard demotion from a pinned row releases the arena
# ----------------------------------------------------------------------
class TestPinnedFaultDemotion:
    def test_fault_in_blocked_rung_demotes_to_row_segment(
        self, graph, blocked_rung_raises
    ):
        engine = GraniiEngine(device="h100", scale="small",
                              spmm_strategy="blocked", guarded=True)
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        feats = feats_for(graph)
        baseline = np.asarray(
            layer.forward(layer.as_mp_graph(graph), Tensor(feats)).data
        )
        report = engine.optimize(layer, graph, feats)
        selection = report.selections[0]
        assert selection.spmm_strategy == "blocked"
        out = np.asarray(layer(graph, feats).data)
        np.testing.assert_allclose(out, baseline, rtol=1e-6, atol=1e-9)
        assert selection.demotions
        first = selection.demotions[0]
        assert first.from_label.endswith("@blocked")
        assert first.to_label.endswith("@row_segment")
        assert first.error_type == "FaultInjected"

    def test_demotion_releases_blocked_rung_workspace(
        self, graph, blocked_rung_raises
    ):
        from repro.core.plan import WORKSPACE_CACHE_KEY

        engine = GraniiEngine(device="h100", scale="small",
                              spmm_strategy="blocked", guarded=True)
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        feats = feats_for(graph)
        compiled = engine.compile_for(layer, graph)
        selection = engine.select(compiled, graph, layer)
        executor = engine.make_executor(
            layer, selection.chosen, selection.spmm_strategy,
            selection=selection,
        )
        mp = layer.as_mp_graph(graph)
        out = executor(mp, Tensor(feats))
        assert np.asarray(out.data).shape == (graph.num_nodes, 4)
        # rung 0 (the blocked plan) failed mid-execution: its half-warmed
        # arena must have been dropped from the rung's setup cache
        blocked_caches = [
            cache for per_graph in executor.caches.setup.values()
            for (mode, rung), cache in per_graph.items() if rung == 0
        ]
        assert blocked_caches
        for cache in blocked_caches:
            assert WORKSPACE_CACHE_KEY not in cache
        # the surviving rung is the reference fold, which keeps no arena
        assert executor.rungs[executor.rung][1] == "row_segment"

    def test_kernel_exception_edge_drops_buffers(self, monkeypatch):
        import repro.kernels.blocked as blocked_mod

        def boom(*args, **kwargs):
            raise RuntimeError("mid-tile failure")

        # max keeps the arena tile: tiled path through segment_reduce
        monkeypatch.setattr(blocked_mod, "segment_reduce", boom)
        adj = erdos_renyi(30, 4.0, seed=2).adj
        weighted = adj.with_values(np.arange(1.0, adj.nnz + 1.0))
        workspace = WorkspaceArena()
        with pytest.raises(RuntimeError, match="mid-tile"):
            gspmm(
                weighted, np.ones((30, 3)), get_semiring("max", "mul"),
                strategy="blocked", workspace=workspace,
            )
        assert workspace.nbytes == 0  # nothing left pooled
