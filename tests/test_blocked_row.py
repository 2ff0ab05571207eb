"""The ``blocked`` row: its differential, its static gate, its arena.

``blocked`` is the one row besides the reference ``row_segment`` fold.
Nothing selects it; it runs where a caller names it (``gspmm``, an
unguarded executor, the verify sweep):

- ``blocked`` is *bitwise* equal to ``row_segment`` across the
  adversarial battery, every semiring and zero-width features, as a
  bare kernel and inside plan execution;
- every promoted zoo plan passes planlint's workspace-lifetime trace
  under it;
- a fault inside a ``blocked`` run releases the run's WorkspaceArena on
  the exception edge.
"""

import numpy as np
import pytest

from repro.analysis.planlint import analyze_plan
from repro.core import GraniiEngine, compile_model
from repro.core.bindings import build_binding
from repro.core.guard import ExecutorCaches
from repro.core.plan import WORKSPACE_CACHE_KEY, KernelExecutionConfig
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
def blocked_raises(monkeypatch):
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
# The static gate verify applies before it runs the row
# ----------------------------------------------------------------------
class TestBlockedStaticGate:
    def test_blocked_strategy_passes_static_analysis_for_zoo(self):
        for model in ("gcn", "gin", "sgc", "tagcn", "gat"):
            for planned in compile_model(model).promoted:
                verdict = analyze_plan(planned.plan, strategies=("blocked",))
                assert verdict.ok, (model, planned.plan.name,
                                    [d.rule for d in verdict.errors])


# ----------------------------------------------------------------------
# A failed run releases its arena
# ----------------------------------------------------------------------
class TestBlockedFaultRelease:
    def test_failed_run_releases_its_workspace(self, graph, blocked_raises):
        engine = GraniiEngine(device="h100", scale="small")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        compiled = engine.compile_for(layer, graph)
        selection = engine.select(compiled, graph, layer)
        caches = ExecutorCaches()
        executor = engine.make_executor(
            layer, selection.chosen, "blocked", guarded=False, caches=caches,
        )
        feats = np.random.default_rng(1).standard_normal((graph.num_nodes, 8))
        with pytest.raises(FaultInjected):
            executor(layer.as_mp_graph(graph), Tensor(feats))
        # the run failed mid-execution: its half-warmed arena must have
        # been dropped from the setup cache
        run_caches = [
            cache for per_graph in caches.setup.values()
            for cache in per_graph.values()
        ]
        assert run_caches
        for cache in run_caches:
            assert WORKSPACE_CACHE_KEY not in cache

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
