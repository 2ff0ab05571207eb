"""The ``blocked`` row: its differential, its static gate, its arena.

``blocked`` is the one row besides the reference ``row_segment`` fold.
Nothing selects it; it runs where a caller names it (``gspmm``, an
unguarded executor, the verify sweep):

- ``blocked`` is *bitwise* equal to ``row_segment`` across the
  adversarial battery, every semiring and zero-width features, as a
  bare kernel and inside plan execution;
- every promoted zoo plan passes planlint's workspace-lifetime trace
  under it;
- a fault inside a ``blocked`` kernel releases its WorkspaceArena on
  the exception edge.
"""

import numpy as np
import pytest

from repro.analysis.planlint import analyze_plan
from repro.core import compile_model
from repro.core.bindings import build_binding
from repro.core.verify import adversarial_battery
from repro.framework import MPGraph, get_system
from repro.graphs.generators import erdos_renyi
from repro.kernels import WorkspaceArena, gspmm
from repro.kernels.semiring import get_semiring
from repro.models import build_layer
from repro.tensor import no_grad


def plan_output(plan, layer, graph, feats, strategy):
    mp = MPGraph(
        graph.adj_with_self_loops() if layer.wants_self_loops else graph.adj
    )
    binding = build_binding(layer, mp, feats, get_system("dgl").degree_method)
    with no_grad():
        return plan.execute(binding, strategy=strategy).data


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
                assert np.array_equal(out, ref), (
                    model, planned.plan.name, graph.name
                )


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
# A failed kernel releases its arena
# ----------------------------------------------------------------------
class TestBlockedFaultRelease:
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
            blocked_mod.gspmm_row_blocks(
                weighted, np.ones((30, 3)), get_semiring("max", "mul"),
                workspace=workspace,
            )
        assert workspace.nbytes == 0  # nothing left pooled
