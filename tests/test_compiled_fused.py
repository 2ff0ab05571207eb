"""Compiled fused plans: legality, determinism, demotion, cache scoping.

Covers the codegen-v2 seams end to end:

- :func:`repro.analysis.planlint.fusion_legality` +
  :func:`repro.core.codegen.compile_plan` lower promoted plans to fused
  schedules (and record a reason for every declined opportunity);
- :func:`repro.kernels.compiled.gspmm_fused` is *bitwise* equal to the
  step-by-step ``row_segment`` reference across the adversarial battery,
  every semiring, and zero-width features;
- a pinned-but-illegal ``REPRO_SPMM_STRATEGY`` falls back to the
  reference with a warning instead of executing an unproven plan;
- autotuner residuals (``spmm`` / ``spmm_unweighted``) refine cost models
  without poisoning serving-cache fingerprints for unaffected primitives;
- a fault inside the fused callable demotes compiled -> blocked with the
  WorkspaceArena released on the exception edge.
"""

import numpy as np
import pytest

from repro.analysis.planlint import (
    FUSABLE_NONLINEAR_METAS,
    analyze_plan,
    fusion_legality,
)
from repro.core import GraniiEngine, compile_model
from repro.core.autotune import autotune_spmm
from repro.core.bindings import build_binding
from repro.core.codegen import (
    clear_plan_compile_cache,
    compile_plan,
    compile_sweep,
)
from repro.core.costmodel import (
    STRATEGY_PRICING_PRIMITIVES,
    clear_runtime_residuals,
    cost_model_token,
    record_runtime_residual,
)
from repro.core.plan import KernelExecutionConfig
from repro.core.verify import adversarial_battery
from repro.faults import FaultPlan, fault_injection
from repro.framework import MPGraph, get_system
from repro.graphs.generators import erdos_renyi
from repro.kernels import WorkspaceArena, gspmm
from repro.kernels.compiled import FUSABLE_NONLINEARS, gspmm_fused
from repro.kernels.semiring import get_semiring
from repro.models import build_layer
from repro.serving import fingerprint_graph
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 6.0, seed=3)


@pytest.fixture(autouse=True)
def _pristine_residuals():
    clear_runtime_residuals()
    yield
    clear_runtime_residuals()


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


# ----------------------------------------------------------------------
# Legality analysis and plan lowering
# ----------------------------------------------------------------------
class TestFusionLegality:
    def test_nonlinear_whitelists_agree(self):
        # planlint must never import kernels; the whitelist is duplicated
        # and this pin keeps the copies in lockstep
        assert tuple(FUSABLE_NONLINEAR_METAS) == tuple(FUSABLE_NONLINEARS)

    def test_gcn_plans_fuse_their_tails(self):
        compiled = compile_model("gcn")
        fused_any = False
        for planned in compiled.promoted:
            report = fusion_legality(planned.plan)
            for segment in report.segments:
                fused_any = True
                assert segment.spmm.primitive in ("spmm", "spmm_unweighted")
                assert segment.members  # absorbs at least the tail
        assert fused_any

    def test_compile_plan_schedules_segment_and_caches(self):
        plan = compile_model("gcn").promoted[0].plan
        clear_plan_compile_cache()
        cp = compile_plan(plan)
        assert cp is compile_plan(plan)  # id-keyed cache
        kinds = [kind for kind, _ in cp.schedule]
        assert "fused" in kinds
        assert cp.fused_step_count >= 1
        # fused segments replace their members: the schedule is shorter
        assert len(cp.schedule) == len(plan.steps) - cp.fused_step_count + len(
            cp.segments
        )
        clear_plan_compile_cache()
        assert compile_plan(plan) is not cp

    def test_zoo_sweep_has_no_silent_fallbacks(self):
        records = compile_sweep()
        assert records
        assert all(r["clean"] for r in records), [
            r["plan"] for r in records if not r["clean"]
        ]
        assert any(r["segments"] for r in records)


# ----------------------------------------------------------------------
# Satellite 4: differential battery, bitwise determinism
# ----------------------------------------------------------------------
class TestFusedDifferential:
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
        # copy_lhs ignores the dense operand: the row_segment reference
        # emits width-1 output, so the cross-width comparison only holds
        # against blocked (which broadcasts, like fused does)
        ref_widths = (1,) if names[1] == "copy_lhs" else (0, 1, 5)
        for graph in adversarial_battery(quick=True):
            adj = graph.adj
            for k in (0, 1, 5):  # zero-width features included
                x = rng.standard_normal((adj.shape[1], k))
                blocked = gspmm(adj, x, semiring, strategy="blocked")
                ref = (
                    gspmm(adj, x, semiring, strategy="row_segment")
                    if k in ref_widths else blocked
                )
                for block_nnz in (3, 64, None):
                    out = gspmm_fused(adj, x, semiring, block_nnz=block_nnz)
                    assert out.shape == ref.shape
                    assert np.array_equal(out, ref), (
                        graph.name, names, k, block_nnz
                    )
                    assert np.array_equal(out, blocked)

    def test_pre_scale_and_epilogues_bitwise_vs_stepwise(self):
        rng = np.random.default_rng(7)
        for graph in adversarial_battery(quick=True):
            adj = graph.adj_with_self_loops()
            n = adj.shape[0]
            x = rng.standard_normal((adj.shape[1], 6))
            d_in = rng.random(adj.shape[1]) + 0.5
            d_out = rng.random(n) + 0.5
            # the interpreter's steps, one materialisation at a time
            scaled = d_in[:, None] * x
            agg = gspmm(adj, scaled, strategy="row_segment")
            stepwise = np.maximum(d_out[:, None] * agg, 0.0)
            fused = gspmm_fused(
                adj, x,
                block_nnz=5,
                pre_scale=d_in,
                epilogues=(("scale", d_out), ("nonlinear", "relu")),
            )
            assert np.array_equal(fused, stepwise), graph.name

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
                                  "spmm_fused")
                assert np.array_equal(
                    np.asarray(out), np.asarray(ref)
                ), (model, planned.plan.name, graph.name)

    def test_input_validation(self):
        adj = erdos_renyi(10, 3.0, seed=1).adj
        x = np.ones((10, 2))
        with pytest.raises(ValueError, match="pre-scale length"):
            gspmm_fused(adj, x, pre_scale=np.ones(7))
        with pytest.raises(ValueError, match="ignores it"):
            gspmm_fused(adj, x, get_semiring("sum", "copy_lhs"),
                        pre_scale=np.ones(10))
        with pytest.raises(ValueError, match="one entry per output row"):
            gspmm_fused(adj, x, epilogues=(("scale", np.ones(3)),))
        with pytest.raises(ValueError, match="nonlinearity"):
            gspmm_fused(adj, x, epilogues=(("nonlinear", "tanhh"),))


# ----------------------------------------------------------------------
# Satellite 1: pinned strategies still pass the legality gate
# ----------------------------------------------------------------------
class TestPinnedStrategyGate:
    def _plan_env_vec(self, engine, graph, layer):
        from repro.core.features import featurize_graph

        compiled = engine.compile_for(layer, graph)
        env = engine.shape_env(graph, layer)
        plan = compiled.viable(env["K1"], env["K2"])[0].plan
        return plan, env, featurize_graph(graph)

    def test_legal_pinned_fused_is_honoured(self, graph):
        engine = GraniiEngine(device="h100", scale="small",
                              spmm_strategy="spmm_fused")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        plan, env, vec = self._plan_env_vec(engine, graph, layer)
        strategy = engine.select_spmm_strategy(plan, env, vec)
        assert strategy == "spmm_fused"

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
                              spmm_strategy="spmm_fused")
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

    def test_fused_strategy_passes_static_analysis_for_zoo(self):
        # the pinned gate and verify's static gate share this invariant
        for model in ("gcn", "gin", "sgc", "tagcn", "gat"):
            for planned in compile_model(model).promoted:
                verdict = analyze_plan(
                    planned.plan, strategies=("blocked", "spmm_fused")
                )
                assert verdict.ok, (model, planned.plan.name,
                                    [d.rule for d in verdict.errors])


# ----------------------------------------------------------------------
# Satellite 2: residuals must not poison the serving cache
# ----------------------------------------------------------------------
class TestResidualCacheScoping:
    def test_pristine_store_has_empty_token(self):
        assert cost_model_token("h100") == ""

    def test_out_of_scope_residual_keeps_fingerprints_stable(self, graph):
        base = fingerprint_graph(
            graph, "gcn", 8, 4, cost_token=cost_model_token("h100")
        )
        # gemm is not a strategy-pricing primitive: refining it must not
        # invalidate aggregation-plan cache entries; nor must a residual
        # under a strategy's name, which no plan call prices
        assert "gemm" not in STRATEGY_PRICING_PRIMITIVES
        record_runtime_residual("h100", "gemm", measured_seconds=2.0,
                                predicted_seconds=1.0)
        record_runtime_residual("h100", "spmm_fused", measured_seconds=2.0,
                                predicted_seconds=1.0)
        assert cost_model_token("h100") == ""
        after = fingerprint_graph(
            graph, "gcn", 8, 4, cost_token=cost_model_token("h100")
        )
        assert after == base

    def test_in_scope_residual_invalidates_fingerprints(self, graph):
        base = fingerprint_graph(
            graph, "gcn", 8, 4, cost_token=cost_model_token("h100")
        )
        record_runtime_residual("h100", "spmm", measured_seconds=2.0,
                                predicted_seconds=1.0)
        token = cost_model_token("h100")
        assert token != ""
        after = fingerprint_graph(graph, "gcn", 8, 4, cost_token=token)
        assert after.key != base.key and after.token != base.token

    def test_token_scoped_per_device(self):
        record_runtime_residual("h100", "spmm", 2.0, 1.0)
        assert cost_model_token("h100") != ""
        assert cost_model_token("a100") == ""

    def test_identical_refinements_share_a_token(self):
        record_runtime_residual("h100", "spmm_unweighted", 3.0, 1.5)
        first = cost_model_token("h100")
        clear_runtime_residuals()
        record_runtime_residual("h100", "spmm_unweighted", 3.0, 1.5)
        assert cost_model_token("h100") == first  # deterministic keying


# ----------------------------------------------------------------------
# Satellite 3: guard demotion from a compiled plan releases the arena
# ----------------------------------------------------------------------
class TestFusedFaultDemotion:
    def test_fault_in_fused_callable_demotes_to_blocked(self, graph):
        engine = GraniiEngine(device="h100", scale="small",
                              spmm_strategy="spmm_fused", guarded=True)
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        feats = feats_for(graph)
        baseline = np.asarray(
            layer.forward(layer.as_mp_graph(graph), Tensor(feats)).data
        )
        report = engine.optimize(layer, graph, feats)
        selection = report.selections[0]
        assert selection.spmm_strategy == "spmm_fused"
        fault = FaultPlan.from_string("spmm_fused:raise:1", seed=0)
        with fault_injection(fault):
            out = np.asarray(layer(graph, feats).data)
        assert fault.fired.get(("spmm_fused", "raise"), 0) >= 1
        np.testing.assert_allclose(out, baseline, rtol=1e-6, atol=1e-9)
        assert selection.demotions
        first = selection.demotions[0]
        assert first.from_label.endswith("@spmm_fused")
        assert first.to_label.endswith("@blocked")
        assert first.error_type == "FaultInjected"

    def test_demotion_releases_fused_rung_workspace(self, graph):
        from repro.core.plan import WORKSPACE_CACHE_KEY

        engine = GraniiEngine(device="h100", scale="small",
                              spmm_strategy="spmm_fused", guarded=True)
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        feats = feats_for(graph)
        compiled = engine.compile_for(layer, graph)
        selection = engine.select(compiled, graph, layer)
        executor = engine.make_executor(
            layer, selection.chosen, selection.spmm_strategy,
            selection=selection,
        )
        mp = layer.as_mp_graph(graph)
        fault = FaultPlan.from_string("spmm_fused:raise:1", seed=0)
        with fault_injection(fault):
            out = executor(mp, Tensor(feats))
        assert np.asarray(out.data).shape == (graph.num_nodes, 4)
        # rung 0 (the fused plan) failed mid-execution: its half-warmed
        # arena must have been dropped from the rung's setup cache
        fused_caches = [
            cache for per_graph in executor.caches.setup.values()
            for (mode, rung), cache in per_graph.items() if rung == 0
        ]
        assert fused_caches
        for cache in fused_caches:
            assert WORKSPACE_CACHE_KEY not in cache
        # the surviving blocked rung keeps its legitimately warmed arena
        assert executor.rungs[executor.rung][1] == "blocked"

    def test_kernel_exception_edge_drops_buffers(self, monkeypatch):
        import repro.kernels.blocked as blocked_mod

        def boom(*args, **kwargs):
            raise RuntimeError("mid-tile failure")

        adj = erdos_renyi(30, 4.0, seed=2).adj
        # the sum family folds without a tile, but the pre-scale buffer
        # is already pooled when the fold raises
        monkeypatch.setattr(blocked_mod, "fold_rows", boom)
        workspace = WorkspaceArena()
        with pytest.raises(RuntimeError, match="mid-tile"):
            gspmm_fused(
                adj, np.ones((30, 3)), workspace=workspace,
                pre_scale=np.ones(30),
            )
        assert workspace.nbytes == 0  # nothing left pooled

        # max keeps the arena tile: tiled path through segment_reduce
        monkeypatch.setattr(blocked_mod, "segment_reduce", boom)
        weighted = adj.with_values(np.arange(1.0, adj.nnz + 1.0))
        workspace = WorkspaceArena()
        with pytest.raises(RuntimeError, match="mid-tile"):
            gspmm_fused(
                weighted, np.ones((30, 3)), get_semiring("max", "mul"),
                workspace=workspace,
            )
        assert workspace.nbytes == 0  # nothing left pooled


# ----------------------------------------------------------------------
# Autotuner
# ----------------------------------------------------------------------
class TestAutotune:
    def test_times_the_fold(self):
        adj = erdos_renyi(200, 8.0, seed=4).adj
        result = autotune_spmm(adj, 8, warmup=0, repeats=1)
        assert result.strategy == "row_segment" and result.seconds > 0
        assert result.residuals == {}
        assert result.describe().startswith("autotune: row_segment:")
        pinned = autotune_spmm(adj, 8, strategy="blocked", warmup=0, repeats=1)
        assert pinned.strategy == "blocked"

    def test_selection_records_measurements_and_residuals(
        self, graph, monkeypatch
    ):
        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        monkeypatch.setenv("REPRO_AUTOTUNE_WARMUP", "0")
        monkeypatch.setenv("REPRO_AUTOTUNE_REPEATS", "1")
        engine = GraniiEngine(device="h100", scale="small")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        _ = engine.cost_models  # residual feedback needs trained models
        selection = engine.select(
            engine.compile_for(layer, graph), graph, layer
        )
        assert list(selection.strategy_costs) == ["measured:row_segment"]
        assert selection.strategy_costs["measured:row_segment"] > 0
        # the refinement advanced the device's cost-model token
        assert cost_model_token("h100") != ""

    def test_disabled_by_default(self, graph):
        engine = GraniiEngine(device="h100", scale="small")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        selection = engine.select(
            engine.compile_for(layer, graph), graph, layer
        )
        assert not any(k.startswith("measured:")
                       for k in selection.strategy_costs)
        assert cost_model_token("h100") == ""
