"""Tests for plan memory accounting and memory-aware selection."""

from repro.core import GraniiEngine, ShapeEnv, compile_model
from repro.graphs import load


ENV = ShapeEnv({"N": 1000, "E": 20000, "K1": 64, "K2": 64})


class TestPeakMemory:
    def test_positive_and_scales_with_k(self):
        compiled = compile_model("gcn")
        for planned in compiled.promoted:
            small = planned.plan.peak_memory_bytes(
                ShapeEnv({"N": 1000, "E": 20000, "K1": 16, "K2": 16})
            )
            big = planned.plan.peak_memory_bytes(
                ShapeEnv({"N": 1000, "E": 20000, "K1": 512, "K2": 512})
            )
            assert 0 < small < big

    def test_includes_leaf_inputs(self):
        compiled = compile_model("gcn")
        plan = compiled.promoted[0].plan
        # at minimum: H (N x K1) and the adjacency
        floor = 8 * ENV["N"] * ENV["K1"] + 16 * ENV["E"]
        assert plan.peak_memory_bytes(ENV) >= floor

    def test_fused_gat_leaner_than_unfused(self):
        compiled = compile_model("gat", fusion=True)
        env = ShapeEnv({"N": 1000, "E": 50000, "K1": 64, "K2": 128})
        fused = compiled.find(gat="fused_reuse")[0].plan.peak_memory_bytes(env)
        unfused = compiled.find(gat="reuse")[0].plan.peak_memory_bytes(env)
        assert fused < unfused  # no nnz×k message materialisation

    def test_sum_family_spmm_budgets_no_message_scratch(self):
        # the compiled row fold accumulates straight into the output:
        # no 8·nnz·k message array is left for the budget to shed on
        from repro.kernels.registry import transient_bytes

        shape = {"m": 1000.0, "nnz": 20000.0, "k": 64.0}
        assert transient_bytes("spmm", shape) == 0.0
        assert transient_bytes("spmm_unweighted", shape) == 8.0 * 20000
        plan = compile_model("gcn").find(norm="precompute")[0].plan
        resident = 8 * ENV["N"] * (ENV["K1"] + ENV["K2"]) + 16 * ENV["E"]
        assert plan.peak_memory_bytes(ENV) < resident + 8 * ENV["E"] * ENV["K1"]

    def test_dynamic_vs_precompute_memory(self):
        compiled = compile_model("gcn")
        dyn = compiled.find(norm="dynamic")[0].plan.peak_memory_bytes(ENV)
        pre = compiled.find(norm="precompute")[0].plan.peak_memory_bytes(ENV)
        # precompute holds an extra weighted adjacency copy
        assert pre > dyn * 0.8  # same order; both bounded sensibly
        assert dyn < 10 * pre


class TestMemoryAwareSelection:
    def test_limit_filters_heavy_plans(self, rng):
        graph = load("CA", "small")
        from repro.models import GATLayer

        layer = GATLayer(32, 128, rng=rng)
        # a permissive engine considers both GAT plans; a strict-memory
        # engine must drop at least one
        loose = GraniiEngine(device="h100", scale="small")
        report_loose = loose.select(loose.compile_for(layer), graph, layer)
        assert report_loose.viable_count == 2
        env = loose.shape_env(graph, layer)
        peaks = sorted(
            p.plan.peak_memory_bytes(env)
            for p in loose.compile_for(layer).viable(32, 128)
        )
        limit = (peaks[0] + peaks[1]) / 2  # between the two plans
        strict = GraniiEngine(
            device="h100", scale="small", memory_limit_bytes=limit
        )
        report_strict = strict.select(strict.compile_for(layer), graph, layer)
        assert report_strict.memory_filtered_count == 1
        assert report_strict.peak_memory_bytes <= limit

    def test_degrades_gracefully_when_nothing_fits(self, rng):
        graph = load("CA", "small")
        from repro.models import GCNLayer

        layer = GCNLayer(32, 32, rng=rng)
        engine = GraniiEngine(
            device="h100", scale="small", memory_limit_bytes=1.0
        )
        report = engine.select(engine.compile_for(layer), graph, layer)
        assert report.viable_count == 1  # leanest plan kept
        assert report.memory_filtered_count >= 1

    def test_report_carries_peak_memory(self, rng):
        graph = load("CA", "small")
        from repro.models import GCNLayer

        layer = GCNLayer(16, 16, rng=rng)
        engine = GraniiEngine(device="h100", scale="small")
        report = engine.select(engine.compile_for(layer), graph, layer)
        assert report.peak_memory_bytes > 0
        assert report.memory_filtered_count == 0
