"""Tests for the evaluation harness: per-cell evaluation, sweeps, drivers.

These run at ``scale="small"`` so the whole file stays fast; the
shape-level assertions (who wins where) are the ones the benchmarks
verify again at full scale.
"""

import pytest

from repro.experiments import (
    EMBEDDING_PAIRS,
    GAT_EMBEDDING_PAIRS,
    Workload,
    embedding_pairs_for,
    evaluate_workload,
    geomean,
    run_sweep,
    sweep_workloads,
)
from repro.experiments import (
    enumeration_stats,
    fig2_runtime_split,
    fig3_complexity,
    overheads,
    table5_layers,
)
from repro.core.plan import Plan
from repro.core.runtime import GraniiEngine
from repro.experiments.multilayer import evaluate_multilayer
from repro.experiments.report import format_speedup, render_table
from repro.experiments.table6_oracles import oracle_speedup


class TestWorkloadEvaluation:
    def test_result_fields_consistent(self):
        w = Workload("gcn", "CA", 64, 32, scale="small")
        r = evaluate_workload(w)
        assert r.default_seconds > 0
        assert r.granii_seconds > 0
        assert r.optimal_seconds <= r.default_seconds + 1e-12
        assert r.optimal_seconds <= min(r.plan_seconds.values()) + 1e-12
        assert r.speedup == pytest.approx(r.default_seconds / r.granii_seconds)

    def test_granii_close_to_optimal(self):
        # across a handful of cells, GRANII's choice should be within a
        # few percent of hindsight-optimal on (geo)average
        ratios = []
        for model in ("gcn", "gin", "gat"):
            for code in ("MC", "BL"):
                w = Workload(model, code, 32, 128, scale="small")
                r = evaluate_workload(w)
                ratios.append(r.optimal_seconds / r.granii_seconds)
        assert geomean(ratios) > 0.85

    def test_training_slower_than_inference(self):
        wi = Workload("gcn", "CA", 128, 128, mode="inference", scale="small")
        wt = Workload("gcn", "CA", 128, 128, mode="training", scale="small")
        ri, rt = evaluate_workload(wi), evaluate_workload(wt)
        assert rt.default_seconds > ri.default_seconds

    def test_iterations_amortise_setup(self):
        few = evaluate_workload(
            Workload("gcn", "BL", 64, 64, iterations=1, scale="small")
        )
        many = evaluate_workload(
            Workload("gcn", "BL", 64, 64, iterations=1000, scale="small")
        )
        # with one iteration, the precompute composition pays its full
        # setup; with many, it amortises away
        pre_few = min(v for k, v in few.plan_seconds.items() if "precompute" in k)
        pre_many = min(v for k, v in many.plan_seconds.items() if "precompute" in k)
        assert pre_few > pre_many

    def test_embedding_pairs(self):
        assert embedding_pairs_for("gat") == GAT_EMBEDDING_PAIRS
        assert embedding_pairs_for("gcn") == EMBEDDING_PAIRS
        assert all(a < b for a, b in GAT_EMBEDDING_PAIRS)

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])


class TestSweep:
    def test_workload_grid_counts(self):
        loads = sweep_workloads(
            models=("gcn", "gat"),
            graphs=("MC", "BL"),
            grid=(("dgl", "h100"),),
            modes=("inference",),
            scale="small",
        )
        assert len(loads) == 2 * (len(EMBEDDING_PAIRS) + len(GAT_EMBEDDING_PAIRS))

    def test_small_sweep_aggregation(self):
        sweep = run_sweep(
            models=("gcn",),
            graphs=("MC", "BL"),
            grid=(("dgl", "h100"), ("wisegraph", "a100")),
            modes=("inference",),
            scale="small",
        )
        overall = sweep.geomean_speedup()
        assert overall >= 0.95  # GRANII should not lose on average
        per_system = sweep.geomean_speedup(system="wisegraph")
        assert per_system > 0
        with pytest.raises(ValueError):
            sweep.geomean_speedup(system="pyg")
        assert sweep.geomean_optimal_speedup() >= overall - 1e-9


class TestOracles:
    def test_oracle_never_beats_optimal(self):
        sweep = run_sweep(
            models=("gcn",),
            graphs=("MC", "BL", "CA"),
            grid=(("dgl", "h100"), ("dgl", "cpu")),
            modes=("inference",),
            scale="small",
        )
        results = sweep.results
        optimal = geomean([r.optimal_speedup for r in results])
        for factor in (
            lambda r: (r.workload.in_size, r.workload.out_size),
            lambda r: r.workload.graph_code,
            lambda r: r.workload.device,
        ):
            assert oracle_speedup(results, factor) <= optimal + 1e-9


class TestDrivers:
    def test_enumeration_stats_match_paper_structure(self):
        stats = enumeration_stats.run()
        gat = stats.for_model("gat")
        assert (gat["enumerated"], gat["pruned"]) == (2, 0)
        gcn = stats.for_model("gcn")
        assert gcn["promoted"] == 4
        assert gcn["pruned"] >= gcn["promoted"]
        assert "GAT" in stats.render()

    def test_fig2_split_varies(self):
        f2 = fig2_runtime_split.run(scale="small", pairs=((32, 32), (1024, 1024)))
        lo, hi = f2.sparse_fraction_range()
        assert hi - lo > 0.3  # the paper's point: the split swings widely
        assert "sparse" in f2.render()

    def test_fig3_complexity_rows(self):
        f3 = fig3_complexity.run()
        assert any(r.primitive == "attention" for r in f3.rows)
        assert any(r.phase == "setup" for r in f3.rows)
        assert "O(E)" in f3.render()

    def test_multilayer_setup_shared(self):
        two = evaluate_multilayer("gcn", "BL", [64, 64, 64], scale="small",
                                  system="dgl", iterations=1)
        one = evaluate_multilayer("gcn", "BL", [64, 64], scale="small",
                                  system="dgl", iterations=1)
        # the second layer must cost less than a full extra copy of the
        # first (shared Ñ setup is deduplicated)
        assert two.granii_seconds < 2.2 * one.granii_seconds

    def test_multilayer_training_prices_the_first_layer_without_input_grad(
        self, monkeypatch
    ):
        # the stack's input features carry no gradient, as in
        # GraniiEngine.optimize: only the second layer's backward has the
        # input-gradient kernels, for timing and for selection alike
        timed, priced = [], []
        backward_calls = Plan.backward_calls
        predict_plan_cost = GraniiEngine.predict_plan_cost

        def record_backward(plan, env, input_grad=True):
            timed.append(input_grad)
            return backward_calls(plan, env, input_grad)

        def record_price(engine, plan, env, graph_vec, input_grad=True):
            priced.append(input_grad)
            return predict_plan_cost(engine, plan, env, graph_vec, input_grad)

        monkeypatch.setattr(Plan, "backward_calls", record_backward)
        monkeypatch.setattr(GraniiEngine, "predict_plan_cost", record_price)
        evaluate_multilayer("gcn", "BL", [64, 64, 64], scale="small",
                            system="dgl", mode="training", iterations=1)
        assert timed == [False, True] * 2  # the default chain, then GRANII's
        half = len(priced) // 2
        assert priced and priced == [False] * half + [True] * half

    def test_multilayer_validates(self):
        with pytest.raises(ValueError):
            evaluate_multilayer("gcn", "BL", [64], scale="small")

    def test_table5_consistent_speedups(self):
        t5 = table5_layers.run(
            scale="small", models=("gcn",), graphs=("BL",),
            feat_dim=64, hidden=64,
        )
        sp = t5.speedups_for("gcn", "BL")
        assert len(sp) == 4
        assert min(sp) > 0.9  # consistent: no depth regresses materially

    def test_overheads_reported(self):
        ov = overheads.run(scale="small", in_size=64, out_size=64)
        assert len(ov.rows) == 6 * 3  # graphs x devices
        assert ov.max_iterations_equivalent("h100") < 50
        assert "Overhead" in ov.render()


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["x", 1], ["yy", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_format_speedup(self):
        assert format_speedup(1.259) == "1.26x"
