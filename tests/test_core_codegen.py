"""Codegen tests: compiled models, plan tags, defaults, source emission."""

from repro.core import (
    compile_model,
    emit_python_source,
    select_default_plan,
)
from repro.core.complexity import composition_complexities
from repro.framework import get_system


class TestCompileModel:
    def test_cached(self):
        assert compile_model("gcn") is compile_model("gcn")
        assert compile_model("sgc", hops=2) is not compile_model("sgc", hops=1)

    def test_counts_reported(self):
        compiled = compile_model("gcn")
        assert compiled.enumerated_count == 16
        assert len(compiled.promoted) == 4
        assert compiled.pruned_count == 12

    def test_viable_filters_by_scenario(self):
        compiled = compile_model("gat")
        assert len(compiled.viable(128, 32)) == 1  # reuse only
        assert len(compiled.viable(32, 128)) == 2  # reuse vs recompute


class TestPlanTags:
    def test_gcn_tags_cover_grid(self):
        compiled = compile_model("gcn")
        tags = {(p.tags["norm"], p.tags["order"]) for p in compiled.promoted}
        assert tags == {
            ("precompute", "agg_first"),
            ("precompute", "update_first"),
            ("dynamic", "agg_first"),
            ("dynamic", "update_first"),
        }

    def test_gat_tags(self):
        compiled = compile_model("gat")
        tags = {p.tags["gat"] for p in compiled.promoted}
        assert tags == {"reuse", "recompute"}

    def test_labels_human_readable(self):
        compiled = compile_model("gat")
        assert {p.label for p in compiled.promoted} == {"reuse", "recompute"}


class TestDefaultSelection:
    def test_dgl_gcn_reorders_by_config(self):
        compiled = compile_model("gcn")
        dgl = get_system("dgl")
        shrink = select_default_plan(compiled, dgl, 1024, 32)
        grow = select_default_plan(compiled, dgl, 32, 1024)
        assert shrink.tags == {"norm": "dynamic", "order": "update_first"}
        assert grow.tags == {"norm": "dynamic", "order": "agg_first"}

    def test_dgl_gin_never_reorders(self):
        compiled = compile_model("gin")
        dgl = get_system("dgl")
        shrink = select_default_plan(compiled, dgl, 1024, 32)
        assert shrink.tags["order"] == "agg_first"

    def test_wisegraph_gin_reorders(self):
        compiled = compile_model("gin")
        wise = get_system("wisegraph")
        shrink = select_default_plan(compiled, wise, 1024, 32)
        assert shrink.tags["order"] == "update_first"

    def test_gat_policies(self):
        compiled = compile_model("gat")
        assert select_default_plan(compiled, get_system("dgl"), 32, 1024).tags["gat"] == "reuse"
        assert (
            select_default_plan(compiled, get_system("wisegraph"), 32, 1024).tags["gat"]
            == "recompute"
        )
        assert (
            select_default_plan(compiled, get_system("wisegraph"), 1024, 32).tags["gat"]
            == "reuse"
        )

    def test_defaults_always_dynamic_norm(self):
        # neither baseline system ships the SDDMM precomputation
        for name in ("gcn", "sgc", "tagcn"):
            compiled = compile_model(name)
            for sys_name in ("dgl", "wisegraph"):
                chosen = select_default_plan(
                    compiled, get_system(sys_name), 128, 128
                )
                assert chosen.tags["norm"] == "dynamic", (name, sys_name)


class TestSourceEmission:
    def test_emitted_source_compiles(self):
        for name in ("gcn", "gat", "gin"):
            source = emit_python_source(compile_model(name))
            compile(source, f"<granii:{name}>", "exec")

    def test_emitted_source_has_conditions(self):
        source = emit_python_source(compile_model("gcn"))
        assert "if in_size >= out_size:" in source
        assert "execute_plan" in source

    def test_cost_model_branch_present_for_gat(self):
        source = emit_python_source(compile_model("gat"))
        assert "plan_cost" in source  # growing sizes need the cost models


class TestComplexity:
    def test_gcn_rows_match_figure3(self):
        rows = composition_complexities("gcn")
        by_comp = {}
        for row in rows:
            by_comp.setdefault(row.composition, []).append(row)
        assert len(by_comp) == 4
        text = {r.primitive: r.complexity for r in rows}
        assert text["sddmm_diag"] == "O(E)"
        # aggregation is O(E·K): either embedding size appears
        spmm_rows = [r for r in rows if r.primitive.startswith("spmm")]
        assert all(r.complexity in ("O(E·K1)", "O(E·K2)") for r in spmm_rows)
        # broadcasts are O(N·K)
        rb_rows = [r for r in rows if r.primitive == "row_broadcast"]
        assert all(r.complexity in ("O(N·K1)", "O(N·K2)") for r in rb_rows)

    def test_gat_attention_complexity(self):
        rows = composition_complexities("gat")
        attn = next(r for r in rows if r.primitive == "attention")
        assert attn.complexity == "O(E + N·K2)"

    def test_setup_phase_marked(self):
        rows = composition_complexities("gcn")
        setup = [r for r in rows if r.phase == "setup"]
        assert setup and all(r.primitive == "sddmm_diag" for r in setup)
