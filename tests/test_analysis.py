"""Static analysis: planlint over the zoo, seeded mutations, the linter,
and the guard's statically-proved-check short-circuit."""

import numpy as np
import pytest

from repro import config
from repro.analysis.domains import (
    join_structure,
    nnz_leq,
    structure_leq,
    structure_of,
)
from repro.analysis.lint import lint_source
from repro import checks
from repro.analysis.mutate import MUTATIONS
from repro.analysis.planlint import (
    analyze_plan,
    analysis_env_key,
    check_workspace_trace,
    reject_illegal,
    workspace_trace,
)
from repro.core.codegen import compile_model
from repro.core.ir import ShapeEnv, MatMul, Add, RowBroadcast, dense_data, dense_weight, ir_shape
from repro.core.pruning import prune_candidates
from repro.errors import GraniiAnalysisError, GraniiError
from repro.kernels import SPMM_STRATEGIES
from repro.models import MODEL_NAMES

ZOO_TARGETS = [(name, {}) for name in MODEL_NAMES] + [
    ("sage", {}),
    ("appnp", {}),
    ("gcn", {"weighted": True}),
    ("gat", {"fusion": True}),
    ("sgc", {"spgemm": True, "hops": 2}),
]


# ----------------------------------------------------------------------
# Zoo plans are all statically clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,kwargs", ZOO_TARGETS, ids=[f"{n}{''.join(sorted(k))}" for n, k in ZOO_TARGETS]
)
def test_zoo_plans_pass_planlint(name, kwargs):
    compiled = compile_model(name, **kwargs)
    assert compiled.promoted
    for planned in compiled.promoted:
        verdict = analyze_plan(planned.plan, strategies=SPMM_STRATEGIES)
        assert verdict.ok, verdict.describe()
        assert verdict.diagnostics == [], verdict.describe()
        assert verdict.proved  # something was actually established


def test_verdict_carries_env_facts():
    compiled = compile_model("gcn")
    plan = compiled.promoted[0].plan
    env = ShapeEnv({"N": 100, "E": 400, "K1": 16, "K2": 8})
    verdict = analyze_plan(plan, env=env)
    assert verdict.env_key == analysis_env_key(env)
    assert verdict.facts["peak_memory_bytes"] == plan.peak_memory_bytes(env)
    assert any("peak-memory" in fact for fact in verdict.proved)


# ----------------------------------------------------------------------
# Seeded mutations must all be caught
# ----------------------------------------------------------------------
def test_mutation_registry_is_large_enough():
    assert len(MUTATIONS) >= 10


def test_all_seeded_mutations_caught():
    results = checks.run(checks.select(["planlint"]), checks.Context())
    # every mutation, then planlint/zoo: every clean zoo plan passes
    assert len(results) == len(MUTATIONS) + 1
    missed = [r["detail"] for r in results if not r["ok"]]
    assert not missed, f"analyzer missed planted bugs: {missed}"


def test_reject_illegal_partitions():
    from repro.analysis.mutate import swap_spmm_operands

    compiled = compile_model("gcn")
    clean = [pc.plan.candidate for pc in compiled.promoted]
    mutated = None
    for cand in clean:
        try:
            mutated = swap_spmm_operands(cand)
            break
        except Exception:
            continue
    assert mutated is not None
    legal, rejected = reject_illegal(clean + [mutated])
    assert set(map(id, legal)) == set(map(id, clean))
    assert len(rejected) == 1
    assert not rejected[0][1].ok


def test_pruning_rejects_illegal_candidates():
    from repro.analysis.mutate import wrong_result_attr

    compiled = compile_model("gcn")
    clean = [pc.plan.candidate for pc in compiled.promoted]
    bad = wrong_result_attr(clean[0])
    promoted = prune_candidates(clean + [bad])
    promoted_ids = {id(pc.candidate) for pc in promoted}
    assert id(bad) not in promoted_ids
    # a pool of only-illegal trees is an enumerator bug: loud failure
    with pytest.raises(GraniiAnalysisError):
        prune_candidates([bad])
    # analysis can be bypassed explicitly (the bad tree then survives)
    assert prune_candidates([bad], analyze=False)


# ----------------------------------------------------------------------
# Workspace lifetime protocol
# ----------------------------------------------------------------------
def test_workspace_trace_balanced_for_zoo():
    compiled = compile_model("gcn")
    for planned in compiled.promoted:
        events = workspace_trace(planned.plan, "blocked")
        assert check_workspace_trace(events) == []
        # non-blocked strategies never touch the arena
        assert workspace_trace(planned.plan, "row_segment") == []


def test_workspace_leak_and_double_use_detected():
    compiled = compile_model("gcn")
    plan = next(
        pc.plan for pc in compiled.promoted
        if any(s.primitive.startswith("spmm") for s in pc.plan.steps)
    )
    events = workspace_trace(plan, "blocked")
    leak = [e for e in events if e[0] != "release-exception"]
    rules = {d.rule for d in check_workspace_trace(leak)}
    assert "workspace-leak" in rules
    dup = [events[0]] + events
    rules = {d.rule for d in check_workspace_trace(dup)}
    assert "workspace-double-use" in rules


# ----------------------------------------------------------------------
# ir_shape / ShapeEnv hardening
# ----------------------------------------------------------------------
def test_resolve_raises_structured_but_back_compatible():
    env = ShapeEnv({"N": 10})
    with pytest.raises(GraniiAnalysisError) as exc_info:
        env.resolve("K9")
    # the new error still satisfies legacy except KeyError sites, and
    # formats as a plain message (not KeyError's repr-quoting)
    assert isinstance(exc_info.value, KeyError)
    assert isinstance(exc_info.value, ValueError)
    assert isinstance(exc_info.value, GraniiError)
    assert "K9" in str(exc_info.value)
    assert not str(exc_info.value).startswith('"')


def test_ir_shape_flags_contraction_mismatch():
    h = dense_data("H", "N", "K1")
    w = dense_weight("W", "K2", "K1")  # transposed: K1·K2 expected
    with pytest.raises(GraniiAnalysisError) as exc_info:
        ir_shape(MatMul((h, w)))
    assert "H" in str(exc_info.value) and "W" in str(exc_info.value)


def test_ir_shape_flags_add_and_rowbroadcast_mismatch():
    a = dense_data("X", "N", "K1")
    b = dense_data("Y", "N", "K2")
    with pytest.raises(GraniiAnalysisError):
        ir_shape(Add((a, b)))
    from repro.core.ir import diagonal

    with pytest.raises(GraniiAnalysisError):
        ir_shape(RowBroadcast(diagonal("D", "K2"), dense_data("H", "N", "K1")))


def test_ir_shape_accepts_consistent_trees():
    h = dense_data("H", "N", "K1")
    w = dense_weight("W", "K1", "K2")
    assert ir_shape(MatMul((h, w))) == ("N", "K2")


# ----------------------------------------------------------------------
# Abstract domains
# ----------------------------------------------------------------------
def test_structure_lattice():
    assert structure_leq("diagonal", "general")
    assert structure_leq("triangular", "symmetric")
    assert not structure_leq("general", "diagonal")
    assert join_structure("diagonal", "general") == "general"
    assert join_structure("diagonal", "diagonal") == "diagonal"
    assert join_structure(None, "diagonal") is None  # dense absorbs
    assert structure_of("sparse", "diagonal") == "diagonal"
    assert structure_of("dense", "data") is None


def test_nnz_bound_order():
    assert nnz_leq("E", "E") is True
    assert nnz_leq("E", "E@2") is True          # deeper fill is looser
    assert nnz_leq("E@3", "E@2") is False
    assert nnz_leq("E", "E+N") is True
    assert nnz_leq("E+N", "E") is False
    assert nnz_leq("N", "E") is None            # cross-base: incomparable
    assert nnz_leq(7, 9) is True


# ----------------------------------------------------------------------
# Linter rules on inline fixtures
# ----------------------------------------------------------------------
def test_lint_env_outside_config():
    src = "import os\nx = os.environ.get('REPRO_NUM_THREADS')\n"
    found = lint_source(src, "src/repro/faults/other.py")
    assert [v.rule for v in found] == ["env-outside-config"]
    assert found[0].line == 2
    # the same access inside config.py is the sanctioned home
    assert lint_source(src, "src/repro/config.py") == []


def test_lint_raw_alloc_in_kernels():
    src = "import numpy as np\ndef f(n):\n    return np.empty((n, 4))\n"
    found = lint_source(src, "src/repro/kernels/fast.py")
    assert [v.rule for v in found] == ["raw-alloc-in-kernels"]
    # outside kernels/, and in workspace.py itself, allocation is fine
    assert lint_source(src, "src/repro/core/other.py") == []
    assert lint_source(src, "src/repro/kernels/workspace.py") == []


def test_lint_raw_alloc_in_tensor():
    src = (
        "import numpy as np\n"
        "def vjp(x, g):\n"
        "    full = np.zeros_like(x)\n"
        "    return full + g\n"
    )
    found = lint_source(src, "src/repro/tensor/new_op.py")
    assert [v.rule for v in found] == ["raw-alloc-in-tensor"]
    for allocator in ("np.empty(x.shape)", "np.zeros(x.shape)", "np.empty_like(x)"):
        found = lint_source(
            f"import numpy as np\ndef f(x):\n    return {allocator}\n",
            "src/repro/tensor/new_op.py",
        )
        assert [v.rule for v in found] == ["raw-alloc-in-tensor"], allocator
    # the pool itself, a pooled take and a module outside tensor/ are fine
    assert lint_source(src, "src/repro/models/gcn.py") == []
    pooled = (
        "from ..kernels.workspace import step_buffer\n"
        "def vjp(x, g):\n"
        "    return step_buffer(x.shape)\n"
    )
    assert lint_source(pooled, "src/repro/tensor/new_op.py") == []
    waived = (
        "import numpy as np\n"
        "def state(p):\n"
        "    return np.zeros_like(p)  # lint: allow(raw-alloc-in-tensor)\n"
    )
    found = lint_source(waived, "src/repro/tensor/optim.py")
    assert len(found) == 1 and found[0].waived


@pytest.mark.parametrize(
    "call",
    [
        "np.copyto(out, x, where=x > 0)",
        "np.putmask(out, x > 0, x)",
        "np.where(x > 0, x, 0.2 * x)",
        "numpy.where(mask, 1.0, slope)",
    ],
)
@pytest.mark.parametrize("where", ["src/repro/tensor/new_op.py", "src/repro/kernels/dense.py"])
def test_lint_masked_select_in_hot_path(call, where):
    imported = "import numpy\n" if call.startswith("numpy.") else "import numpy as np\n"
    src = f"{imported}def f(x, out, mask, slope):\n    return {call}\n"
    found = lint_source(src, where)
    assert [v.rule for v in found] == ["masked-select-in-hot-path"]
    # outside the hot path, and with a waiver above the line, it is not a finding
    assert lint_source(src, "src/repro/core/verify.py") == []
    waived = src.replace("    return", "    # lint: allow(masked-select-in-hot-path)\n    return")
    found = lint_source(waived, where)
    assert len(found) == 1 and found[0].waived


@pytest.mark.parametrize(
    "call",
    [
        "np.copyto(out, x)",  # a plain copy selects nothing
        "np.where(x > 0)",  # one argument: the indices, not a select
        "np.maximum(x, 0.2 * x, out=out)",
    ],
)
def test_lint_masked_select_allows_arithmetic(call):
    src = f"import numpy as np\ndef f(x, out):\n    return {call}\n"
    assert lint_source(src, "src/repro/kernels/dense.py") == []


def test_lint_granii_except():
    bare = "def f():\n    try:\n        g()\n    except:\n        pass\n"
    found = lint_source(bare, "src/repro/models/x.py")
    assert [v.rule for v in found] == ["granii-except"]
    swallow = (
        "def f():\n    try:\n        g()\n"
        "    except Exception:\n        pass\n"
    )
    found = lint_source(swallow, "src/repro/core/guard.py")
    assert [v.rule for v in found] == ["granii-except"]
    # a handler that acts (re-raise, fallback) is fine even in guard paths
    handled = (
        "def f():\n    try:\n        g()\n"
        "    except Exception:\n        h()\n"
    )
    assert lint_source(handled, "src/repro/core/guard.py") == []
    # swallowing a *narrow* error outside guard paths is not flagged
    found = lint_source(swallow, "src/repro/models/x.py")
    assert found == []


def test_lint_shared_write_in_parallel():
    shared = (
        "def run(pool, out, spans):\n"
        "    def work(span):\n"
        "        out[3] = 1.0\n"
        "    list(pool.map(work, spans))\n"
    )
    found = lint_source(shared, "src/repro/kernels/par.py")
    assert [v.rule for v in found] == ["shared-write-in-parallel"]
    disjoint = (
        "def run(pool, out, spans):\n"
        "    def work(span):\n"
        "        r0, r1 = span\n"
        "        out[r0:r1] = 1.0\n"
        "    list(pool.map(work, spans))\n"
    )
    assert lint_source(disjoint, "src/repro/kernels/par.py") == []


@pytest.mark.parametrize(
    "written, clean",
    [
        ("out=out[r0:r1]", True),
        ("out=dst[r0 : r1 + 1]", True),  # the rule checks names, not interval arithmetic
        ("out=local", True),
        ("out=out", False),
        ("out=out[:]", False),
        ("out=out[0:n]", False),
    ],
)
@pytest.mark.parametrize("via", ["run_spans(spans, body)", "list(pool.map(body, spans))"])
def test_lint_out_keyword_writes_in_span_bodies(written, clean, via):
    src = (
        "import numpy as np\n"
        "def kernel(pool, a, b, out, dst, spans, n):\n"
        "    def body(span):\n"
        "        r0, r1 = span\n"
        "        local = np.empty(3)\n"
        f"        np.matmul(a[r0:r1], b, {written})\n"
        f"    {via}\n"
    )
    found = lint_source(src, "src/repro/serving/par.py")
    assert [v.rule for v in found] == ([] if clean else ["shared-write-in-parallel"])
    if not clean:
        assert found[0].line == 6 and "'body'" in found[0].message


def test_lint_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Dict, Optional\n"
        "from .domains import structure_of, join_structure\n"
        "__all__ = ['join_structure']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return np.asarray(x)\n"
    )
    found = lint_source(src, "src/repro/analysis/planlint.py")
    assert [(v.rule, v.line) for v in found] == [
        ("unused-import", 2), ("unused-import", 4), ("unused-import", 5),
    ]
    assert ["'os'", "'Dict'", "'structure_of'"] == [
        v.message.split()[0] for v in found
    ]
    # a package's imports are its re-exports
    assert lint_source(src, "src/repro/analysis/__init__.py") == []
    waived = src.replace(
        "import os\n", "import os  # lint: allow(unused-import)\n"
    )
    found = lint_source(waived, "src/repro/analysis/planlint.py")
    assert [v.waived for v in found] == [True, False, False]


def test_lint_pragma_waives_and_counts():
    src = (
        "import numpy as np\n"
        "def f(n):\n"
        "    return np.zeros(n)  # lint: allow(raw-alloc-in-kernels)\n"
    )
    found = lint_source(src, "src/repro/kernels/fast.py")
    assert len(found) == 1 and found[0].waived
    # the pragma only waives the named rule
    src = (
        "import numpy as np\n"
        "def f(n):\n"
        "    return np.zeros(n)  # lint: allow(granii-except)\n"
    )
    found = lint_source(src, "src/repro/kernels/fast.py")
    assert len(found) == 1 and not found[0].waived


def test_lint_shipped_tree_is_clean():
    import os

    from repro.analysis.lint import lint_paths

    root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    violations = [v for v in lint_paths([root]) if not v.waived]
    assert violations == [], "\n".join(v.describe() for v in violations)


def test_lint_missing_path_is_an_error_not_clean(tmp_path):
    from repro.analysis.lint import lint_paths

    missing = str(tmp_path / "src" / "repo")
    with pytest.raises(FileNotFoundError, match=missing):
        lint_paths([missing])


# ----------------------------------------------------------------------
# Selection/guard integration: proved facts skip runtime checks
# ----------------------------------------------------------------------
def test_selection_report_carries_verdict():
    from repro.core.costmodel import get_cost_models
    from repro.core.runtime import GraniiEngine
    from repro.graphs.generators import erdos_renyi
    from repro.models import build_layer

    g = erdos_renyi(120, avg_degree=5, seed=2)
    layer = build_layer("gcn", 16, 8, rng=np.random.default_rng(0))
    engine = GraniiEngine(device="cpu", cost_models=get_cost_models("cpu"))
    compiled = compile_model("gcn")
    report = engine.select(compiled, g, layer)
    assert report.analysis is not None and report.analysis.ok
    assert "peak_memory_bytes" in report.analysis.facts
    assert "analysis: ok" in report.describe()


def test_guard_skips_statically_proved_memory_check():
    from repro.core.costmodel import get_cost_models
    from repro.core.runtime import GraniiEngine
    from repro.graphs.generators import erdos_renyi
    from repro.models import build_layer

    g = erdos_renyi(150, avg_degree=5, seed=4)
    feats = np.random.default_rng(1).standard_normal((g.num_nodes, 16))
    restore = config.override_env({"REPRO_MEM_BUDGET_MB": "1024"})
    try:
        layer = build_layer("gcn", 16, 8, rng=np.random.default_rng(0))
        engine = GraniiEngine(
            device="cpu", cost_models=get_cost_models("cpu"), guarded=True
        )
        report = engine.optimize(layer, g, feats)
        selection = report.selections[0]
        plan = selection.chosen.plan
        calls = []
        original = plan.peak_memory_bytes
        plan.peak_memory_bytes = lambda env: (
            calls.append(1), original(env)
        )[1]
        try:
            layer(g, feats)
        finally:
            plan.peak_memory_bytes = original
        # the budget gate ran off the selection-time proved fact: the
        # O(steps) liveness walk was never re-executed on the hot path
        assert calls == []
        assert "memory_estimate:static" in selection.runtime_checks_skipped
        assert "statically proved" in selection.describe()
    finally:
        restore()


def test_guard_recomputes_for_foreign_env():
    """The proved fact is bound to the selection env; a different graph
    (different env key) must fall back to recomputation."""
    from repro.core.costmodel import get_cost_models
    from repro.core.runtime import GraniiEngine
    from repro.graphs.generators import erdos_renyi
    from repro.models import build_layer

    g1 = erdos_renyi(150, avg_degree=5, seed=4)
    g2 = erdos_renyi(90, avg_degree=4, seed=5)
    feats2 = np.random.default_rng(1).standard_normal((g2.num_nodes, 16))
    restore = config.override_env({"REPRO_MEM_BUDGET_MB": "1024"})
    try:
        layer = build_layer("gcn", 16, 8, rng=np.random.default_rng(0))
        engine = GraniiEngine(
            device="cpu", cost_models=get_cost_models("cpu"), guarded=True
        )
        feats1 = np.random.default_rng(1).standard_normal((g1.num_nodes, 16))
        report = engine.optimize(layer, g1, feats1)
        selection = report.selections[0]
        plan = selection.chosen.plan
        calls = []
        original = plan.peak_memory_bytes
        plan.peak_memory_bytes = lambda env: (
            calls.append(1), original(env)
        )[1]
        try:
            layer(g2, feats2)
        finally:
            plan.peak_memory_bytes = original
        assert calls  # recomputed: the proved fact did not apply
    finally:
        restore()


# ----------------------------------------------------------------------
# verify integration
# ----------------------------------------------------------------------
def test_verify_sweep_reports_analysis_agreement():
    from repro.core.verify import sweep
    from repro.graphs.generators import erdos_renyi

    graph = erdos_renyi(40, avg_degree=4, seed=0)
    graph.name = "tiny"
    report = sweep(
        models=["gcn"], systems=["dgl"], modes=["inference"],
        strategies=["row_segment"], graphs=[graph], sizes=[(8, 4)],
        shrink=False,
    )
    assert report.passed
    analysis = report.meta["analysis"]
    assert analysis["plans_analyzed"] > 0
    assert analysis["statically_rejected"] == []
    assert analysis["verdict_agreement"]["agree"] is True
    assert (
        analysis["verdict_agreement"]["static_ok_checks"] == report.num_checks
    )
