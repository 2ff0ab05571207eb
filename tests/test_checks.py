"""The check registry and its runner (``python -m repro.checks``)."""

import contextlib
import importlib.util
import json
import subprocess
import tempfile

import pytest

from repro import checks
from repro.analysis.planlint import Diagnostic, PlanVerdict
from repro.core import verify
from repro.serving import chaos as serving_chaos


def test_entry_names_are_unique():
    names = [c.name for c in checks.REGISTRY]
    assert len(set(names)) == len(names)
    # 5 models x 7 schedules + 3 admission, 7 serving, 2 racestress,
    # 13 planlint mutations and the zoo, conclint's baseline and 10
    # mutations, 5 models x 2 modes + the seeded fault, 7 lint rules
    assert len(names) == 90


def test_quick_selection_is_what_ci_runs():
    quick = [c.name for c in checks.select(quick=True)]
    expected = (
        [
            f"chaos/{model}/{schedule}"
            for model in ("gcn", "gat")
            for schedule in ("spmm-crash", "any-crash", "corrupt", "mem-starved")
        ]
        + ["chaos/gcn/input-nan", "chaos/gcn/input-width", "chaos/gcn/input-edges"]
        + [
            f"serving/{name}"
            for name in (
                "slow-tenant", "poison-graph", "cache-collision", "overload",
                "poison-input", "corrupt-snapshot", "restart-warm",
            )
        ]
        + ["racestress/serving"]
        + [
            f"planlint/{name}"
            for name in (
                "swap_gemm_operands", "swap_spmm_operands", "drop_transpose",
                "stale_nnz_bound", "mismatched_out_shape", "wrong_result_attr",
                "undefined_ref", "double_write", "dead_step", "inplace_alias",
                "unresolvable_dim", "workspace_leak", "workspace_double_use",
            )
        ]
        + ["planlint/zoo", "conclint/baseline"]
        + [
            f"conclint/{name}"
            for name in (
                "reversed_lock_order", "wait_under_cache_lock",
                "result_under_select_lock", "acquire_without_release",
                "reentrant_self_deadlock", "orphaned_span_pool",
                "unpublished_serve_pool", "widen_shard_write",
                "offset_span_bound", "unknown_bounds_producer",
            )
        ]
        + [
            f"verify/{model}/{mode}"
            for model in ("gcn", "gin", "sgc", "tagcn", "gat")
            for mode in ("inference", "training")
        ]
        + ["verify/seed-fault"]
        + [
            f"lint/{rule}"
            for rule in (
                "env-outside-config", "raw-alloc-in-kernels",
                "raw-alloc-in-tensor", "masked-select-in-hot-path",
                "granii-except", "shared-write-in-parallel", "unused-import",
            )
        ]
    )
    assert len(expected) == 62
    assert sorted(quick) == sorted(expected)


def test_a_failing_entry_fails_the_run_and_the_rest_still_run(
    monkeypatch, tmp_path
):
    def boom(ctx):
        raise RuntimeError("entry crashed")

    monkeypatch.setattr(checks, "REGISTRY", (
        checks.Check("fake/pass", True, lambda ctx: (True, {"outcome": "ok"})),
        checks.Check("fake/fail", True, lambda ctx: (False, {"outcome": "mismatch"})),
        checks.Check("fake/raise", True, boom),
        checks.Check("fake/after", True, lambda ctx: (True, None)),
    ))
    out = tmp_path / "report.json"
    assert checks.main(["--quick", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [(r["check"], r["ok"]) for r in report] == [
        ("fake/pass", True), ("fake/fail", False),
        ("fake/raise", False), ("fake/after", True),
    ]
    assert {r["suite"] for r in report} == {"fake"}
    assert report[1]["detail"] == {"outcome": "mismatch"}
    assert "RuntimeError: entry crashed" in report[2]["detail"]
    assert all(r["seconds"] >= 0 for r in report)
    assert checks.main(["--only", "fake/pass,fake/after"]) == 0


@pytest.mark.parametrize(
    "only", ["chaos/gcn/no-such-case", "nosuite", "verify/transformer/inference"]
)
def test_unknown_only_name_is_a_usage_error(only):
    with pytest.raises(SystemExit) as exc:
        checks.main(["--only", only])
    assert exc.value.code == 2


def test_serving_scenarios_remove_their_state_dirs(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    # restart-warm's child dies before its SIGKILL: the early return
    monkeypatch.setattr(
        serving_chaos.subprocess, "run",
        lambda args, **kw: subprocess.CompletedProcess(args, 1, "", "died"),
    )
    results = checks.run(
        checks.select(["serving/corrupt-snapshot", "serving/restart-warm"]),
        checks.Context(quick=True),
    )
    assert [r["ok"] for r in results] == [True, False]
    assert "did not reach its SIGKILL" in results[1]["detail"]["violations"][0]
    assert not list(tmp_path.glob("granii-state-*"))


def test_verify_entry_runs_every_system_and_strategy_clean():
    [result] = checks.run(
        checks.select(["verify/gcn/inference"]), checks.Context(quick=True)
    )
    detail = result["detail"]
    assert result["ok"]
    assert detail["summary"]["divergent"] == 0
    assert detail["summary"]["checks"] > 0
    assert "0 divergent" in detail["outcome"]
    assert {(c["system"], c["strategy"]) for c in detail["cells"]} == {
        (system, strategy)
        for system in ("dgl", "wisegraph")
        for strategy in ("row_segment", "blocked")
    }
    assert detail["repro_sources"] == {}


def test_seed_fault_entry_emits_a_repro_that_fails_under_the_fault(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    [result] = checks.run(
        checks.select(["verify/seed-fault"]), checks.Context(quick=True)
    )
    # the entry passes exactly when the injected fault IS caught
    assert result["ok"]
    assert result["detail"]["summary"]["divergent"] > 0
    [(name, source)] = result["detail"]["repro_sources"].items()
    # nothing is written to the working directory
    assert not list(tmp_path.iterdir())
    path = tmp_path / name
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("repro_case", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.test_plan_equivalence_regression()
    with verify.seeded_fault():
        with pytest.raises(AssertionError):
            mod.test_plan_equivalence_regression()


def test_seed_fault_entry_fails_when_the_fault_is_not_caught(monkeypatch):
    monkeypatch.setattr(verify, "seeded_fault", contextlib.nullcontext)
    [result] = checks.run(
        checks.select(["verify/seed-fault"]), checks.Context(quick=True)
    )
    assert not result["ok"]
    assert result["detail"]["summary"]["divergent"] == 0


def test_lint_entry_fails_on_its_own_planted_violation(monkeypatch, tmp_path):
    (tmp_path / "planted.py").write_text("import os\n\n\ndef f():\n    return 1\n")
    monkeypatch.setattr(checks, "_lint_roots", lambda: [str(tmp_path)])
    results = checks.run(checks.select(["lint"]), checks.Context(quick=True))
    failed = [r["check"] for r in results if not r["ok"]]
    assert failed == ["lint/unused-import"]
    [detail] = [r["detail"] for r in results if not r["ok"]]
    assert detail["violations"][0].startswith("unused-import ")
    assert "planted.py:1" in detail["violations"][0]


def test_planlint_zoo_fails_when_a_plan_is_rejected(monkeypatch):
    analyze = checks.analyze_plan

    def reject_gcn_1(plan):
        verdict = analyze(plan)
        if plan.name != "gcn:1":
            return verdict
        return PlanVerdict(
            verdict.target, [Diagnostic("planted", "rejected on purpose")]
        )

    monkeypatch.setattr(checks, "analyze_plan", reject_gcn_1)
    [result] = checks.run(
        checks.select(["planlint/zoo"]), checks.Context(quick=True)
    )
    assert not result["ok"]
    # the 5 default compiles plus the gat+fusion and sgc+spgemm pools
    assert result["detail"]["outcome"] == "65 plans, 1 rejected"
    assert {"gat+fusion", "sgc+spgemm"} <= {
        p["model"] for p in result["detail"]["plans"]
    }
    [rejected] = result["detail"]["rejected"]
    assert "gcn:1" in rejected and "planted" in rejected
