"""The check registry and its runner (``python -m repro.checks``)."""

import json
import subprocess
import tempfile

import pytest

from repro import checks
from repro.serving import chaos as serving_chaos


def test_entry_names_are_unique():
    names = [c.name for c in checks.REGISTRY]
    assert len(set(names)) == len(names)
    # 5 models x 7 schedules + 3 admission, 7 serving, 2 racestress,
    # 13 planlint mutations, conclint's baseline and 10 mutations
    assert len(names) == 71


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
        + ["conclint/baseline"]
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
    )
    assert len(expected) == 43
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


@pytest.mark.parametrize("only", ["chaos/gcn/no-such-case", "nosuite"])
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
