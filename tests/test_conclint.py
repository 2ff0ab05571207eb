"""Interprocedural concurrency linter + happens-before sanitizer."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.conclint import analyze_paths, analyze_sources
from repro.analysis.conclint.mutate import (
    MUTATIONS,
    apply_mutation,
    tree_sources as _tree_sources,
)

REPRO_ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


# ----------------------------------------------------------------------
# Shipped tree (each analysis of it takes 1.5-4 s: run once per module)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shipped_report():
    return analyze_paths([REPRO_ROOT])


@pytest.fixture(scope="module")
def shipped_lock_graph(shipped_report):
    return shipped_report.graph


@pytest.fixture(scope="module")
def tree_sources():
    return _tree_sources()


@pytest.fixture(scope="module")
def base_keys(tree_sources):
    """The unmutated tree's active findings, as ``(rule, path)``."""
    return {(f.rule, f.path) for f in analyze_sources(tree_sources).active}


class TestShippedTree:
    def test_zero_active_findings(self, shipped_report):
        report = shipped_report
        assert report.active == [], "\n".join(
            f.describe() for f in report.active
        )

    def test_every_waiver_is_justified(self, shipped_report):
        # the tree carries no concurrency waiver today; any it gains must
        # say why (waiver parsing itself is pinned in TestWaivers)
        report = shipped_report
        for f in report.waived:
            assert f.justification, f"waiver without justification: {f}"

    def test_lock_graph_names_the_known_locks(self, shipped_lock_graph):
        graph = shipped_lock_graph
        ids = set(graph.locks)
        expected = {
            "repro.serving.service.GraniiService._lock",
            "repro.serving.service.GraniiService._select_lock",
            "repro.serving.cache.PlanCache._lock",
            "repro.core.runtime.SelectionReport._lock",
            "repro.core.guard.CircuitBreaker._lock",
        }
        assert expected <= ids

    def test_lock_graph_has_the_select_to_cost_model_edge(self, shipped_lock_graph):
        # interprocedural: a selection prices under the service's select
        # lock (GraniiEngine.select -> ... -> CostModelSet.prices)
        graph = shipped_lock_graph
        assert (
            "repro.serving.service.GraniiService._select_lock",
            "repro.core.costmodel.CostModelSet._memo_lock",
        ) in graph.edges

    def test_site_index_round_trips_construction_sites(self, shipped_lock_graph):
        graph = shipped_lock_graph
        index = graph.site_index()
        for info in graph.locks.values():
            for site in info.sites:
                assert index[site] == info.lock_id


# ----------------------------------------------------------------------
# Rule fixtures (small inline programs)
# ----------------------------------------------------------------------
def _analyze(src: str, path: str = "repro/pkg/mod.py"):
    return analyze_sources({path: src})


class TestLockRules:
    def test_lock_order_cycle(self):
        src = (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def ab():\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
            "def ba():\n"
            "    with B:\n"
            "        with A:\n"
            "            pass\n"
        )
        report = _analyze(src)
        assert "lock-order-cycle" in {f.rule for f in report.active}

    def test_interprocedural_edge_and_consistent_order_is_clean(self):
        src = (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def inner():\n"
            "    with B:\n"
            "        pass\n"
            "def outer():\n"
            "    with A:\n"
            "        inner()\n"
        )
        report = _analyze(src)
        assert report.active == []
        assert ("repro.pkg.mod.A", "repro.pkg.mod.B") in report.graph.edges

    def test_blocking_call_under_lock(self):
        src = (
            "import threading\n"
            "L = threading.Lock()\n"
            "def f(fut):\n"
            "    with L:\n"
            "        fut.result()\n"
        )
        report = _analyze(src)
        assert [f.rule for f in report.active] == [
            "lock-held-across-blocking-call"
        ]

    def test_self_deadlock_on_plain_lock_only(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.{kind}()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
        )
        plain = _analyze(src.format(kind="Lock"))
        assert "lock-self-deadlock" in {f.rule for f in plain.active}
        reentrant = _analyze(src.format(kind="RLock"))
        assert reentrant.active == []

    def test_bare_acquire_needs_finally_release(self):
        src = (
            "import threading\n"
            "L = threading.Lock()\n"
            "def f():\n"
            "    L.acquire()\n"
            "    g()\n"
            "    L.release()\n"
        )
        report = _analyze(src)
        assert "lock-acquire-no-release" in {f.rule for f in report.active}
        fixed = (
            "import threading\n"
            "L = threading.Lock()\n"
            "def f():\n"
            "    L.acquire()\n"
            "    try:\n"
            "        g()\n"
            "    finally:\n"
            "        L.release()\n"
        )
        assert _analyze(fixed).active == []


class TestWaivers:
    def test_waiver_needs_justification(self):
        src = (
            "import threading\n"
            "L = threading.Lock()\n"
            "def f(fut):\n"
            "    # lint: allow(lock-held-across-blocking-call)\n"
            "    with L:\n"
            "        fut.result()\n"
        )
        report = _analyze(src)
        assert "unjustified-waiver" in {f.rule for f in report.active}

    def test_justified_waiver_counts(self):
        src = (
            "import threading\n"
            "L = threading.Lock()\n"
            "def f(fut):\n"
            "    # lint: allow(lock-held-across-blocking-call) drain point\n"
            "    with L:\n"
            "        fut.result()\n"
        )
        report = _analyze(src)
        assert report.active == []
        assert report.waiver_counts() == {
            "lock-held-across-blocking-call": 1
        }
        assert report.waived[0].justification == "drain point"

    def test_waivers_are_counted_per_rule_across_files(self):
        blocking = (
            "import threading\n"
            "L = threading.Lock()\n"
            "def f(fut):\n"
            "    # lint: allow(lock-held-across-blocking-call) {why}\n"
            "    with L:\n"
            "        fut.result()\n"
        )
        leak = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def g():\n"
            "    # lint: allow(resource-leak) lives for the process\n"
            "    pool = ThreadPoolExecutor(max_workers=1)\n"
        )
        report = analyze_sources({
            "repro/pkg/a.py": blocking.format(why="drain point"),
            "repro/pkg/b.py": blocking.format(why="single caller"),
            "repro/pkg/c.py": leak,
        })
        assert report.active == []
        assert report.waiver_counts() == {
            "lock-held-across-blocking-call": 2,
            "resource-leak": 1,
        }
        assert sorted(f.justification for f in report.waived) == [
            "drain point", "lives for the process", "single caller",
        ]


# ----------------------------------------------------------------------
# Mutation battery (full run lives in CI; a spread here keeps tier-1 fast)
# ----------------------------------------------------------------------
def test_mutation_battery_is_large_enough():
    assert len(MUTATIONS) >= 10
    assert len({m.name for m in MUTATIONS}) == len(MUTATIONS)


@pytest.mark.parametrize(
    "name",
    [
        "reversed_lock_order",
        "orphaned_span_pool",
        "widen_shard_write",
        "unknown_bounds_producer",
    ],
)
def test_seeded_mutation_caught(name, tree_sources, base_keys):
    mutation = next(m for m in MUTATIONS if m.name == name)
    report = analyze_sources(apply_mutation(tree_sources, mutation))
    fresh = [f for f in report.active if (f.rule, f.path) not in base_keys]
    assert any(f.rule in mutation.expected_rules for f in fresh), (
        f"{name} not caught; fresh findings: "
        + "; ".join(f.describe() for f in fresh)
    )


def test_every_mutation_anchor_still_applies(tree_sources):
    for mutation in MUTATIONS:
        apply_mutation(tree_sources, mutation)  # raises NotApplicable if stale


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_json_report(tmp_path):
    out = tmp_path / "conclint.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.conclint", REPRO_ROOT,
         "--json", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(
            os.path.dirname(__file__), "..", "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(out.read_text())
    assert data["totals"]["active"] == 0
    assert data["lock_order_edges"]
    assert "repro.serving.service.GraniiService._lock" in data["locks"]


def test_cli_json_report_counts_waivers(tmp_path):
    pkg = tmp_path / "repro" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "import threading\n"
        "L = threading.Lock()\n"
        "def f(fut):\n"
        "    # lint: allow(lock-held-across-blocking-call) drain point\n"
        "    with L:\n"
        "        fut.result()\n"
    )
    out = tmp_path / "conclint.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.conclint", str(pkg),
         "--json", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(
            os.path.dirname(__file__), "..", "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(out.read_text())
    assert data["totals"] == {**data["totals"], "active": 0, "waived": 1}
    assert data["waiver_counts"] == {"lock-held-across-blocking-call": 1}


# ----------------------------------------------------------------------
# Dynamic sanitizer: observed lock-order edges ⊆ static graph
# ----------------------------------------------------------------------
def test_racestress_cache_scenario_subset_of_static():
    from repro import checks

    [result] = checks.run(
        checks.select(["racestress/cache"]), checks.Context(quick=True)
    )
    report = result["detail"]
    assert result["ok"], f"unexplained edges: {report['unexplained']}"
    assert report["acquisitions"] > 0, "tracing recorded nothing"


def test_racestress_monitor_records_and_pops_edges():
    from repro.faults.racestress import RaceMonitor

    monitor = RaceMonitor()
    monitor.on_acquire("A", ("f.py", 1))
    monitor.on_acquire("B", ("f.py", 2))
    monitor.on_acquire("B", ("f.py", 3))  # reentrant: no self edge
    monitor.on_release("B")
    monitor.on_release("B")
    monitor.on_release("A")
    assert set(monitor.edges) == {("A", "B")}
    monitor.on_acquire("B", ("f.py", 4))
    monitor.on_acquire("A", ("f.py", 5))
    assert ("B", "A") in monitor.edges
