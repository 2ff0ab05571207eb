"""Service-level recovery: warm start, health probe, shutdown ordering.

Companion to ``tests/test_state.py`` (the store itself): these tests
drive :class:`~repro.serving.service.GraniiService` through the save /
restart / restore cycle and through a graceful shutdown with a request
in flight.
"""

import time

import numpy as np
import pytest

from repro.core.costmodel import get_cost_models
from repro.faults import FaultPlan
from repro.graphs.generators import erdos_renyi
from repro.models import build_layer
from repro.serving import GraniiService, ServeRequest
from repro.state import StateStore, atomic_write_text

IN_SIZE, OUT_SIZE = 8, 4


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(150, 6.0, seed=3)


@pytest.fixture(scope="module")
def cost_models():
    return get_cost_models("cpu")


def feats_for(graph, seed=1):
    return np.random.default_rng(seed).standard_normal(
        (graph.num_nodes, IN_SIZE)
    )


def reference_for(graph, feats):
    layer = build_layer(
        "gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0)
    )
    return np.asarray(layer(graph, feats).data)


def make_service(cost_models, **kwargs):
    kwargs.setdefault("device", "cpu")
    kwargs.setdefault("cost_models", cost_models)
    kwargs.setdefault("num_threads", 2)
    svc = GraniiService(**kwargs)
    svc.register_model("gcn", IN_SIZE, OUT_SIZE)
    return svc


def req(graph, feats, tenant="t", **kwargs):
    return ServeRequest(
        tenant=tenant, model="gcn", graph=graph, feats=feats, **kwargs
    )


class TestSaveState:
    def test_save_state_requires_state_dir(self, cost_models, monkeypatch):
        monkeypatch.delenv("REPRO_STATE_DIR", raising=False)
        with make_service(cost_models) as svc:
            assert svc.warm_start == {}
            with pytest.raises(RuntimeError, match="state"):
                svc.save_state()

    def test_round_trip_is_a_cache_hit(self, graph, cost_models, tmp_path):
        feats = feats_for(graph)
        with make_service(cost_models, state_dir=str(tmp_path)) as svc:
            first = svc.serve(req(graph, feats), timeout=120.0)
            assert first.ok, first.error
            paths = svc.save_state()
        assert set(paths) == {"plan_cache", "cost_models"}
        # simulate the process dying: all in-memory state is gone
        with make_service(None, state_dir=str(tmp_path)) as svc2:
            assert set(svc2.warm_start) == {"cost_models", "plan_cache"}
            assert svc2.warm_start["cost_models"] is True
            assert svc2.warm_start["plan_cache"] >= 1
            again = svc2.serve(req(graph, feats), timeout=120.0)
        assert again.ok, again.error
        assert again.cache_hit, "warm start must skip re-selection"
        np.testing.assert_allclose(again.value, first.value)

    def test_state_dir_from_the_environment_is_a_cache_hit(
        self, graph, cost_models, tmp_path, monkeypatch
    ):
        # REPRO_STATE_DIR instead of state_dir=: a service built with
        # neither saves there, and the next one warm-starts from it
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path))
        feats = feats_for(graph)
        with make_service(cost_models) as svc:
            assert svc.serve(req(graph, feats), timeout=120.0).ok
            svc.save_state()
        assert (tmp_path / "plan_cache.json").exists()
        with make_service(None) as svc2:
            assert svc2.warm_start["cost_models"] is True
            again = svc2.serve(req(graph, feats), timeout=120.0)
        assert again.ok and again.cache_hit, (again.ok, again.cache_hit, again.error)

    def test_corrupt_snapshot_costs_cold_start_not_a_crash(
        self, graph, cost_models, tmp_path
    ):
        feats = feats_for(graph)
        with make_service(cost_models, state_dir=str(tmp_path)) as svc:
            assert svc.serve(req(graph, feats), timeout=120.0).ok
            svc.save_state()
        # damage the plan-cache snapshot the way a crashed non-atomic
        # writer would: truncated mid-file
        path = tmp_path / "plan_cache.json"
        raw = path.read_text()
        atomic_write_text(path, raw[: len(raw) // 2])
        with make_service(cost_models, state_dir=str(tmp_path)) as svc2:
            assert svc2.warm_start["plan_cache"] == 0
            health = svc2.health()
            assert health["state_store"]["quarantined"] == [
                "plan_cache.json.corrupt.0"
            ]
            result = svc2.serve(req(graph, feats), timeout=120.0)
        assert result.ok, result.error
        assert not result.cache_hit  # that piece of state started cold
        np.testing.assert_allclose(
            result.value, reference_for(graph, feats), rtol=1e-4, atol=1e-6
        )

    def test_an_old_residuals_snapshot_is_ignored(
        self, graph, cost_models, tmp_path
    ):
        """A state dir saved when the store also held a ``residuals``
        snapshot warm-starts cleanly: the file is left alone and the
        repeat request still hits the restored plan cache."""
        feats = feats_for(graph)
        with make_service(cost_models, state_dir=str(tmp_path)) as svc:
            first = svc.serve(req(graph, feats), timeout=120.0)
            assert first.ok, first.error
            svc.save_state()
        StateStore(tmp_path).save("residuals", {"cpu|spmm": 2.0})
        with make_service(None, state_dir=str(tmp_path)) as svc2:
            assert svc2.warm_start["cost_models"] is True
            assert svc2.warm_start["plan_cache"] >= 1
            assert svc2.health()["state_store"]["quarantined"] == []
            again = svc2.serve(req(graph, feats), timeout=120.0)
        assert again.ok and again.cache_hit, (again.ok, again.cache_hit, again.error)
        assert again.value.tobytes() == first.value.tobytes()
        assert (tmp_path / "residuals.json").exists()

    def test_a_snapshot_carrying_a_select_time_verdict_serves(
        self, graph, cost_models, tmp_path
    ):
        """A plan-cache snapshot whose templates still carry the verdict
        and skipped-check notes selection once attached (``analysis``,
        ``runtime_checks_skipped``) restores, seeds its entry and serves
        a hit: the stray attributes ride along and nothing reads them."""
        from repro.analysis.planlint import analyze_plan

        feats = feats_for(graph)
        with make_service(cost_models, state_dir=str(tmp_path)) as svc:
            first = svc.serve(req(graph, feats), timeout=120.0)
            assert first.ok, first.error
            [(_, _, template)] = svc.cache.export_entries()
            template.analysis = analyze_plan(
                template.chosen.plan, strategies=("row_segment",)
            )
            template.runtime_checks_skipped = ["memory_estimate:static"]
            svc.save_state()
        with make_service(cost_models, state_dir=str(tmp_path)) as svc2:
            assert svc2.warm_start["plan_cache"] == 1
            [(_, _, restored)] = svc2.cache.export_entries()
            assert restored.analysis.ok
            assert restored.runtime_checks_skipped == ["memory_estimate:static"]
            again = svc2.serve(req(graph, feats), timeout=120.0)
        assert again.ok and again.cache_hit and again.outcome == "ok", (
            again.outcome, again.error
        )
        assert again.value.tobytes() == first.value.tobytes()

    def test_seeded_entries_survive_a_second_save(
        self, graph, cost_models, tmp_path
    ):
        feats = feats_for(graph)
        with make_service(cost_models, state_dir=str(tmp_path)) as svc:
            assert svc.serve(req(graph, feats), timeout=120.0).ok
            svc.save_state()
        with make_service(cost_models, state_dir=str(tmp_path)) as svc2:
            svc2.save_state()  # immediately re-save the restored state
        entries = StateStore(tmp_path).load("plan_cache")
        assert isinstance(entries, list) and len(entries) >= 1


class TestHealth:
    def test_ready_flips_on_close(self, cost_models):
        svc = make_service(cost_models)
        try:
            health = svc.health()
            assert health["ready"] is True
            assert health["closed"] is False
            assert health["models"] == ["gcn"]
            assert health["state_store"] is None
        finally:
            svc.close()
        after = svc.health()
        assert after["ready"] is False
        assert after["closed"] is True


class TestShutdownOrdering:
    def test_shutdown_with_slow_shard_in_flight(
        self, graph, cost_models, tmp_path
    ):
        """A shutdown issued while a slow request is executing drains it:
        the request finishes correctly, and only then is durable state
        saved."""
        feats = feats_for(graph)
        slow = FaultPlan.from_string("spmm:slow:1.0:0.4", seed=0)
        svc = make_service(cost_models, state_dir=str(tmp_path), num_threads=1)
        future = svc.submit(req(graph, feats, fault_plan=slow))
        time.sleep(0.05)  # let the worker thread pick the request up
        svc.shutdown()  # drains request threads, then saves state
        assert future.done()
        result = future.result(timeout=30.0)
        assert result.ok, result.error
        np.testing.assert_allclose(
            result.value, reference_for(graph, feats),
            rtol=1e-4, atol=1e-6,
        )
        # shutdown also saved durable state on its way down
        assert (tmp_path / "plan_cache.json").exists()

    def test_shutdown_is_idempotent(self, cost_models, tmp_path):
        svc = make_service(cost_models, state_dir=str(tmp_path))
        svc.shutdown()
        svc.shutdown()
        assert svc.health()["closed"] is True
