"""Multi-tenant serving runtime: admission, cache, isolation, deadlines."""

import contextlib
import pickle
import sys
from pathlib import Path
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.core.costmodel import cost_model_token, get_cost_models
from repro.errors import (
    GraniiInputError,
    GraniiOverloadError,
)
from repro.faults import FaultPlan
from repro.faults import fault_injection
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.models import GCNLayer, build_layer
from repro.serving import (
    GraniiService,
    GraphFingerprint,
    PlanCache,
    ServeRequest,
    fingerprint_graph,
)
from repro.serving import service as service_module
from repro.tensor import Tensor

IN_SIZE, OUT_SIZE = 8, 4


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 6.0, seed=3)


@pytest.fixture(scope="module")
def other_graph():
    return erdos_renyi(80, 5.0, seed=9)


@pytest.fixture(scope="module")
def cost_models():
    # h100/small shares the process-wide cost-model cache with the rest
    # of the suite
    return get_cost_models("h100", scale="small")


def feats_for(graph, k=IN_SIZE, seed=1):
    return np.random.default_rng(seed).standard_normal((graph.num_nodes, k))


def reference_for(graph, feats, seed=0):
    layer = build_layer(
        "gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(seed)
    )
    return np.asarray(layer(graph, feats).data)


def make_service(cost_models, **kwargs):
    kwargs.setdefault("device", "h100")
    kwargs.setdefault("scale", "small")
    kwargs.setdefault("cost_models", cost_models)
    kwargs.setdefault("num_threads", 2)
    svc = GraniiService(**kwargs)
    svc.register_model("gcn", IN_SIZE, OUT_SIZE)
    return svc


def req(graph, feats, tenant="t", **kwargs):
    return ServeRequest(
        tenant=tenant, model="gcn", graph=graph, feats=feats, **kwargs
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_deterministic(self, graph):
        a = fingerprint_graph(graph, "gcn", 8, 4)
        b = fingerprint_graph(graph, "gcn", 8, 4)
        assert a == b

    def test_scopes_model_and_sizes(self, graph):
        base = fingerprint_graph(graph, "gcn", 8, 4)
        assert fingerprint_graph(graph, "gat", 8, 4).key != base.key
        assert fingerprint_graph(graph, "gcn", 16, 4).key != base.key

    def test_distinct_structures_distinct_tokens(self, graph, other_graph):
        a = fingerprint_graph(graph, "gcn", 8, 4)
        b = fingerprint_graph(other_graph, "gcn", 8, 4)
        assert a.key != b.key
        assert a.token != b.token

    def test_the_default_fingerprint_is_the_graph_fingerprint(
        self, graph, cost_models
    ):
        """The service keys a request by structure, model and sizes alone,
        which is also what ``cost_token=cost_model_token(device)`` gives,
        and serving a request moves no key."""
        want = fingerprint_graph(graph, "gcn", IN_SIZE, OUT_SIZE)
        assert cost_model_token("h100") == ""
        assert fingerprint_graph(
            graph, "gcn", IN_SIZE, OUT_SIZE, cost_token=cost_model_token("h100")
        ) == want
        with make_service(cost_models) as svc:
            assert svc._fingerprint_fn(graph, "gcn", IN_SIZE, OUT_SIZE) == want
            assert svc.serve(req(graph, feats_for(graph)), timeout=60).ok
            assert svc._fingerprint_fn(graph, "gcn", IN_SIZE, OUT_SIZE) == want


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_hit_and_miss_accounting(self):
        cache = PlanCache(4)
        payload, hit = cache.get_or_compute("k1", "t1", lambda: "plan")
        assert (payload, hit) == ("plan", False)
        payload, hit = cache.get_or_compute("k1", "t1", lambda: "other")
        assert (payload, hit) == ("plan", True)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_collision_recomputes_and_keeps_owner(self):
        cache = PlanCache(4)
        cache.get_or_compute("k1", "t1", lambda: "owner-plan")
        payload, hit = cache.get_or_compute("k1", "OTHER", lambda: "fresh")
        assert (payload, hit) == ("fresh", False)
        assert cache.stats()["collisions"] == 1
        # the legitimate owner still hits its entry
        payload, hit = cache.get_or_compute("k1", "t1", lambda: "x")
        assert (payload, hit) == ("owner-plan", True)

    def test_lru_eviction_bounds_capacity(self):
        cache = PlanCache(2)
        for i in range(4):
            cache.get_or_compute(f"k{i}", "t", lambda i=i: i)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 2
        # the newest entries survived
        assert cache.lookup("k3", "t") is not None
        assert cache.lookup("k0", "t") is None

    def test_eviction_does_not_break_inflight_holder(self):
        cache = PlanCache(1)
        held, _ = cache.get_or_compute("k0", "t", lambda: {"plan": 0})
        cache.get_or_compute("k1", "t", lambda: {"plan": 1})  # evicts k0
        assert cache.lookup("k0", "t") is None
        # the evicted payload is still a live, usable object
        assert held["plan"] == 0

    def test_eviction_vs_single_flight_hammer(self):
        """Eviction racing single-flight: capacity 2, eight threads over
        six keys with one colliding key.  Every serve must match its own
        key and token (never the wrong plan) and every waiter must
        finish (never stuck on an evicted leader's event)."""
        cache = PlanCache(2)
        keys = [f"key-{i}" for i in range(6)]
        errors = []

        def worker(seed):
            for j in range(120):
                key = keys[(seed + j) % len(keys)]
                # one key alternates tokens to drive the collision path
                token = f"tok-{key}" if key != "key-0" else f"tok-{j % 2}"
                payload, _hit = cache.get_or_compute(
                    key, token, lambda k=key, t=token: ("plan", k, t)
                )
                if payload[1] != key or payload[2] != token:
                    errors.append((key, token, payload))

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not [t for t in threads if t.is_alive()], "stuck waiter"
        assert not errors, f"wrong-plan serve: {errors[0]}"
        stats = cache.stats()
        assert stats["evictions"] > 0, "hammer never drove an eviction"
        assert len(cache) <= 2

    def test_single_flight_computes_once(self):
        cache = PlanCache(4)
        calls = []
        gate = threading.Event()

        def compute():
            calls.append(1)
            gate.wait(5.0)
            return "plan"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_compute("k", "t", compute)
                )
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert len(calls) == 1
        assert [payload for payload, _ in results] == ["plan"] * 4

    def test_failed_leader_promotes_a_waiter(self):
        cache = PlanCache(4)

        with pytest.raises(RuntimeError):
            cache.get_or_compute(
                "k", "t", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
            )
        # the key is not poisoned: the next caller computes fresh
        payload, hit = cache.get_or_compute("k", "t", lambda: "recovered")
        assert (payload, hit) == ("recovered", False)


# ----------------------------------------------------------------------
# Service basics
# ----------------------------------------------------------------------
class TestServeBasics:
    def test_serve_matches_baseline(self, graph, cost_models):
        feats = feats_for(graph)
        with make_service(cost_models) as svc:
            result = svc.serve(req(graph, feats), timeout=60)
        assert result.ok and result.outcome == "ok"
        np.testing.assert_allclose(
            result.value, reference_for(graph, feats), rtol=1e-4, atol=1e-6
        )

    def test_a_served_request_records_no_tape(
        self, graph, cost_models, monkeypatch
    ):
        """A served request runs under ``no_grad``: none of its ops records
        a VJP, and its value is the recording forward's, bit for bit."""
        feats = feats_for(graph)
        recorded = []
        make = Tensor.make

        def recording(data, parents, vjps, op):
            out = make(data, parents, vjps, op)
            recorded.append(out.requires_grad)
            return out

        monkeypatch.setattr(Tensor, "make", staticmethod(recording))
        with make_service(cost_models) as svc:
            served = svc.serve(req(graph, feats), timeout=60)
        assert served.ok and recorded and not any(recorded)
        del recorded[:]
        monkeypatch.setattr(service_module, "no_grad", contextlib.nullcontext)
        with make_service(cost_models) as svc:
            taped = svc.serve(req(graph, feats), timeout=60)
        assert taped.ok and all(recorded)
        assert served.value.tobytes() == taped.value.tobytes()

    def test_repeat_graph_hits_cache(self, graph, cost_models):
        feats = feats_for(graph)
        with make_service(cost_models) as svc:
            first = svc.serve(req(graph, feats), timeout=60)
            second = svc.serve(req(graph, feats), timeout=60)
            stats = svc.cache.stats()
        assert not first.cache_hit
        assert second.cache_hit
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_unknown_model_rejected(self, graph, cost_models):
        with make_service(cost_models) as svc:
            with pytest.raises(GraniiInputError, match="unknown model"):
                svc.submit(ServeRequest(
                    tenant="t", model="resnet", graph=graph,
                    feats=feats_for(graph),
                ))

    def test_malformed_inputs_rejected_at_submit(self, graph, cost_models):
        bad = feats_for(graph)
        bad[0, 0] = np.nan
        with make_service(cost_models) as svc:
            with pytest.raises(GraniiInputError, match="non-finite"):
                svc.submit(req(graph, bad))
            with pytest.raises(GraniiInputError, match="width"):
                svc.submit(req(graph, feats_for(graph)[:, :4].copy()))
            with pytest.raises(GraniiInputError, match="deadline"):
                svc.submit(req(graph, feats_for(graph), deadline_seconds=0))
            assert svc.stats()["totals"]["completed"] == 0

    def test_closed_service_sheds(self, graph, cost_models):
        svc = make_service(cost_models)
        svc.close()
        with pytest.raises(GraniiOverloadError, match="closed"):
            svc.submit(req(graph, feats_for(graph)))


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_overload_sheds_with_retry_hint(self, graph, cost_models):
        feats = feats_for(graph)
        with make_service(
            cost_models, num_threads=1, max_queue=1,
        ) as svc:
            futures, sheds = [], []
            slow = FaultPlan.from_string("*:slow:1.0:0.05", seed=0)
            for _ in range(8):
                try:
                    futures.append(svc.submit(
                        req(graph, feats, fault_plan=slow)
                    ))
                except GraniiOverloadError as exc:
                    sheds.append(exc)
            results = [f.result(timeout=60) for f in futures]
        assert sheds, "a burst past the bound must shed"
        assert all(s.retry_after_seconds > 0 for s in sheds)
        assert all(s.tenant == "t" for s in sheds)
        assert all(r.outcome != "raw_escape" for r in results)

    def test_queue_bound_is_per_tenant(self, graph, cost_models):
        feats = feats_for(graph)
        slow = FaultPlan.from_string("*:slow:1.0:0.1", seed=0)
        with make_service(
            cost_models, num_threads=1, max_queue=1,
        ) as svc:
            futures = [svc.submit(req(graph, feats, fault_plan=slow))]
            # tenant "t" is saturated; a second submit for it sheds ...
            with pytest.raises(GraniiOverloadError):
                svc.submit(req(graph, feats, fault_plan=slow))
            # ... but tenant "u" still has its own empty queue
            futures.append(svc.submit(
                req(graph, feats, tenant="u", fault_plan=slow)
            ))
            done, not_done = wait(futures, timeout=60)
        assert not not_done


# ----------------------------------------------------------------------
# Collision and eviction under serving load
# ----------------------------------------------------------------------
class TestCacheSafety:
    def test_key_collision_never_serves_wrong_plan(
        self, graph, other_graph, cost_models
    ):
        def collide(g, model_name, in_size, out_size):
            fp = fingerprint_graph(g, model_name, in_size, out_size)
            return GraphFingerprint(key="same-key", token=fp.token)

        feats, other_feats = feats_for(graph), feats_for(other_graph)
        with make_service(cost_models, fingerprint_fn=collide) as svc:
            first = svc.serve(req(graph, feats), timeout=60)
            second = svc.serve(req(other_graph, other_feats), timeout=60)
            stats = svc.cache.stats()
        assert first.ok and second.ok
        assert not second.cache_hit
        assert stats["collisions"] >= 1
        np.testing.assert_allclose(
            second.value, reference_for(other_graph, other_feats),
            rtol=1e-4, atol=1e-6,
        )

    def test_eviction_under_load_stays_correct(
        self, graph, other_graph, cost_models
    ):
        feats, other_feats = feats_for(graph), feats_for(other_graph)
        with make_service(cost_models, plan_cache_size=1) as svc:
            for _ in range(2):  # alternate so every request evicts
                a = svc.serve(req(graph, feats), timeout=60)
                b = svc.serve(req(other_graph, other_feats), timeout=60)
                assert a.ok and b.ok
                np.testing.assert_allclose(
                    a.value, reference_for(graph, feats),
                    rtol=1e-4, atol=1e-6,
                )
                np.testing.assert_allclose(
                    b.value, reference_for(other_graph, other_feats),
                    rtol=1e-4, atol=1e-6,
                )
            assert svc.cache.stats()["evictions"] >= 2
            assert len(svc.cache) == 1


# ----------------------------------------------------------------------
# Isolation, breakers, deadlines
# ----------------------------------------------------------------------
class TestIsolation:
    def test_poison_tenant_demotes_clean_tenant_unaffected(
        self, graph, cost_models
    ):
        feats = feats_for(graph)
        reference = reference_for(graph, feats)
        with make_service(
            cost_models, tenant_breaker_threshold=2,
            tenant_breaker_cooldown=300.0,
        ) as svc:
            poison = [
                svc.serve(req(
                    graph, feats, tenant="poison",
                    fault_plan=FaultPlan.from_string("*:raise:1.0", seed=i),
                ), timeout=60)
                for i in range(4)
            ]
            clean = svc.serve(req(graph, feats, tenant="clean"), timeout=60)
            stats = svc.stats()
        # the poisoned tenant demoted through its ladder, then the
        # tenant breaker sent it straight to the reference path
        assert all(r.ok for r in poison)
        assert any(r.demotions for r in poison)
        assert any(r.outcome == "reference" for r in poison)
        for r in poison:
            np.testing.assert_allclose(
                r.value, reference, rtol=1e-4, atol=1e-6
            )
        assert stats["tenants"]["poison"]["breaker_trips"] >= 1
        # the clean tenant never saw a demotion
        assert clean.ok and clean.outcome == "ok" and not clean.demotions

    def test_a_failing_kernel_is_demoted_never_retried(
        self, graph, cost_models
    ):
        feats = feats_for(graph)
        crash = FaultPlan.from_string("spmm:raise:1.0", seed=0)
        with make_service(cost_models) as svc:
            result = svc.serve(req(graph, feats, fault_plan=crash), timeout=60)
            health = svc.health()
        assert result.ok and result.demotions
        assert result.retries == 0
        assert not any(kind == "retry" for _, kind, _ in result.attempts)
        assert "pool" not in health

    def test_deadline_times_out_structured(self, graph, cost_models):
        feats = feats_for(graph)
        slow = FaultPlan.from_string("*:slow:1.0:0.2", seed=0)
        with make_service(cost_models) as svc:
            result = svc.serve(req(
                graph, feats, deadline_seconds=0.25, fault_plan=slow,
            ), timeout=60)
        assert not result.ok
        assert result.outcome == "timeout"
        assert result.error_type == "GraniiDeadlineError"


# ----------------------------------------------------------------------
# Concurrency smoke
# ----------------------------------------------------------------------
class TestConcurrentServing:
    def test_many_tenants_many_requests(self, graph, other_graph, cost_models):
        feats, other_feats = feats_for(graph), feats_for(other_graph)
        refs = {
            graph.num_nodes: reference_for(graph, feats),
            other_graph.num_nodes: reference_for(other_graph, other_feats),
        }
        with make_service(cost_models, num_threads=4, max_queue=32) as svc:
            futures = []
            for i in range(24):
                g, f = (graph, feats) if i % 2 else (other_graph, other_feats)
                futures.append(svc.submit(
                    req(g, f, tenant=f"tenant-{i % 3}")
                ))
            results = [f.result(timeout=60) for f in futures]
            stats = svc.stats()
        assert all(r.ok for r in results)
        for r in results:
            np.testing.assert_allclose(
                r.value, refs[r.value.shape[0]], rtol=1e-4, atol=1e-6
            )
        assert stats["cache"]["hits"] >= 20
        assert stats["totals"]["completed"] == 24


# ----------------------------------------------------------------------
# A never-seen structure: one forest descent prices its selection
# ----------------------------------------------------------------------
class TestNeverSeenStructure:
    def test_a_miss_prices_in_one_descent_and_matches_a_direct_select(
        self, cost_models, monkeypatch
    ):
        """A miss's selection prices every plan in one forest descent; a
        repeat select on the same graph vector runs none; the served
        label and predicted costs are a direct ``select``'s, bit for bit."""
        from repro.core.costmodel import CostModelSet
        from repro.core.runtime import GraniiEngine
        from repro.learn.gbt import Forest

        # a set of its own, so nothing is priced before this test
        models = CostModelSet(
            cost_models.device_name, cost_models._models, scale=cost_models.scale
        )
        descents, selections = [], []
        predict, select = Forest.predict, GraniiEngine.select

        def counting_predict(self, which, x):
            descents.append(len(which))
            return predict(self, which, x)

        def recording_select(self, *args, **kwargs):
            report = select(self, *args, **kwargs)
            selections.append(report)
            return report

        monkeypatch.setattr(Forest, "predict", counting_predict)
        monkeypatch.setattr(GraniiEngine, "select", recording_select)
        graph = erdos_renyi(150, 6.0, seed=45)
        feats = feats_for(graph)
        with make_service(models) as svc:
            result = svc.serve(req(graph, feats), timeout=60)
            again = svc.serve(req(graph, feats), timeout=60)
        assert result.ok and not result.cache_hit
        assert again.ok and again.cache_hit
        assert len(selections) == 1 and len(descents) == 1
        served = selections[0]
        assert len(served.predicted_costs) > 1  # priced, not a lone plan
        assert descents[0] > 1  # every new price key in the one descent

        engine = GraniiEngine(device="h100", scale="small", cost_models=models)
        layer = build_layer(
            "gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0)
        )
        direct = engine.select(
            engine.compile_for(layer, graph), Graph(graph.adj), layer
        )
        assert len(descents) == 1  # the same vector: every price in memory
        assert direct.chosen.cost_label == served.chosen.cost_label
        assert {k: v.hex() for k, v in direct.predicted_costs.items()} == {
            k: v.hex() for k, v in served.predicted_costs.items()
        }

        # the same prices from a cold set of its own: one descent again
        cold = CostModelSet(
            cost_models.device_name, cost_models._models, scale=cost_models.scale
        )
        engine = GraniiEngine(device="h100", scale="small", cost_models=cold)
        fresh = engine.select(
            engine.compile_for(layer, graph), Graph(graph.adj), layer
        )
        assert len(descents) == 2
        assert {k: v.hex() for k, v in fresh.predicted_costs.items()} == {
            k: v.hex() for k, v in served.predicted_costs.items()
        }


    def test_a_miss_builds_one_layer(self, cost_models):
        """The request that selects runs on the layer it built to select
        with: one ``factory`` call per never-seen structure."""
        built = []

        def factory():
            built.append(
                build_layer("gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0))
            )
            return built[-1]

        graphs = [erdos_renyi(100 + 10 * i, 5.0, seed=60 + i) for i in range(4)]
        with make_service(cost_models) as svc:
            svc.register_model("gcn", IN_SIZE, OUT_SIZE, factory=factory)
            for i, g in enumerate(graphs):
                feats = feats_for(g)
                result = svc.serve(req(g, feats), timeout=60)
                assert result.ok and result.outcome == "ok", result.error
                assert not result.cache_hit and len(built) == i + 1
                np.testing.assert_allclose(
                    result.value, reference_for(g, feats), rtol=1e-9, atol=1e-12
                )
            assert warm(svc) == (0, 0)  # a miss checks nothing in
            # a hit finds no kept state yet, builds its own and keeps it
            hit = svc.serve(req(graphs[0], feats_for(graphs[0])), timeout=60)
            assert hit.cache_hit and len(built) == len(graphs) + 1
            assert warm(svc) == (1, 0)


# ----------------------------------------------------------------------
# Warm execution state: kept per (tenant, model, cache entry), checked
# out by one request at a time, checked in only by a clean hit
# ----------------------------------------------------------------------
def warm(svc):
    stats = svc.stats()["cache"]
    return int(stats["warm_states"]), int(stats["warm_checkouts"])


class TestWarmState:
    def test_second_sighting_stores_third_reuses(self, graph, cost_models):
        feats = feats_for(graph)
        with make_service(cost_models) as svc:
            svc.serve(req(graph, feats), timeout=60)  # miss: stores nothing
            assert warm(svc) == (0, 0)
            svc.serve(req(graph, feats), timeout=60)  # hit on a fresh state
            assert warm(svc) == (1, 0)
            third = svc.serve(req(graph, feats), timeout=60)
            assert warm(svc) == (1, 1)
            # a served value is the caller's: the next run on the same
            # kept state must not write into it
            held = third.value.copy()
            doubled = svc.serve(req(graph, 2.0 * feats), timeout=60)
            assert warm(svc) == (1, 2)
            assert not np.shares_memory(third.value, doubled.value)
            assert np.array_equal(third.value, held)
            assert not np.array_equal(doubled.value, held)
            # another tenant never sees this tenant's state
            other = svc.serve(req(graph, feats, tenant="u"), timeout=60)
            assert other.cache_hit and warm(svc) == (2, 2)
        assert warm(svc) == (0, 2)  # close() drops the states
        assert third.ok and third.outcome == "ok"
        assert np.array_equal(third.value, other.value)

    def test_concurrent_hits_bitwise_equal_and_never_share_a_layer(
        self, graph, cost_models
    ):
        feats = feats_for(graph)
        with make_service(cost_models) as fresh_svc:
            # a miss runs on the layer it selected with and empty
            # caches, as every request did before state was kept
            fresh = fresh_svc.serve(req(graph, feats), timeout=60).value
        built, overlaps = [], []

        class ProbeLayer(GCNLayer):
            entered = False

            def __call__(self, g, feat):
                if self.entered:
                    overlaps.append(threading.get_ident())
                self.entered = True
                try:
                    return super().__call__(g, feat)
                finally:
                    self.entered = False

        def factory():
            layer = ProbeLayer(
                IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0)
            )
            built.append(layer)
            return layer

        threads, per_thread = 8, 50
        values, errors = [], []

        def client(svc):
            try:
                for _ in range(per_thread):
                    result = svc.serve(req(graph, feats), timeout=60)
                    values.append((result.outcome, result.value))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            svc = GraniiService(
                device="h100", scale="small", cost_models=cost_models,
                num_threads=4, max_queue=64,
            )
            svc.register_model("gcn", IN_SIZE, OUT_SIZE, factory=factory)
            with svc:
                svc.serve(req(graph, feats), timeout=60)  # the one miss
                pool = [
                    threading.Thread(target=client, args=(svc,))
                    for _ in range(threads)
                ]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in pool)
                stored, checkouts = warm(svc)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not overlaps
        assert len(values) == threads * per_thread
        for outcome, value in values:
            assert outcome == "ok"
            assert np.array_equal(value, fresh)
        # kept states really served, never more stored than workers, and
        # every hit ran on either a kept layer or a newly built one (the
        # miss built one, selected with it and ran on it)
        assert checkouts > 0 and 1 <= stored <= 4
        assert checkouts + len(built) - 1 == threads * per_thread

    def test_reregistered_model_serves_new_weights(self, graph, cost_models):
        feats = feats_for(graph)
        with make_service(cost_models) as svc:
            for _ in range(3):
                old = svc.serve(req(graph, feats), timeout=60)
            assert warm(svc) == (1, 1)
            svc.register_model("gcn", IN_SIZE, OUT_SIZE, seed=5)
            new = svc.serve(req(graph, feats), timeout=60)
            again = svc.serve(req(graph, feats), timeout=60)
        assert new.cache_hit and again.cache_hit
        np.testing.assert_allclose(
            old.value, reference_for(graph, feats, seed=0),
            rtol=1e-4, atol=1e-6,
        )
        for result in (new, again):
            np.testing.assert_allclose(
                result.value, reference_for(graph, feats, seed=5),
                rtol=1e-4, atol=1e-6,
            )
        assert not np.allclose(old.value, new.value)

    @pytest.mark.parametrize("spec", ["*:raise:1.0", "*:slow:1.0:0.001"])
    def test_fault_plan_request_neither_takes_nor_returns(
        self, graph, cost_models, spec
    ):
        feats = feats_for(graph)
        with make_service(cost_models, tenant_breaker_threshold=100) as svc:
            svc.serve(req(graph, feats), timeout=60)
            svc.serve(req(graph, feats), timeout=60)
            assert warm(svc) == (1, 0)
            faulted = svc.serve(req(
                graph, feats, fault_plan=FaultPlan.from_string(spec, seed=0),
            ), timeout=60)
            assert faulted.ok and faulted.cache_hit
            assert warm(svc) == (1, 0)  # untouched: the fresh path ran
            clean = svc.serve(req(graph, feats), timeout=60)
            assert warm(svc) == (1, 1)
        assert bool(faulted.demotions) == ("raise" in spec)
        assert clean.outcome == "ok"
        np.testing.assert_allclose(
            clean.value, reference_for(graph, feats), rtol=1e-4, atol=1e-6
        )

    def test_demotion_drops_state_and_open_breaker_bypasses_it(
        self, graph, other_graph, cost_models
    ):
        feats, other_feats = feats_for(graph), feats_for(other_graph)
        with make_service(
            cost_models, tenant_breaker_threshold=1,
            tenant_breaker_cooldown=300.0,
        ) as svc:
            for _ in range(2):
                svc.serve(req(graph, feats), timeout=60)
                svc.serve(req(other_graph, other_feats), timeout=60)
            assert warm(svc) == (2, 0)
            # a kernel fault that is not the request's own: the run takes
            # the kept state, demotes, and must not hand it on
            with fault_injection(FaultPlan.from_string("*:raise:1.0", seed=0)):
                demoted = svc.serve(req(graph, feats), timeout=60)
            assert demoted.ok and demoted.outcome == "ok_demoted"
            assert warm(svc) == (1, 1)
            # ... and it tripped the tenant breaker: the reference path
            # neither takes nor touches the other structure's state
            bypass = svc.serve(req(other_graph, other_feats), timeout=60)
            assert bypass.outcome == "reference"
            assert warm(svc) == (1, 1)
        np.testing.assert_allclose(
            bypass.value, reference_for(other_graph, other_feats),
            rtol=1e-4, atol=1e-6,
        )

    def test_one_shot_structures_retain_nothing(self, cost_models):
        with make_service(cost_models) as svc:
            for i in range(200):
                g = erdos_renyi(30, 3.0, seed=1000 + i)
                assert svc.serve(req(g, feats_for(g)), timeout=60).ok
            assert warm(svc) == (0, 0)

    def test_eviction_drops_the_entrys_states(
        self, graph, other_graph, cost_models
    ):
        feats = feats_for(graph)
        with make_service(cost_models, plan_cache_size=1) as svc:
            svc.serve(req(graph, feats), timeout=60)
            svc.serve(req(graph, feats), timeout=60)
            assert warm(svc) == (1, 0)
            svc.serve(req(other_graph, feats_for(other_graph)), timeout=60)
            assert svc.cache.stats()["evictions"] == 1
            assert warm(svc) == (0, 0)
            back = svc.serve(req(graph, feats), timeout=60)
            assert not back.cache_hit and warm(svc) == (0, 0)

    def test_fresh_object_with_other_weights_gets_its_own_setup(
        self, graph, cost_models
    ):
        # edge values are not part of the fingerprint: both graphs hit one
        # entry and the second runs on the state the first left behind
        rng = np.random.default_rng(4)
        feats = feats_for(graph)
        first = Graph(graph.adj.with_values(rng.random(graph.adj.nnz) + 0.1))
        second = Graph(graph.adj.with_values(rng.random(graph.adj.nnz) + 0.1))
        with make_service(cost_models) as svc:
            for _ in range(3):
                a = svc.serve(req(first, feats), timeout=60)
            b = svc.serve(req(second, feats), timeout=60)
            assert b.cache_hit and warm(svc) == (1, 2)
        weight = build_layer(
            "gcn", IN_SIZE, OUT_SIZE, rng=np.random.default_rng(0)
        ).linear.weight.data

        def weighted_reference(g):
            # the baseline forward aggregates over the pattern only; the
            # weighted function is relu(D^-1/2 (A+I) D^-1/2 H W) with
            # weighted degrees
            dense = g.adj_with_self_loops().to_dense()
            deg = dense.sum(axis=1)
            d = np.diag(np.where(deg > 0, deg ** -0.5, 0.0))
            return np.maximum(d @ dense @ d @ feats @ weight, 0.0)

        np.testing.assert_allclose(
            a.value, weighted_reference(first), rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            b.value, weighted_reference(second), rtol=1e-9, atol=1e-12
        )
        assert not np.allclose(a.value, b.value)

    def test_kept_state_is_not_exported_or_saved(
        self, graph, cost_models, tmp_path
    ):
        feats = feats_for(graph)
        with make_service(cost_models, state_dir=str(tmp_path)) as svc:
            svc.serve(req(graph, feats), timeout=60)
            before = pickle.dumps(svc.cache.export_entries())
            saved_before = Path(svc.save_state()["plan_cache"]).read_bytes()
            for _ in range(3):
                svc.serve(req(graph, feats), timeout=60)
            assert warm(svc) == (1, 2)
            exported = svc.cache.export_entries()
            assert [len(triple) for triple in exported] == [3]
            assert pickle.dumps(exported) == before
            saved_after = Path(svc.save_state()["plan_cache"]).read_bytes()
            assert saved_after == saved_before
        # and a restored service hits on what was saved
        with make_service(cost_models, state_dir=str(tmp_path)) as restored:
            assert restored.warm_start["plan_cache"] == 1
            assert restored.serve(req(graph, feats), timeout=60).cache_hit

    def test_admission_validates_once_per_served_request(
        self, graph, cost_models, monkeypatch
    ):
        import repro.core.guard as guard_mod
        import repro.serving.service as service_mod

        calls = []
        real = guard_mod.validate_inputs

        def counting(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(guard_mod, "validate_inputs", counting)
        monkeypatch.setattr(service_mod, "validate_inputs", counting)
        feats = feats_for(graph)
        bad = feats.copy()
        bad[0, 0] = np.inf
        with make_service(cost_models) as svc:
            for served in (1, 2, 3):  # a miss, a fresh hit, a warm hit
                assert svc.serve(req(graph, feats), timeout=60).ok
                assert len(calls) == served
            assert set(calls) == {threading.get_ident()}  # caller's thread
            with pytest.raises(GraniiInputError, match="non-finite"):
                svc.submit(req(graph, bad))
            assert svc.stats()["totals"]["completed"] == 3
