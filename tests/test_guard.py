"""Guarded execution runtime: admission, budgets, breakers, the ladder."""

import pickle

import numpy as np
import pytest

from repro.core import GraniiEngine
from repro.core.guard import (
    CircuitBreaker,
    DemotionRecord,
    ExecutionBudget,
    GuardedExecutor,
    validate_inputs,
    value_nbytes,
)
from repro.errors import (
    GraniiDeadlineError,
    GraniiError,
    GraniiInputError,
    GraniiMemoryError,
)
from repro.faults import FaultPlan, fault_injection
from repro.graphs.generators import erdos_renyi
from repro.models import build_layer
from repro.sparse import CSRMatrix, DiagonalMatrix
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 6.0, seed=3)


@pytest.fixture(scope="module")
def engine():
    # h100/small shares the process-wide cost-model cache with the rest
    # of the suite
    return GraniiEngine(device="h100", scale="small", guarded=True)


@pytest.fixture()
def gcn(graph):
    return build_layer("gcn", 8, 4, rng=np.random.default_rng(0))


def feats_for(graph, k=8, seed=1):
    return np.random.default_rng(seed).standard_normal((graph.num_nodes, k))


# ----------------------------------------------------------------------
# Input admission
# ----------------------------------------------------------------------
class TestValidateInputs:
    def test_good_inputs_pass(self, graph, gcn):
        mp = gcn.as_mp_graph(graph)
        validate_inputs(gcn, mp, feats_for(graph))

    def test_nan_features_rejected(self, graph, gcn):
        mp = gcn.as_mp_graph(graph)
        bad = feats_for(graph)
        bad[5, 3] = np.nan
        with pytest.raises(GraniiInputError, match="non-finite"):
            validate_inputs(gcn, mp, bad)

    def test_wrong_width_rejected(self, graph, gcn):
        mp = gcn.as_mp_graph(graph)
        with pytest.raises(GraniiInputError, match="in_size"):
            validate_inputs(gcn, mp, feats_for(graph, k=5))

    def test_wrong_row_count_rejected(self, graph, gcn):
        mp = gcn.as_mp_graph(graph)
        with pytest.raises(GraniiInputError, match="rows"):
            validate_inputs(gcn, mp, feats_for(graph)[:-3])

    def test_object_dtype_rejected(self, graph, gcn):
        mp = gcn.as_mp_graph(graph)
        bad = feats_for(graph).astype(object)
        with pytest.raises(GraniiInputError, match="dtype"):
            validate_inputs(gcn, mp, bad)

    def test_out_of_range_edge_rejected(self, graph, gcn):
        mp = gcn.as_mp_graph(graph)
        saved = int(mp.adj.indices[0])
        mp.adj.indices[0] = graph.num_nodes + 9
        try:
            with pytest.raises(GraniiInputError, match="out of range"):
                validate_inputs(gcn, mp, feats_for(graph))
        finally:
            mp.adj.indices[0] = saved

    def test_tensor_features_accepted(self, graph, gcn):
        mp = gcn.as_mp_graph(graph)
        validate_inputs(gcn, mp, Tensor(feats_for(graph)))


class TestValueNbytes:
    def test_covers_runtime_value_kinds(self, rng):
        dense = np.zeros((4, 3))
        assert value_nbytes(dense) == dense.nbytes
        assert value_nbytes(Tensor(dense)) == dense.nbytes
        csr = CSRMatrix.from_coo(
            np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0]), (2, 2)
        )
        assert value_nbytes(csr) == (
            csr.indptr.nbytes + csr.indices.nbytes + csr.values.nbytes
        )
        diag = DiagonalMatrix(np.ones(5))
        assert value_nbytes(diag) == diag.diag.nbytes
        assert value_nbytes("not a tensor") == 0.0


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
class TestExecutionBudget:
    def test_deadline_from_prediction_and_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_FLOOR_MS", "100")
        monkeypatch.setenv("REPRO_DEADLINE_SLACK", "1000")
        budget = ExecutionBudget.for_plan(predicted_seconds=0.01)
        assert budget.deadline_seconds == pytest.approx(10.0)
        # a tiny prediction is floored, not taken literally
        budget = ExecutionBudget.for_plan(predicted_seconds=1e-9)
        assert budget.deadline_seconds == pytest.approx(0.1)

    def test_deadline_breach_raises_structured(self):
        budget = ExecutionBudget(deadline_seconds=0.0)
        budget.start()
        with pytest.raises(GraniiDeadlineError) as exc:
            budget.on_step(object(), np.zeros(4))
        assert exc.value.budget == 0.0
        assert exc.value.observed > 0.0
        assert isinstance(exc.value, TimeoutError)  # stdlib-compatible

    def test_memory_accumulation_raises_structured(self):
        budget = ExecutionBudget(memory_budget_bytes=100.0)
        budget.start()
        budget.on_step(object(), np.zeros(8))  # 64 bytes: fine
        with pytest.raises(GraniiMemoryError) as exc:
            budget.on_step(object(), np.zeros(8))  # 128 total: over
        assert isinstance(exc.value, MemoryError)  # stdlib-compatible
        assert exc.value.observed > exc.value.budget

    def test_estimate_gate(self):
        class FatPlan:
            name = "fat"

            def peak_memory_bytes(self, env):
                return 1e9

        budget = ExecutionBudget(memory_budget_bytes=1e6)
        with pytest.raises(GraniiMemoryError, match="budget"):
            budget.check_estimate(FatPlan(), {})

    def test_disabled_budget_never_raises(self):
        budget = ExecutionBudget()
        budget.start()
        budget.on_step(object(), np.zeros(1000))


# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_at_threshold_and_cools_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_seconds=10, clock=clock)
        assert not breaker.is_open("spmm", "blocked")
        assert breaker.record_failure("spmm", "blocked") is False
        assert breaker.record_failure("spmm", "blocked") is False
        assert breaker.record_failure("spmm", "blocked") is True  # trips
        assert breaker.is_open("spmm", "blocked")
        clock.now = 9.9
        assert breaker.is_open("spmm", "blocked")
        clock.now = 10.0  # cooldown elapsed: fully reset
        assert not breaker.is_open("spmm", "blocked")
        assert breaker.record_failure("spmm", "blocked") is False

    def test_success_clears_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=10,
                                 clock=FakeClock())
        breaker.record_failure("spmm", "blocked")
        breaker.record_success("spmm", "blocked")
        assert breaker.record_failure("spmm", "blocked") is False

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=10,
                                 clock=FakeClock())
        breaker.record_failure("spmm", "blocked")
        assert breaker.is_open("spmm", "blocked")
        assert not breaker.is_open("spmm", "row_segment")
        assert not breaker.is_open("sddmm", "blocked")

    def test_snapshot_serializable(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=10, clock=clock)
        breaker.record_failure("spmm", "blocked")
        snap = breaker.snapshot()
        assert snap["spmm/blocked"]["open"] == 1.0
        assert snap["spmm/blocked"]["reopens_in_seconds"] == pytest.approx(10.0)
        pickle.loads(pickle.dumps(snap))

    def test_open_breaker_skips_the_strategy_rung_until_cooldown(
        self, graph, gcn
    ):
        """An open ``("spmm", strategy)`` breaker makes a guarded executor
        skip that strategy's rung; after the cooldown the rung runs."""
        clock = FakeClock()
        engine_b = GraniiEngine(
            device="h100", scale="small", spmm_strategy="blocked",
            guarded=True,
            breakers=CircuitBreaker(threshold=1, cooldown_seconds=50,
                                    clock=clock),
        )
        feats = feats_for(graph)
        engine_b.breakers.record_failure("spmm", "blocked")
        selection = engine_b.optimize(gcn, graph, feats).selections[0]
        assert selection.spmm_strategy == "blocked"
        gcn(graph, feats)
        assert [d.reason for d in selection.demotions] == ["breaker_open"]
        assert selection.demotions[0].from_label.endswith("@blocked")

        clock.now = 50.0  # cooldown over: the strategy's rung runs again
        selection = engine_b.optimize(gcn, graph, feats).selections[0]
        gcn(graph, feats)
        assert selection.demotions == []


# ----------------------------------------------------------------------
# The fallback ladder
# ----------------------------------------------------------------------
class TestGuardedExecutor:
    def _optimized(self, engine, graph, layer, feats):
        report = engine.optimize(layer, graph, feats)
        return report.selections[0]

    def test_clean_run_matches_baseline(self, engine, graph, gcn):
        feats = feats_for(graph)
        baseline = np.asarray(gcn.forward(gcn.as_mp_graph(graph),
                                          Tensor(feats)).data)
        selection = self._optimized(engine, graph, gcn, feats)
        out = np.asarray(gcn(graph, feats).data)
        np.testing.assert_allclose(out, baseline, rtol=1e-6, atol=1e-9)
        assert selection.demotions == []

    def test_kernel_crash_demotes_and_recovers(self, engine, graph, gcn):
        feats = feats_for(graph)
        baseline = np.asarray(gcn.forward(gcn.as_mp_graph(graph),
                                          Tensor(feats)).data)
        selection = self._optimized(engine, graph, gcn, feats)
        plan = FaultPlan.from_string(
            "spmm:raise:1.0,spmm_unweighted:raise:1.0", seed=0
        )
        with fault_injection(plan):
            out = np.asarray(gcn(graph, feats).data)
        np.testing.assert_allclose(out, baseline, rtol=1e-6, atol=1e-9)
        assert selection.demotions, "fallback must be recorded"
        assert selection.demotions[0].reason == "kernel_error"
        assert selection.demotions[0].error_type == "FaultInjected"
        assert selection.demotions[-1].to_label == "reference"
        assert "spmm" in selection.demotions[0].step
        assert selection.breaker_state  # snapshot recorded

    def test_demotion_is_permanent_for_executor(self, engine, graph, gcn):
        feats = feats_for(graph)
        selection = self._optimized(engine, graph, gcn, feats)
        plan = FaultPlan.from_string(
            "spmm:raise:1.0,spmm_unweighted:raise:1.0", seed=0
        )
        with fault_injection(plan):
            gcn(graph, feats)
        demoted = len(selection.demotions)
        gcn(graph, feats)  # faults gone, but the ladder does not rewind
        assert len(selection.demotions) == demoted

    def test_input_error_not_demoted(self, engine, graph, gcn):
        feats = feats_for(graph)
        selection = self._optimized(engine, graph, gcn, feats)
        bad = feats.copy()
        bad[0, 0] = np.inf
        with pytest.raises(GraniiInputError):
            gcn(graph, bad)
        assert selection.demotions == []  # bad inputs are not plan failures

    def test_memory_budget_walks_to_reference(self, engine, graph, gcn,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "0.001")
        feats = feats_for(graph)
        baseline = np.asarray(gcn.forward(gcn.as_mp_graph(graph),
                                          Tensor(feats)).data)
        selection = self._optimized(engine, graph, gcn, feats)
        out = np.asarray(gcn(graph, feats).data)
        np.testing.assert_allclose(out, baseline, rtol=1e-6, atol=1e-9)
        assert selection.demotions
        assert all(d.reason == "memory" for d in selection.demotions)

    def test_skip_validation_env(self, engine, graph, gcn, monkeypatch):
        monkeypatch.setenv("REPRO_SKIP_VALIDATION", "1")
        feats = feats_for(graph)
        self._optimized(engine, graph, gcn, feats)
        bad = feats.copy()
        bad[0, 0] = np.nan
        # gate off: no GraniiInputError; the poisoned value flows through
        out = gcn(graph, bad)
        assert np.asarray(out.data).shape == (graph.num_nodes, 4)

    def test_make_executor_without_selection(self, engine, graph, gcn):
        compiled = engine.compile_for(gcn, graph)
        env = engine.shape_env(graph, gcn)
        planned = compiled.viable(env["K1"], env["K2"])[0]
        executor = engine.make_executor(gcn, planned, guarded=True)
        assert isinstance(executor, GuardedExecutor)
        out = executor(gcn.as_mp_graph(graph), Tensor(feats_for(graph)))
        assert np.asarray(out.data).shape == (graph.num_nodes, 4)


# ----------------------------------------------------------------------
# SelectionReport bookkeeping (pickle + describe)
# ----------------------------------------------------------------------
class TestSelectionReportDemotions:
    def test_report_pickles_with_demotions(self, engine, graph, gcn):
        feats = feats_for(graph)
        report = engine.optimize(gcn, graph, feats)
        selection = report.selections[0]
        plan = FaultPlan.from_string(
            "spmm:raise:1.0,spmm_unweighted:raise:1.0", seed=0
        )
        with fault_injection(plan):
            gcn(graph, feats)
        assert selection.demotions
        restored = pickle.loads(pickle.dumps(selection))
        assert len(restored.demotions) == len(selection.demotions)
        assert restored.demotions[0].reason == selection.demotions[0].reason
        assert restored.breaker_state == selection.breaker_state
        assert [p.label for p in restored.ranked] == [
            p.label for p in selection.ranked
        ]

    def test_describe_shows_fallback_chain_and_breakers(self, engine, graph,
                                                        gcn):
        feats = feats_for(graph)
        report = engine.optimize(gcn, graph, feats)
        selection = report.selections[0]
        plan = FaultPlan.from_string(
            "spmm:raise:1.0,spmm_unweighted:raise:1.0", seed=0
        )
        with fault_injection(plan):
            gcn(graph, feats)
        text = selection.describe()
        assert "demoted:" in text
        assert "-> reference" in text
        assert "breaker" in text
        assert "FaultInjected" in text

    def test_demotion_record_describe(self):
        record = DemotionRecord(
            from_label="a#p@blocked", to_label="reference",
            reason="deadline", error_type="GraniiDeadlineError",
            step="spmm(A,H)", seconds=0.25,
        )
        text = record.describe()
        assert "a#p@blocked -> reference" in text
        assert "deadline" in text and "250.0 ms" in text

    def test_ranked_is_cheapest_first(self, engine, graph, gcn):
        selection = engine.select(engine.compile_for(gcn, graph), graph, gcn)
        assert selection.ranked[0] is selection.chosen
        if len(selection.ranked) > 1:
            costs = [
                selection.predicted_costs[f"{p.label}#{p.plan.name}"]
                for p in selection.ranked
            ]
            assert costs == sorted(costs)

# ----------------------------------------------------------------------
# Thread-safety: the serving runtime shares breakers and reports
# ----------------------------------------------------------------------
class TestConcurrentMutation:
    def _hammer(self, fn, threads=8):
        errors = []

        def run():
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        workers = [__import__("threading").Thread(target=run)
                   for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not errors

    def test_breaker_counts_exactly_under_contention(self):
        breaker = CircuitBreaker(
            threshold=10_000, cooldown_seconds=1000.0, clock=lambda: 0.0
        )

        def fail_a_lot():
            for _ in range(200):
                breaker.record_failure("spmm", "blocked")

        self._hammer(fail_a_lot)
        snap = breaker.snapshot()
        assert snap["spmm/blocked"]["failures"] == 8 * 200
        assert not breaker.is_open("spmm", "blocked")

    def test_racing_threshold_trips_exactly_once(self):
        breaker = CircuitBreaker(
            threshold=50, cooldown_seconds=1000.0, clock=lambda: 0.0
        )
        trips = []

        def race():
            for _ in range(100):
                if breaker.record_failure("spmm", "blocked"):
                    trips.append(1)

        self._hammer(race)
        assert len(trips) == 1
        assert breaker.is_open("spmm", "blocked")

    def test_mixed_traffic_stays_consistent(self):
        breaker = CircuitBreaker(
            threshold=5, cooldown_seconds=1000.0, clock=lambda: 0.0
        )

        def traffic():
            for i in range(100):
                key = ("spmm", f"s{i % 3}")
                if i % 4 == 0:
                    breaker.record_success(*key)
                else:
                    breaker.record_failure(*key)
                breaker.is_open(*key)
                breaker.snapshot()

        self._hammer(traffic)
        # every touched key is represented with a non-negative count
        for entry in breaker.snapshot().values():
            assert entry["failures"] >= 0

    def test_selection_report_concurrent_recording(self, engine, graph, gcn):
        selection = engine.select(engine.compile_for(gcn, graph), graph, gcn)

        def record():
            for i in range(100):
                selection.record_demotion(DemotionRecord(
                    from_label="a", to_label="b", reason="kernel_error",
                    message=f"m{i}",
                ))
                selection.record_runtime_check_skipped("memory_estimate:static")
                selection.record_verification(True, "ok")

        self._hammer(record)
        assert len(selection.demotions) == 8 * 100
        # dedup'd append under the lock: one entry, not 800
        assert selection.runtime_checks_skipped == ["memory_estimate:static"]
        assert selection.verified is True
