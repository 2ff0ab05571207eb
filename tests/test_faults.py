"""Deterministic fault injection (repro.faults) and the dispatch seam."""

import numpy as np
import pytest

from repro.errors import GraniiConfigError
from repro.faults import (
    FAULT_ACTIONS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fault_injection,
    parse_fault_spec,
)
from repro.faults.chaos import FAULT_SCHEDULES
from repro.kernels.registry import dispatch_kernel, kernel_wrapper
from repro.kernels.workspace import WorkspaceArena
from repro.tensor import Tensor

from helpers import random_csr


class TestParseFaultSpec:
    def test_three_and_four_part_rules(self):
        specs = parse_fault_spec("spmm:raise:0.5, *:slow:1.0:0.25")
        assert specs == [
            FaultSpec("spmm", "raise", 0.5),
            FaultSpec("*", "slow", 1.0, 0.25),
        ]

    def test_blank_parses_to_nothing(self):
        assert parse_fault_spec("") == []
        assert parse_fault_spec(" , ,") == []

    def test_bad_shape_rejected(self):
        with pytest.raises(GraniiConfigError, match="spmm:raise"):
            parse_fault_spec("spmm:raise")

    def test_unknown_action_rejected(self):
        with pytest.raises(GraniiConfigError, match="explode"):
            parse_fault_spec("spmm:explode:1.0")

    @pytest.mark.parametrize(
        "action", ["kill_worker", "hang_worker", "shm_exhaustion"]
    )
    def test_process_pool_actions_are_rejected_not_ignored(self, action):
        assert action not in FAULT_ACTIONS
        with pytest.raises(GraniiConfigError, match=action):
            FaultPlan.from_string(f"spmm:{action}:1.0")

    def test_bad_probability_rejected(self):
        with pytest.raises(GraniiConfigError, match="often"):
            parse_fault_spec("spmm:raise:often")
        with pytest.raises(GraniiConfigError, match=r"\[0, 1\]"):
            parse_fault_spec("spmm:raise:1.5")

    def test_bad_param_rejected(self):
        with pytest.raises(GraniiConfigError, match="huge"):
            parse_fault_spec("spmm:corrupt:1.0:huge")

    def test_source_named_in_error(self):
        with pytest.raises(GraniiConfigError, match="REPRO_FAULTS"):
            parse_fault_spec("nope", source="REPRO_FAULTS")

    def test_chaos_schedules_all_parse(self):
        for name, faults, _env in FAULT_SCHEDULES:
            specs = parse_fault_spec(faults)
            for spec in specs:
                assert spec.action in FAULT_ACTIONS, name


class TestFaultPlan:
    def _fire_pattern(self, seed, n=50):
        plan = FaultPlan([FaultSpec("spmm", "raise", 0.5)], seed=seed)
        pattern = []
        for _ in range(n):
            try:
                plan.wrapper("spmm", lambda: 1, tag="t")
                pattern.append(0)
            except FaultInjected:
                pattern.append(1)
        return pattern

    def test_same_seed_same_schedule(self):
        assert self._fire_pattern(7) == self._fire_pattern(7)

    def test_different_seed_different_schedule(self):
        assert self._fire_pattern(1) != self._fire_pattern(2)

    def test_raise_action(self):
        plan = FaultPlan([FaultSpec("spmm", "raise", 1.0)], seed=0)
        with pytest.raises(FaultInjected, match="spmm"):
            plan.wrapper("spmm", lambda: 1, tag="out")
        assert plan.fired[("spmm", "raise")] == 1
        # FaultInjected deliberately is NOT structured — the guard's job
        # is to convert it
        from repro.errors import GraniiError

        assert not issubclass(FaultInjected, GraniiError)

    def test_overalloc_action(self):
        plan = FaultPlan([FaultSpec("spmm", "overalloc", 1.0)], seed=0)
        with pytest.raises(MemoryError):
            plan.wrapper("spmm", lambda: 1, tag="out")

    def test_corrupt_scales_dense(self):
        plan = FaultPlan([FaultSpec("spmm", "corrupt", 1.0, 10.0)], seed=0)
        out = plan.wrapper("spmm", lambda: np.ones(3), tag="out")
        np.testing.assert_allclose(out, 10.0 * np.ones(3))
        out = plan.wrapper("spmm", lambda: Tensor(np.ones(2)), tag="out")
        np.testing.assert_allclose(np.asarray(out.data), 10.0 * np.ones(2))

    def test_slow_still_returns_value(self):
        plan = FaultPlan([FaultSpec("spmm", "slow", 1.0, 0.001)], seed=0)
        assert plan.wrapper("spmm", lambda: 42, tag="out") == 42

    def test_wildcard_matches_everything(self):
        plan = FaultPlan([FaultSpec("*", "raise", 1.0)], seed=0)
        with pytest.raises(FaultInjected):
            plan.wrapper("gemm", lambda: 1, tag="out")

    def test_non_matching_primitive_passes_through(self):
        plan = FaultPlan([FaultSpec("spmm", "raise", 1.0)], seed=0)
        assert plan.wrapper("gemm", lambda: 5, tag="out") == 5

    def test_disabled_plan_is_inert(self):
        plan = FaultPlan([FaultSpec("*", "raise", 1.0)], seed=0)
        plan.enabled = False
        assert plan.wrapper("spmm", lambda: 5, tag="out") == 5
        assert plan.fired == {}

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "spmm:raise:0.25")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "9")
        plan = FaultPlan.from_env()
        assert plan.seed == 9
        assert plan.specs == [FaultSpec("spmm", "raise", 0.25)]
        monkeypatch.delenv("REPRO_FAULTS")
        assert FaultPlan.from_env() is None

    def test_from_env_invalid_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "spmm:raise")
        with pytest.raises(GraniiConfigError, match="REPRO_FAULTS"):
            FaultPlan.from_env()

    def test_describe_mentions_rules_and_seed(self):
        plan = FaultPlan.from_string("spmm:raise:0.5", seed=3)
        text = plan.describe()
        assert "seed=3" in text and "spmm:raise:0.5" in text


class TestDispatchSeam:
    def test_dispatch_without_wrappers_is_passthrough(self):
        assert dispatch_kernel("spmm", lambda: 17) == 17

    def test_fault_injection_scopes_the_wrapper(self):
        plan = FaultPlan([FaultSpec("spmm", "raise", 1.0)], seed=0)
        with fault_injection(plan):
            with pytest.raises(FaultInjected):
                dispatch_kernel("spmm", lambda: 1, tag="x")
        # context exited: the seam is clean again
        assert dispatch_kernel("spmm", lambda: 1, tag="x") == 1

    def test_wrappers_nest(self):
        seen = []

        def observer(primitive, next_call, tag):
            seen.append(primitive)
            return next_call()

        plan = FaultPlan([FaultSpec("gemm", "raise", 0.0)], seed=0)
        with kernel_wrapper(observer), fault_injection(plan):
            assert dispatch_kernel("gemm", lambda: 3, tag="x") == 3
        assert seen == ["gemm"]


class TestWorkspaceLeakRegression:
    """A kernel crash mid-tile must not leave poisoned arena buffers."""

    def test_blocked_drops_buffers_on_midblock_crash(self, rng, monkeypatch):
        from repro.kernels import blocked
        from repro.kernels.semiring import get_semiring

        adj = random_csr(rng, 64, 64, density=0.1)
        x = rng.standard_normal((64, 8))
        # max still streams messages through an arena tile; the sum
        # family's compiled fold has no scratch to poison
        semiring = get_semiring("max", "mul")
        arena = WorkspaceArena()
        expected = blocked.gspmm_blocked(
            adj, x, semiring, block_nnz=64, workspace=arena
        )
        assert arena.num_buffers > 0

        calls = {"n": 0}
        real = blocked.segment_reduce

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:  # crash on the second tile, mid-execution
                raise RuntimeError("injected mid-block crash")
            return real(*args, **kwargs)

        monkeypatch.setattr(blocked, "segment_reduce", flaky)
        with pytest.raises(RuntimeError, match="mid-block"):
            blocked.gspmm_blocked(
                adj, x, semiring, block_nnz=64, workspace=arena
            )
        assert arena.num_buffers == 0, "crash must drop pooled buffers"
        monkeypatch.setattr(blocked, "segment_reduce", real)

        again = blocked.gspmm_blocked(
            adj, x, semiring, block_nnz=64, workspace=arena
        )
        np.testing.assert_allclose(again, expected)

    def test_plan_level_recovery_after_workspace_crash(self, rng):
        """End-to-end: a blocked-strategy crash inside a guarded plan is
        absorbed, and the retried execution starts from a clean arena."""
        import repro
        from repro.core import GraniiEngine
        from repro.graphs.generators import erdos_renyi
        from repro.models import build_layer

        graph = erdos_renyi(100, 6.0, seed=5)
        feats = rng.standard_normal((100, 8))
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        baseline = np.asarray(
            layer.forward(layer.as_mp_graph(graph), repro.tensor.Tensor(feats)).data
        )
        engine = GraniiEngine(
            device="h100", scale="small", guarded=True,
            spmm_strategy="blocked",
        )
        engine.optimize(layer, graph, feats)
        plan = FaultPlan([FaultSpec("spmm", "raise", 1.0),
                          FaultSpec("spmm_unweighted", "raise", 1.0)], seed=0)
        with fault_injection(plan):
            out = np.asarray(layer(graph, feats).data)
        np.testing.assert_allclose(out, baseline, rtol=1e-6, atol=1e-9)
