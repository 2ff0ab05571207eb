"""Tests for the process-parallel sharded SpMM execution strategy."""

import os

import numpy as np
import pytest

from repro import config
from repro.analysis.planlint import shard_coverage_diagnostics
from repro.graphs import erdos_renyi, plan_row_shards, rmat, shard_boundary_stats, star
from repro.graphs.generators import isolated_union
from repro.kernels import (
    ShardedWorkerError,
    default_num_shards,
    default_num_workers,
    estimate_segment_bytes,
    get_semiring,
    gspmm,
    gspmm_sharded,
    live_segment_bytes,
    select_shard_plan,
    sharded_pool,
    shutdown_pool,
)
from repro.kernels.sharded import (
    drain_pool,
    kill_one_worker,
    pool_health,
    request_worker_hang,
    request_worker_kill,
)
from repro.sparse import CSRMatrix


def _weighted(adj, seed=0):
    return adj.with_values(np.random.default_rng(seed).random(adj.nnz) + 0.1)


@pytest.fixture(autouse=True)
def _clean_pool():
    yield
    shutdown_pool()


class TestShardPlanning:
    def test_plan_row_shards_covers_and_balances_edges(self):
        g = rmat(2_000, 8, seed=3)
        bounds = plan_row_shards(g.adj.indptr, 8)
        assert bounds[0] == 0 and bounds[-1] == g.num_nodes
        assert np.all(np.diff(bounds) >= 0)
        shard_nnz = np.diff(np.asarray(g.adj.indptr)[bounds])
        # edge-balanced, not row-balanced: no shard above ~2x the mean
        # (one hub row can exceed the target; it still gets its own shard)
        assert shard_nnz.max() <= 2 * g.num_edges / 8 + g.adj.row_degrees().max()

    def test_plan_row_shards_empty_graph_splits_rows(self):
        empty = CSRMatrix(
            np.zeros(11, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            None,
            (10, 10),
        )
        bounds = plan_row_shards(empty.indptr, 4)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert len(bounds) == 5

    def test_boundary_stats_halo(self):
        g = erdos_renyi(200, 6, seed=2)
        bounds = plan_row_shards(g.adj.indptr, 4)
        stats = shard_boundary_stats(g.adj.indptr, g.adj.indices, bounds)
        assert stats["nnz"].sum() == g.num_edges
        assert stats["rows"].sum() == g.num_nodes
        assert np.all(stats["halo_nnz"] <= stats["nnz"])
        assert np.all((stats["halo_fraction"] >= 0.0) & (stats["halo_fraction"] <= 1.0))

    def test_select_shard_plan(self):
        strategy, block = select_shard_plan(100, 50, 32)
        assert strategy == "row_segment" and block is None
        strategy, block = select_shard_plan(500_000, 10_000, 64)
        assert strategy == "blocked"
        assert 512 <= block <= 32_768

    def test_default_shard_and_worker_counts(self):
        workers = default_num_workers()
        assert workers >= 1
        assert default_num_shards(0, 2) == 2
        assert default_num_shards(10**9, 2) == 8  # clamped to 4x workers

    def test_coverage_diagnostics(self):
        assert shard_coverage_diagnostics(np.array([0, 5, 10]), 10) == []
        assert shard_coverage_diagnostics(np.array([0, 10]), 10) == []
        bad_start = shard_coverage_diagnostics(np.array([1, 10]), 10)
        assert any("start" in d.message or "0" in d.message for d in bad_start)
        assert shard_coverage_diagnostics(np.array([0, 5]), 10)
        assert shard_coverage_diagnostics(np.array([0, 7, 3, 10]), 10)

    def test_segment_estimate_positive_and_monotone(self):
        small = estimate_segment_bytes(100, 100, 500, 8)
        large = estimate_segment_bytes(1_000, 1_000, 5_000, 8)
        assert 0 < small < large


class TestShardedCorrectness:
    def test_matches_row_segment_all_semirings(self):
        g = erdos_renyi(300, 8, seed=7)
        adj = _weighted(g.adj)
        x = np.random.default_rng(1).standard_normal((300, 12))
        for reduce_name in ("sum", "max", "min", "mean"):
            for binary_name in ("mul", "add", "copy_lhs", "copy_rhs"):
                semiring = get_semiring(reduce_name, binary_name)
                ref = gspmm(adj, x, semiring, strategy="row_segment")
                out = gspmm_sharded(adj, x, semiring, num_workers=2, num_shards=5)
                assert np.array_equal(out, ref), (reduce_name, binary_name)

    def test_unweighted_pattern(self):
        g = erdos_renyi(150, 5, seed=4)
        x = np.random.default_rng(2).standard_normal((150, 7))
        ref = gspmm(g.adj, x, strategy="row_segment")
        out = gspmm_sharded(g.adj, x, num_workers=2)
        assert np.array_equal(out, ref)

    def test_bitwise_deterministic_across_shard_counts(self):
        g = rmat(1_000, 10, seed=5)
        adj = _weighted(g.adj)
        x = np.random.default_rng(3).standard_normal((adj.shape[1], 16))
        ref = gspmm_sharded(adj, x, num_workers=2, num_shards=2)
        for shards in (3, 7, 64):
            # 64 shards on 1k rows forces zero-row shards on dense prefixes
            out = gspmm_sharded(adj, x, num_workers=2, num_shards=shards)
            assert np.array_equal(out, ref)

    def test_explicit_block_nnz_override(self):
        g = rmat(500, 8, seed=6)
        adj = _weighted(g.adj)
        x = np.random.default_rng(4).standard_normal((adj.shape[1], 8))
        ref = gspmm(adj, x, strategy="row_segment")
        out = gspmm_sharded(adj, x, num_workers=2, block_nnz=256)
        assert np.array_equal(out, ref)

    def test_hub_graph(self):
        g = star(400)
        adj = _weighted(g.adj)
        x = np.random.default_rng(5).standard_normal((400, 6))
        ref = gspmm(adj, x, strategy="row_segment")
        assert np.array_equal(gspmm_sharded(adj, x, num_workers=2), ref)


class TestShardedEdgeCases:
    def test_empty_graph(self):
        empty = CSRMatrix(
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            None,
            (0, 0),
        )
        out = gspmm_sharded(empty, np.empty((0, 4)), num_workers=2)
        assert out.shape == (0, 4)

    def test_single_node(self):
        one = CSRMatrix(
            np.array([0, 1], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([2.0]),
            (1, 1),
        )
        out = gspmm_sharded(one, np.array([[3.0, 4.0]]), num_workers=2)
        assert np.array_equal(out, [[6.0, 8.0]])

    def test_isolated_vertices(self):
        g = isolated_union(40, 24, seed=1)
        adj = _weighted(g.adj)
        x = np.random.default_rng(6).standard_normal((g.num_nodes, 5))
        ref = gspmm(adj, x, strategy="row_segment")
        out = gspmm_sharded(adj, x, num_workers=2, num_shards=6)
        assert np.array_equal(out, ref)

    def test_zero_width_features(self):
        g = erdos_renyi(60, 4, seed=8)
        out = gspmm_sharded(
            _weighted(g.adj), np.empty((60, 0)), num_workers=2
        )
        assert out.shape == (60, 0)

    def test_shape_mismatch_raises(self):
        g = erdos_renyi(50, 4, seed=9)
        with pytest.raises(ValueError):
            gspmm_sharded(_weighted(g.adj), np.ones((49, 3)), num_workers=2)


class TestPoolLifecycle:
    def test_pool_context_releases_segments(self):
        g = erdos_renyi(200, 6, seed=10)
        adj = _weighted(g.adj)
        x = np.random.default_rng(7).standard_normal((200, 8))
        with sharded_pool(2):
            gspmm_sharded(adj, x, num_workers=2)
            assert live_segment_bytes() > 0
        assert live_segment_bytes() == 0
        leaked = [f for f in os.listdir("/dev/shm") if f.startswith("psm_")]
        assert leaked == []

    def test_worker_kill_heals_via_resubmission(self):
        g = erdos_renyi(300, 8, seed=11)
        adj = _weighted(g.adj)
        x = np.random.default_rng(8).standard_normal((300, 8))
        out = gspmm_sharded(adj, x, num_workers=2)  # warm the pool
        request_worker_kill()
        # the kill fires mid-call; its shards are resubmitted to the
        # survivors and the call completes bitwise-identically
        healed = gspmm_sharded(adj, x, num_workers=2)
        assert np.array_equal(healed, out)
        health = pool_health()
        assert health["running"] and health["restarts"] >= 1
        assert not health["broken"]

    def test_hung_worker_heals_via_heartbeat(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_HEARTBEAT_S", "0.5")
        g = erdos_renyi(300, 8, seed=13)
        adj = _weighted(g.adj)
        x = np.random.default_rng(9).standard_normal((300, 4))
        out = gspmm_sharded(adj, x, num_workers=2)
        request_worker_hang()
        # the SIGSTOPped worker is alive but silent: only heartbeat-based
        # hung detection can recover this call
        healed = gspmm_sharded(adj, x, num_workers=2)
        assert np.array_equal(healed, out)
        assert pool_health()["restarts"] >= 1

    def test_respawn_budget_zero_restores_fail_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_RESPAWNS", "0")
        g = erdos_renyi(200, 6, seed=14)
        adj = _weighted(g.adj)
        x = np.ones((200, 2))
        gspmm_sharded(adj, x, num_workers=2)
        request_worker_kill()
        with pytest.raises(ShardedWorkerError, match="respawn"):
            gspmm_sharded(adj, x, num_workers=2)
        # the pool rebuilds transparently on the next call
        ref = gspmm(adj, x, strategy="row_segment")
        assert np.array_equal(gspmm_sharded(adj, x, num_workers=2), ref)

    def test_kill_one_worker_direct(self):
        g = erdos_renyi(100, 4, seed=12)
        adj = _weighted(g.adj)
        x = np.ones((100, 3))
        gspmm_sharded(adj, x, num_workers=2)
        assert kill_one_worker()
        # the corpse is respawned in place on the next call — no teardown,
        # no error, correct output
        ref = gspmm(adj, x, strategy="row_segment")
        out = gspmm_sharded(adj, x, num_workers=2)
        assert np.array_equal(out, ref)

    def test_pool_health_reports_not_running_without_pool(self):
        shutdown_pool()
        assert pool_health() == {"running": False}

    def test_drain_pool_idempotent(self):
        g = erdos_renyi(100, 4, seed=15)
        adj = _weighted(g.adj)
        gspmm_sharded(adj, np.ones((100, 2)), num_workers=2)
        drain_pool()
        assert pool_health() == {"running": False}
        drain_pool()  # draining an already-stopped pool is a no-op


class TestEngineIntegration:
    def test_guard_heals_worker_death_without_demotion(self):
        from repro.core.costmodel import get_cost_models
        from repro.core.runtime import GraniiEngine
        from repro.faults import FaultPlan, fault_injection
        from repro.models import build_layer

        g = erdos_renyi(300, 8, seed=7)
        feats = np.random.default_rng(0).standard_normal((300, 16))
        layer = build_layer("gcn", 16, 8, rng=np.random.default_rng(0))
        engine = GraniiEngine(
            device="cpu",
            system="dgl",
            cost_models=get_cost_models("cpu"),
            spmm_strategy="spmm_sharded",
            num_workers=2,
            guarded=True,
        )
        report = engine.optimize(layer, g, feats)
        selection = report.selections[0]
        baseline = layer(g, feats)
        plan = FaultPlan.from_string("spmm:kill_worker:1.0", seed=0)
        with fault_injection(plan):
            out = layer(g, feats)
        # the self-healing pool absorbs the worker death via resubmission:
        # the sharded strategy keeps serving, no fallback-ladder demotion
        assert not any(
            "spmm_sharded" in d.from_label and "@blocked" in d.to_label
            for d in selection.demotions
        )
        assert pool_health().get("restarts", 0) >= 1
        assert np.allclose(
            np.asarray(getattr(out, "data", out)),
            np.asarray(getattr(baseline, "data", baseline)),
        )

    def test_pinned_sharded_matches_reference_model(self):
        from repro.core.costmodel import get_cost_models
        from repro.core.runtime import GraniiEngine
        from repro.models import build_layer

        g = erdos_renyi(250, 6, seed=13)
        feats = np.random.default_rng(1).standard_normal((250, 12))
        ref_layer = build_layer("gcn", 12, 8, rng=np.random.default_rng(3))
        baseline = ref_layer(g, feats)
        layer = build_layer("gcn", 12, 8, rng=np.random.default_rng(3))
        engine = GraniiEngine(
            device="cpu",
            system="dgl",
            cost_models=get_cost_models("cpu"),
            spmm_strategy="spmm_sharded",
            num_workers=2,
        )
        engine.optimize(layer, g, feats)
        out = layer(g, feats)
        assert np.allclose(
            np.asarray(getattr(out, "data", out)),
            np.asarray(getattr(baseline, "data", baseline)),
        )


class TestConfigKnobs:
    def test_knob_accessors(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        monkeypatch.setenv("REPRO_SHARD_NNZ", "1000")
        monkeypatch.setenv("REPRO_SHARDED_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_SHARD_CACHE_KB", "256")
        assert config.num_workers() == 3
        assert config.shard_nnz() == 1000
        assert config.sharded_timeout_seconds() == 2.5
        assert config.shard_cache_kb() == 256

    def test_worker_default_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
        assert default_num_workers() == 2


class TestLeakSweep:
    def test_sweep_reclaims_dead_owner_segments(self):
        from multiprocessing import shared_memory

        from repro.kernels.sharded import SEGMENT_PREFIX, sweep_leaked_segments

        # fabricate a segment "leaked" by a crashed process: the name
        # carries a pid that cannot be alive (> pid_max)
        name = f"{SEGMENT_PREFIX}-99999999-deadbeefcafe"
        shm = shared_memory.SharedMemory(create=True, size=64, name=name)
        shm.close()
        try:
            reclaimed = sweep_leaked_segments()
            assert name in reclaimed
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            try:
                shared_memory.SharedMemory(name=name).unlink()
            except FileNotFoundError:
                pass

    def test_sweep_spares_live_owner_segments(self):
        from multiprocessing import shared_memory

        from repro.kernels.sharded import SEGMENT_PREFIX, sweep_leaked_segments

        name = f"{SEGMENT_PREFIX}-{os.getpid()}-feedfacebead"
        shm = shared_memory.SharedMemory(create=True, size=64, name=name)
        try:
            reclaimed = sweep_leaked_segments()
            assert name not in reclaimed
            # still attachable: the sweep left it alone
            probe = shared_memory.SharedMemory(name=name)
            probe.close()
        finally:
            shm.close()
            shm.unlink()

    def test_sweep_racing_live_pool_spares_pooled_buffers(self):
        from repro.kernels.sharded import sweep_leaked_segments

        g = erdos_renyi(200, 6, seed=21)
        adj = _weighted(g.adj)
        x = np.ones((200, 4))
        ref = gspmm(adj, x, strategy="row_segment")
        with sharded_pool(2):
            out = gspmm_sharded(adj, x, num_workers=2)
            assert np.array_equal(out, ref)
            live_before = live_segment_bytes()
            assert live_before > 0  # graph cache + pooled buffers are live
            # a concurrent process's startup sweep must not touch them:
            # every live segment here is owned by this (alive) pid
            assert sweep_leaked_segments() == []
            assert live_segment_bytes() == live_before
            # the pooled segments are still usable after the sweep
            assert np.array_equal(gspmm_sharded(adj, x, num_workers=2), ref)
        assert live_segment_bytes() == 0

    def test_sweep_reclaims_everything_after_sigkill(self):
        import signal
        import subprocess
        import sys

        from repro.kernels.sharded import SEGMENT_PREFIX, sweep_leaked_segments

        # a child warms a pool (graph segments + pooled buffers live),
        # reports, then SIGKILLs itself: atexit cleanup never runs
        code = (
            "import os, numpy as np, signal\n"
            "from repro.graphs import erdos_renyi\n"
            "from repro.kernels.sharded import gspmm_sharded\n"
            "g = erdos_renyi(200, 6, seed=21)\n"
            "adj = g.adj.with_values(np.ones(g.adj.nnz))\n"
            "gspmm_sharded(adj, np.ones((200, 4)), num_workers=2)\n"
            "print('ready', flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "ready" in proc.stdout
        sweep_leaked_segments()
        leaked = [
            n
            for n in os.listdir("/dev/shm")
            if n.startswith(SEGMENT_PREFIX) and f"-{os.getpid()}-" not in n
        ]
        assert leaked == []
        assert live_segment_bytes() == 0

    def test_clean_exit_is_silent_and_leaves_no_segment(self):
        """A worker shares the parent's resource_tracker; unregistering a
        segment there dropped the *parent's* registration, and the
        parent's unlink then made the tracker print ``KeyError``
        tracebacks at exit."""
        import subprocess
        import sys

        from repro.kernels.sharded import SEGMENT_PREFIX

        code = (
            "import os, numpy as np\n"
            "from repro.graphs import erdos_renyi\n"
            "from repro.kernels import gspmm\n"
            "from repro.kernels.sharded import shutdown_pool\n"
            "adj = erdos_renyi(200, 6, seed=21).adj\n"
            "x = np.ones((200, 4))\n"
            "out = gspmm(adj, x, strategy='spmm_sharded', num_workers=2)\n"
            "assert np.array_equal(out, gspmm(adj, x, strategy='row_segment'))\n"
            "shutdown_pool()\n"
            "print(os.getpid(), flush=True)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        child = proc.stdout.split()[-1]
        assert [
            n for n in os.listdir("/dev/shm")
            if n.startswith(f"{SEGMENT_PREFIX}-{child}-")
        ] == []

    def test_sweep_ignores_foreign_names(self, tmp_path):
        from repro.kernels.sharded import sweep_leaked_segments

        (tmp_path / "psm_something").write_bytes(b"x")
        (tmp_path / "unrelated").write_bytes(b"x")
        assert sweep_leaked_segments(shm_dir=str(tmp_path)) == []

    def test_sweep_handles_missing_dir(self):
        from repro.kernels.sharded import sweep_leaked_segments

        assert sweep_leaked_segments(shm_dir="/nonexistent-shm-dir") == []


class TestIdempotentCleanup:
    """Double-release under the worker-respawn/atexit race: every
    cleanup path is log-and-continue, never a raise (PR-10 regression)."""

    def test_discard_buffer_double_release_never_raises(self):
        from multiprocessing import shared_memory

        from repro.kernels.sharded import _discard_buffer

        shm = shared_memory.SharedMemory(create=True, size=64)
        _discard_buffer(shm)
        # second discard sees a name that is already gone
        _discard_buffer(shm)

    def test_release_entry_double_release_never_raises(self):
        from multiprocessing import shared_memory

        from repro.kernels.sharded import _release_entry

        entry = {
            "a": shared_memory.SharedMemory(create=True, size=64),
            "b": shared_memory.SharedMemory(create=True, size=64),
        }
        _release_entry(dict(entry))
        # atexit sweep racing a respawn teardown replays the release
        _release_entry(entry)

    def test_worker_pool_shutdown_idempotent(self):
        g = erdos_renyi(80, 4, seed=31)
        adj = _weighted(g.adj)
        gspmm_sharded(adj, np.ones((80, 2)), num_workers=2)
        from repro.kernels import sharded as mod

        pool = mod._POOL
        assert pool is not None
        shutdown_pool()
        # direct second shutdown on the same pool object is a no-op
        pool.shutdown()
        shutdown_pool()
        assert pool_health() == {"running": False}

    def test_pool_usable_after_double_teardown(self):
        g = erdos_renyi(80, 4, seed=32)
        adj = _weighted(g.adj)
        x = np.ones((80, 2))
        ref = gspmm(adj, x, strategy="row_segment")
        gspmm_sharded(adj, x, num_workers=2)
        drain_pool()
        drain_pool()
        assert np.array_equal(gspmm_sharded(adj, x, num_workers=2), ref)
