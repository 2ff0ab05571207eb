"""Validated REPRO_* environment parsing (repro.config)."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro import config
from repro.core import GraniiEngine
from repro.core.guard import CircuitBreaker
from repro.errors import GraniiConfigError, GraniiError
from repro.graphs.generators import erdos_renyi
from repro.kernels import blocked
from repro.kernels.workspace import WorkspaceArena
from repro.serving import GraniiService

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


class TestScalarParsers:
    def test_env_int_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert config.env_int("REPRO_TEST_INT", 7) == 7

    def test_env_int_blank_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "   ")
        assert config.env_int("REPRO_TEST_INT", 7) == 7

    def test_env_int_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", " 42 ")
        assert config.env_int("REPRO_TEST_INT", 7) == 42

    def test_env_int_garbage_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "forty-two")
        with pytest.raises(GraniiConfigError, match="REPRO_TEST_INT"):
            config.env_int("REPRO_TEST_INT", 7)

    def test_env_int_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "0")
        with pytest.raises(GraniiConfigError, match="REPRO_TEST_INT"):
            config.env_int("REPRO_TEST_INT", 7, minimum=1)

    def test_env_float_garbage_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_F", "fast")
        with pytest.raises(GraniiConfigError, match="REPRO_TEST_F"):
            config.env_float("REPRO_TEST_F", 1.0)

    def test_env_flag_truthy_falsy(self, monkeypatch):
        for raw, expect in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("false", False), ("No", False), ("off", False),
        ):
            monkeypatch.setenv("REPRO_TEST_FLAG", raw)
            assert config.env_flag("REPRO_TEST_FLAG", not expect) is expect

    def test_env_flag_garbage_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
        with pytest.raises(GraniiConfigError, match="REPRO_TEST_FLAG"):
            config.env_flag("REPRO_TEST_FLAG", False)

    def test_config_error_is_value_error(self):
        # back-compat: pre-existing `except ValueError` call sites still work
        assert issubclass(GraniiConfigError, ValueError)
        assert issubclass(GraniiConfigError, GraniiError)


class TestSpecificAccessors:
    def test_num_threads_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert config.num_threads() == 0

    # values the removed REPRO_SPMM_STRATEGY parse used to reject
    @pytest.mark.parametrize("value", ["warp_speed", "spmm_sharded", "spmm_fused"])
    def test_the_removed_strategy_knob_is_read_by_no_accessor(
        self, value, monkeypatch
    ):
        accessors = [
            config.num_threads, config.state_dir, config.skip_validation,
            config.deadline_slack, config.deadline_floor_seconds,
            config.mem_budget_bytes,
        ]
        monkeypatch.delenv("REPRO_SPMM_STRATEGY", raising=False)
        unset = [read() for read in accessors]
        monkeypatch.setenv("REPRO_SPMM_STRATEGY", value)
        assert [read() for read in accessors] == unset

    def test_the_knob_reference_lists_every_knob(self):
        names = [name for name, _ in config.KNOBS]
        documented = [
            line.split("``")[1]
            for line in config.__doc__.splitlines()
            if line.startswith("``REPRO_")
        ]
        assert documented == names
        assert len(set(names)) == 6
        removed = {
            "REPRO_NUM_WORKERS", "REPRO_SHARD_NNZ", "REPRO_SHARDED_TIMEOUT",
            "REPRO_SHARD_CACHE_KB", "REPRO_SHARD_POLL_S",
            "REPRO_SHARD_HEARTBEAT_S", "REPRO_SHARD_RESPAWNS",
            "REPRO_SERVE_RETRIES", "REPRO_FAULTS", "REPRO_FAULTS_SEED",
            "REPRO_SPMM_STRATEGY",
        } | set(REMOVED_KNOBS)
        assert not set(names) & removed
        for name in (
            "num_workers", "shard_nnz", "serve_retries", "autotune_grid",
            "faults_spec", "faults_seed", "spmm_strategy", "block_nnz",
            "verify_plans", "guard_enabled", "breaker_threshold",
            "breaker_cooldown_seconds", "serve_max_queue",
            "serve_deadline_seconds", "plan_cache_size", "autotune_warmup",
            "autotune_repeats", "autotune_enabled",
        ):
            assert not hasattr(config, name)

    def test_mem_budget_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "0")
        assert config.mem_budget_bytes() is None
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "2")
        assert config.mem_budget_bytes() == 2 * 2**20

    def test_deadline_floor_converts_ms(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_FLOOR_MS", "250")
        assert config.deadline_floor_seconds() == pytest.approx(0.25)

    def test_deadline_slack_rejects_negative(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_SLACK", "-1")
        with pytest.raises(GraniiConfigError, match="REPRO_DEADLINE_SLACK"):
            config.deadline_slack()

    def test_validation_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SKIP_VALIDATION", "1")
        assert config.skip_validation() is True
        monkeypatch.delenv("REPRO_SKIP_VALIDATION")
        assert config.skip_validation() is False

    def test_recovery_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_STATE_DIR", raising=False)
        assert config.state_dir() is None

    def test_recovery_accessors(self, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR", "/tmp/granii-state")
        assert config.state_dir() == "/tmp/granii-state"


# Each removed knob, with a value its accessor used to honour.  Its
# setting now has one route, an argument, and the environment is ignored.
REMOVED_KNOBS = {
    "REPRO_VERIFY_PLANS": "1",
    "REPRO_GUARD": "1",
    "REPRO_BREAKER_THRESHOLD": "7",
    "REPRO_BREAKER_COOLDOWN": "2.5",
    "REPRO_SERVE_MAX_QUEUE": "1",
    "REPRO_SERVE_DEADLINE_MS": "750",
    "REPRO_PLAN_CACHE_SIZE": "16",
    "REPRO_AUTOTUNE": "1",
    "REPRO_AUTOTUNE_WARMUP": "0",
    "REPRO_AUTOTUNE_REPEATS": "9",
    "REPRO_BLOCK_NNZ": "256",
}

# The arguments' defaults, as observed by ``observed_defaults``.
ARGUMENT_DEFAULTS = {
    "engine": {"verify_plans": False, "guarded": False},
    "breaker": (3, 30.0),
    "service": {
        "max_queue": 64, "deadline_seconds": None, "plan_cache_size": 128,
        "tenant_breaker": (3, 30.0),
    },
    "row_block_spans": [(0, 300)],
    "sddmm_tile_bytes": 2 * blocked._SDDMM_TILE_BYTES,
}


def observed_defaults():
    """What the engine, breaker, service and kernels run with when no
    argument is passed."""
    engine = GraniiEngine()
    breaker = CircuitBreaker()
    with GraniiService(num_threads=1, state_dir="") as svc:
        service = {
            "max_queue": svc._max_queue,
            "deadline_seconds": svc._deadline_seconds,
            "plan_cache_size": svc._cache.capacity,
            "tenant_breaker": (
                svc._tenant_breaker.threshold,
                svc._tenant_breaker.cooldown_seconds,
            ),
        }
    adj = erdos_renyi(300, 8.0, seed=0).adj
    # 300 rows, ~2 400 edges: one span at the default budget
    spans = blocked.row_block_spans(adj.indptr)
    arena = WorkspaceArena()
    wide = np.ones((300, 64))
    blocked.gsddmm_blocked(adj, wide, wide, workspace=arena)
    return {
        "engine": {"verify_plans": engine.verify_plans, "guarded": engine.guarded},
        "breaker": (breaker.threshold, breaker.cooldown_seconds),
        "service": service,
        "row_block_spans": spans,
        "sddmm_tile_bytes": arena.nbytes,
    }


class TestRemovedKnobs:
    def test_the_defaults_with_no_knob_set(self, monkeypatch):
        for name in REMOVED_KNOBS:
            monkeypatch.delenv(name, raising=False)
        assert observed_defaults() == ARGUMENT_DEFAULTS

    @pytest.mark.parametrize("name", sorted(REMOVED_KNOBS))
    def test_a_removed_knob_changes_nothing_and_warns(self, name, monkeypatch):
        monkeypatch.setenv(name, REMOVED_KNOBS[name])
        with pytest.warns(RuntimeWarning, match=name):
            config.warn_unknown_knobs()
        assert observed_defaults() == ARGUMENT_DEFAULTS

    @pytest.mark.parametrize("argument", ["max_queue", "plan_cache_size"])
    def test_the_service_rejects_what_the_knobs_rejected(self, argument):
        with pytest.raises(ValueError, match=r">= 1"):
            GraniiService(num_threads=1, state_dir="", **{argument: 0})

    def test_the_import_warns_for_each_removed_knob_only(self):
        # lint: allow(env-outside-config) the child process's environment
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(REMOVED_KNOBS, PYTHONPATH=SRC, REPRO_NUM_THREADS="2")
        child = subprocess.run(
            [sys.executable, "-c", "import repro.config"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        warned = re.findall(r"RuntimeWarning: (REPRO_\w+) is set", child.stderr)
        assert sorted(warned) == sorted(REMOVED_KNOBS)
