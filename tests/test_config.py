"""Validated REPRO_* environment parsing (repro.config)."""

import pytest

from repro import config
from repro.errors import GraniiConfigError, GraniiError


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
    def test_block_nnz(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_NNZ", "4096")
        assert config.block_nnz(1024) == 4096
        monkeypatch.setenv("REPRO_BLOCK_NNZ", "-5")
        with pytest.raises(GraniiConfigError, match="REPRO_BLOCK_NNZ"):
            config.block_nnz(1024)

    def test_num_threads_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert config.num_threads() == 0

    # values the removed REPRO_SPMM_STRATEGY parse used to reject
    @pytest.mark.parametrize("value", ["warp_speed", "spmm_sharded", "spmm_fused"])
    def test_the_removed_strategy_knob_is_read_by_no_accessor(
        self, value, monkeypatch
    ):
        accessors = [
            config.num_threads, config.state_dir, config.verify_plans,
            config.skip_validation, config.guard_enabled,
            config.deadline_slack, config.deadline_floor_seconds,
            config.mem_budget_bytes, config.breaker_threshold,
            config.breaker_cooldown_seconds, config.serve_max_queue,
            config.serve_deadline_seconds, config.plan_cache_size,
            config.autotune_enabled, config.autotune_warmup,
            config.autotune_repeats, lambda: config.block_nnz(1024),
        ]
        monkeypatch.delenv("REPRO_SPMM_STRATEGY", raising=False)
        unset = [read() for read in accessors]
        monkeypatch.setenv("REPRO_SPMM_STRATEGY", value)
        assert [read() for read in accessors] == unset

    def test_the_knob_reference_lists_every_knob(self):
        documented = {
            line.split("``")[1]
            for line in config.__doc__.splitlines()
            if line.startswith("``REPRO_")
        }
        assert len(documented) == 17
        removed = {
            "REPRO_NUM_WORKERS", "REPRO_SHARD_NNZ", "REPRO_SHARDED_TIMEOUT",
            "REPRO_SHARD_CACHE_KB", "REPRO_SHARD_POLL_S",
            "REPRO_SHARD_HEARTBEAT_S", "REPRO_SHARD_RESPAWNS",
            "REPRO_SERVE_RETRIES", "REPRO_FAULTS", "REPRO_FAULTS_SEED",
            "REPRO_SPMM_STRATEGY",
        }
        assert not documented & removed
        assert {k for k in documented if k.startswith("REPRO_AUTOTUNE")} == {
            "REPRO_AUTOTUNE", "REPRO_AUTOTUNE_WARMUP", "REPRO_AUTOTUNE_REPEATS",
        }
        for name in (
            "num_workers", "shard_nnz", "serve_retries", "autotune_grid",
            "faults_spec", "faults_seed", "spmm_strategy",
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

    def test_guard_and_validation_flags(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "1")
        monkeypatch.setenv("REPRO_SKIP_VALIDATION", "1")
        assert config.guard_enabled() is True
        assert config.skip_validation() is True
        monkeypatch.delenv("REPRO_GUARD")
        monkeypatch.delenv("REPRO_SKIP_VALIDATION")
        assert config.guard_enabled() is False
        assert config.skip_validation() is False

    def test_breaker_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "5")
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN", "2.5")
        assert config.breaker_threshold() == 5
        assert config.breaker_cooldown_seconds() == pytest.approx(2.5)



class TestServingKnobs:
    def test_serving_defaults(self):
        assert config.serve_max_queue() == 64
        assert config.serve_deadline_seconds() is None
        assert config.plan_cache_size() == 128

    def test_serving_accessors(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_QUEUE", "8")
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "750")
        monkeypatch.setenv("REPRO_PLAN_CACHE_SIZE", "16")
        assert config.serve_max_queue() == 8
        assert config.serve_deadline_seconds() == pytest.approx(0.75)
        assert config.plan_cache_size() == 16

    def test_recovery_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_STATE_DIR", raising=False)
        assert config.state_dir() is None

    def test_recovery_accessors(self, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR", "/tmp/granii-state")
        assert config.state_dir() == "/tmp/granii-state"

    def test_serving_knobs_validate_and_name_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_QUEUE", "0")
        with pytest.raises(GraniiConfigError, match="REPRO_SERVE_MAX_QUEUE"):
            config.serve_max_queue()
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "minute")
        with pytest.raises(GraniiConfigError, match="REPRO_SERVE_DEADLINE_MS"):
            config.serve_deadline_seconds()
        monkeypatch.setenv("REPRO_PLAN_CACHE_SIZE", "0")
        with pytest.raises(GraniiConfigError, match="REPRO_PLAN_CACHE_SIZE"):
            config.plan_cache_size()
