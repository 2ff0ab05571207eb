"""Parsing of the ``REPRO_*`` environment knobs, in one place.

Every runtime tunable that can arrive through the environment is parsed
here, with uniform semantics:

- an **unset or empty** variable yields the documented default;
- an **invalid** value raises :class:`~repro.errors.GraniiConfigError`
  naming the variable, the offending text, and the accepted values —
  instead of crashing deep inside kernel setup (or, worse, silently
  falling back to a default the operator did not ask for).

The accessors read the environment on every call (they are dictionary
lookups, not I/O), so tests and the chaos driver can flip knobs with
``monkeypatch.setenv`` without cache invalidation ceremonies.

Knob reference
--------------
``REPRO_BLOCK_NNZ``           edge budget per tile of the blocked kernels
``REPRO_NUM_THREADS``         worker count of the parallel strategy
``REPRO_STATE_DIR``           durable-state snapshot directory (unset = off)
``REPRO_SPMM_STRATEGY``       process-wide default aggregation strategy
``REPRO_VERIFY_PLANS``        first-iteration differential verification
``REPRO_SKIP_VALIDATION``     skip O(E) structural checks in CSR builders
``REPRO_GUARD``               enable the guarded execution runtime
``REPRO_DEADLINE_SLACK``      deadline = predicted cost x slack (>= floor)
``REPRO_DEADLINE_FLOOR_MS``   minimum per-plan wall-clock deadline
``REPRO_MEM_BUDGET_MB``       per-plan memory budget (estimate + observed)
``REPRO_BREAKER_THRESHOLD``   failures before a (primitive, strategy) trips
``REPRO_BREAKER_COOLDOWN``    seconds a tripped breaker stays open
``REPRO_FAULTS``              fault-injection schedule (see repro.faults)
``REPRO_FAULTS_SEED``         seed for probabilistic fault draws
``REPRO_SERVE_MAX_QUEUE``     per-tenant bound on queued+running requests
``REPRO_SERVE_DEADLINE_MS``   default end-to-end request deadline (0 = none)
``REPRO_PLAN_CACHE_SIZE``     fingerprint-keyed plan cache capacity
``REPRO_AUTOTUNE``            measure strategy/block_nnz points at selection
``REPRO_AUTOTUNE_GRID``       comma-separated candidate block_nnz values
``REPRO_AUTOTUNE_WARMUP``     discarded warm-up runs per measured point
``REPRO_AUTOTUNE_REPEATS``    timed repeats per measured point (best kept)
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from .errors import GraniiConfigError

__all__ = [
    "env_flag",
    "env_float",
    "env_int",
    "env_choice",
    "block_nnz",
    "num_threads",
    "state_dir",
    "spmm_strategy",
    "verify_plans",
    "skip_validation",
    "guard_enabled",
    "deadline_slack",
    "deadline_floor_seconds",
    "mem_budget_bytes",
    "breaker_threshold",
    "breaker_cooldown_seconds",
    "faults_spec",
    "faults_seed",
    "serve_max_queue",
    "serve_deadline_seconds",
    "plan_cache_size",
    "autotune_enabled",
    "autotune_grid",
    "autotune_warmup",
    "autotune_repeats",
    "override_env",
]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _raw(name: str) -> Optional[str]:
    value = os.environ.get(name)
    if value is None:
        return None
    value = value.strip()
    return value or None


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    """Integer knob; raises :class:`GraniiConfigError` on bad values."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise GraniiConfigError(
            f"{name}={raw!r} is not an integer"
        ) from None
    if minimum is not None and value < minimum:
        raise GraniiConfigError(
            f"{name}={value} is below the minimum of {minimum}"
        )
    return value


def env_float(
    name: str,
    default: float,
    minimum: Optional[float] = None,
) -> float:
    """Floating-point knob; raises :class:`GraniiConfigError` on bad values."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise GraniiConfigError(
            f"{name}={raw!r} is not a number"
        ) from None
    if minimum is not None and value < minimum:
        raise GraniiConfigError(
            f"{name}={value} is below the minimum of {minimum}"
        )
    return value


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean knob accepting 1/true/yes/on and 0/false/no/off."""
    raw = _raw(name)
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise GraniiConfigError(
        f"{name}={raw!r} is not a boolean; use one of "
        f"{sorted(_TRUE)} or {sorted(_FALSE)}"
    )


def env_choice(
    name: str, choices: Sequence[str], default: Optional[str]
) -> Optional[str]:
    """Enumerated knob; raises naming the accepted values."""
    raw = _raw(name)
    if raw is None:
        return default
    if raw not in choices:
        raise GraniiConfigError(
            f"{name}={raw!r} is not a valid choice; expected one of "
            f"{', '.join(choices)}"
        )
    return raw


# ----------------------------------------------------------------------
# Specific knobs
# ----------------------------------------------------------------------
def block_nnz(default: int) -> int:
    """``REPRO_BLOCK_NNZ``: edge budget per tile (positive integer)."""
    return env_int("REPRO_BLOCK_NNZ", default, minimum=1)


def num_threads() -> int:
    """``REPRO_NUM_THREADS``: pool width; 0/unset means auto-size."""
    return env_int("REPRO_NUM_THREADS", 0, minimum=0)


def state_dir() -> Optional[str]:
    """``REPRO_STATE_DIR``: durable-state snapshot directory, or None (off)."""
    return _raw("REPRO_STATE_DIR")


def spmm_strategy(choices: Sequence[str]) -> Optional[str]:
    """``REPRO_SPMM_STRATEGY``: process-wide default strategy, or None."""
    return env_choice("REPRO_SPMM_STRATEGY", choices, None)


def verify_plans() -> bool:
    """``REPRO_VERIFY_PLANS``: first-iteration differential verification."""
    return env_flag("REPRO_VERIFY_PLANS", False)


def skip_validation() -> bool:
    """``REPRO_SKIP_VALIDATION``: drop the O(E) structural admission checks."""
    return env_flag("REPRO_SKIP_VALIDATION", False)


def guard_enabled() -> bool:
    """``REPRO_GUARD``: run executors through the guarded fallback ladder."""
    return env_flag("REPRO_GUARD", False)


def deadline_slack() -> float:
    """``REPRO_DEADLINE_SLACK``: deadline = predicted seconds x slack.

    The cost models predict *simulated device* time, which on the NumPy
    substrate under-estimates wall clock by orders of magnitude — hence
    the large default.  See docs/PERFORMANCE.md for tuning guidance.
    """
    return env_float("REPRO_DEADLINE_SLACK", 1e4, minimum=0.0)


def deadline_floor_seconds() -> float:
    """``REPRO_DEADLINE_FLOOR_MS``: minimum deadline regardless of slack."""
    return env_float("REPRO_DEADLINE_FLOOR_MS", 5000.0, minimum=0.0) / 1e3


def mem_budget_bytes() -> Optional[float]:
    """``REPRO_MEM_BUDGET_MB``: per-plan memory budget, or None (unlimited)."""
    value = env_float("REPRO_MEM_BUDGET_MB", 0.0, minimum=0.0)
    return value * 2**20 if value > 0 else None


def breaker_threshold() -> int:
    """``REPRO_BREAKER_THRESHOLD``: failures before a breaker trips."""
    return env_int("REPRO_BREAKER_THRESHOLD", 3, minimum=1)


def breaker_cooldown_seconds() -> float:
    """``REPRO_BREAKER_COOLDOWN``: seconds a tripped breaker stays open."""
    return env_float("REPRO_BREAKER_COOLDOWN", 30.0, minimum=0.0)


def faults_spec() -> Optional[str]:
    """``REPRO_FAULTS``: fault schedule, e.g. ``spmm:raise:0.1,gemm:slow:0.05:0.2``."""
    return _raw("REPRO_FAULTS")


def faults_seed() -> int:
    """``REPRO_FAULTS_SEED``: seed for probabilistic fault draws."""
    return env_int("REPRO_FAULTS_SEED", 0)


def serve_max_queue() -> int:
    """``REPRO_SERVE_MAX_QUEUE``: per-tenant queued+running request bound."""
    return env_int("REPRO_SERVE_MAX_QUEUE", 64, minimum=1)


def serve_deadline_seconds() -> Optional[float]:
    """``REPRO_SERVE_DEADLINE_MS``: default request deadline, or None (off)."""
    value = env_float("REPRO_SERVE_DEADLINE_MS", 0.0, minimum=0.0)
    return value / 1e3 if value > 0 else None


def plan_cache_size() -> int:
    """``REPRO_PLAN_CACHE_SIZE``: capacity of the fingerprint plan cache."""
    return env_int("REPRO_PLAN_CACHE_SIZE", 128, minimum=1)


def autotune_enabled() -> bool:
    """``REPRO_AUTOTUNE``: measure strategy/block_nnz candidates on the
    actual input at selection time and feed residuals back into the cost
    models."""
    return env_flag("REPRO_AUTOTUNE", False)


def autotune_grid() -> Optional[Sequence[int]]:
    """``REPRO_AUTOTUNE_GRID``: candidate ``block_nnz`` values, or None.

    A comma-separated list of positive integers, e.g. ``8192,32768,131072``.
    Unset means the autotuner's built-in grid around the default tile size.
    """
    raw = _raw("REPRO_AUTOTUNE_GRID")
    if raw is None:
        return None
    values = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = int(part)
        except ValueError:
            raise GraniiConfigError(
                f"REPRO_AUTOTUNE_GRID={raw!r} contains non-integer {part!r}"
            ) from None
        if value < 1:
            raise GraniiConfigError(
                f"REPRO_AUTOTUNE_GRID={raw!r} contains non-positive {value}"
            )
        values.append(value)
    if not values:
        raise GraniiConfigError(
            f"REPRO_AUTOTUNE_GRID={raw!r} names no block sizes"
        )
    return values


def autotune_warmup() -> int:
    """``REPRO_AUTOTUNE_WARMUP``: discarded warm-up runs per point."""
    return env_int("REPRO_AUTOTUNE_WARMUP", 1, minimum=0)


def autotune_repeats() -> int:
    """``REPRO_AUTOTUNE_REPEATS``: timed repeats per point (best kept)."""
    return env_int("REPRO_AUTOTUNE_REPEATS", 3, minimum=1)


def override_env(overrides):
    """Temporarily set environment knobs; returns a restore callable.

    The sanctioned way to flip ``REPRO_*`` values from drivers and tests
    (the chaos harness uses it per fault schedule), keeping raw
    ``os.environ`` access confined to this module::

        restore = override_env({"REPRO_MEM_BUDGET_MB": "0.01"})
        try:
            ...
        finally:
            restore()
    """
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)

    def restore() -> None:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v

    return restore
