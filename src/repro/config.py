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
:data:`KNOBS` names every knob; the table below is built from it.  A
setting that an argument also sets (``GraniiEngine(guarded=)``,
``GraniiService(max_queue=)``, ...) has no knob.  Any other ``REPRO_*``
variable in the environment draws one :class:`RuntimeWarning` per
process (:func:`warn_unknown_knobs`), so a misspelt or retired knob is
never ignored without a word.

"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

from .errors import GraniiConfigError

__all__ = [
    "KNOBS",
    "env_flag",
    "env_float",
    "env_int",
    "num_threads",
    "state_dir",
    "skip_validation",
    "deadline_slack",
    "deadline_floor_seconds",
    "mem_budget_bytes",
    "override_env",
    "warn_unknown_knobs",
]

# (name, meaning) of every knob this module reads
KNOBS: Tuple[Tuple[str, str], ...] = (
    ("REPRO_NUM_THREADS", "worker count of a split SpMM fold"),
    ("REPRO_STATE_DIR", "durable-state snapshot directory (unset = off)"),
    ("REPRO_SKIP_VALIDATION", "skip O(E) structural checks in CSR builders"),
    ("REPRO_DEADLINE_SLACK", "deadline = predicted cost x slack (>= floor)"),
    ("REPRO_DEADLINE_FLOOR_MS", "minimum per-plan wall-clock deadline"),
    ("REPRO_MEM_BUDGET_MB", "per-plan memory budget (estimate + observed)"),
)

__doc__ = (__doc__ or "") + "\n".join(
    f"``{name}``".ljust(28) + meaning for name, meaning in KNOBS
)

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


# ----------------------------------------------------------------------
# Specific knobs
# ----------------------------------------------------------------------
def num_threads() -> int:
    """``REPRO_NUM_THREADS``: split-fold width; 0/unset means auto-size."""
    return env_int("REPRO_NUM_THREADS", 0, minimum=0)


def state_dir() -> Optional[str]:
    """``REPRO_STATE_DIR``: durable-state snapshot directory, or None (off)."""
    return _raw("REPRO_STATE_DIR")


def skip_validation() -> bool:
    """``REPRO_SKIP_VALIDATION``: drop the O(E) structural admission checks."""
    return env_flag("REPRO_SKIP_VALIDATION", False)


def deadline_slack() -> float:
    """``REPRO_DEADLINE_SLACK``: deadline = predicted seconds x slack.

    On ``cpu`` the prices are this host's seconds (the cost models are
    fitted to its kernels' wall clock; across the bench's calls the
    10th-90th percentile of predicted/observed reads 0.6-1.1x), while
    a100/h100 prices are simulated device time.  The large default dates
    from when every price was simulated; it is kept until it is derived
    from that spread (docs/PERFORMANCE.md, "Host-timed cost models").
    """
    return env_float("REPRO_DEADLINE_SLACK", 1e4, minimum=0.0)


def deadline_floor_seconds() -> float:
    """``REPRO_DEADLINE_FLOOR_MS``: minimum deadline regardless of slack."""
    return env_float("REPRO_DEADLINE_FLOOR_MS", 5000.0, minimum=0.0) / 1e3


def mem_budget_bytes() -> Optional[float]:
    """``REPRO_MEM_BUDGET_MB``: per-plan memory budget, or None (unlimited)."""
    value = env_float("REPRO_MEM_BUDGET_MB", 0.0, minimum=0.0)
    return value * 2**20 if value > 0 else None


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


def warn_unknown_knobs() -> None:
    """Warn for each ``REPRO_*`` variable in the environment that is not
    in :data:`KNOBS`.  It runs once, at import: once per process."""
    known = {name for name, _ in KNOBS}
    for name in sorted(os.environ):
        if name.startswith("REPRO_") and name not in known:
            warnings.warn(
                f"{name} is set but is not a repro knob, so it has no "
                f"effect; the knobs are {', '.join(sorted(known))} "
                f"(see repro.config)",
                RuntimeWarning,
                stacklevel=2,
            )


warn_unknown_knobs()
