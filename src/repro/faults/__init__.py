"""Deterministic fault injection for the guarded execution runtime.

The guard (:mod:`repro.core.guard`) claims that any kernel failure —
crash, stall, over-allocation, silent corruption — is either absorbed by
the fallback ladder or surfaced as a structured
:class:`~repro.errors.GraniiError`.  This package makes that claim
testable: a :class:`FaultPlan` is a *seeded* schedule of faults attached
to the kernel-dispatch seam
(:func:`~repro.kernels.registry.kernel_wrapper`), so a failing chaos run
replays exactly from its seed.

Fault specs use the syntax ``primitive:action:probability[:param]``,
comma-separated — also accepted from the ``REPRO_FAULTS`` environment
variable::

    REPRO_FAULTS="spmm:raise:0.5,gemm:slow:0.1:0.2" python train.py

Actions
-------
``raise``
    Raise :class:`FaultInjected` *from inside the kernel*.  Deliberately
    a plain ``RuntimeError`` subclass, not a ``GraniiError`` — it
    simulates a genuine kernel bug; the guard's job is to turn it into a
    recorded demotion or a structured error.
``corrupt``
    Let the kernel run, then scale its output by ``param`` (default
    1e3).  Only runtime verification can catch this one.
``slow``
    Sleep ``param`` seconds (default 0.25) before running the kernel —
    trips wall-clock deadlines.
``overalloc``
    Raise ``MemoryError``, as a kernel whose scratch allocation blows
    past physical memory would.
``corrupt_snapshot``
    Truncate one durable-state snapshot file under the active
    ``REPRO_STATE_DIR`` (``param`` selects which by index into the
    sorted snapshot list; default the first).  The next warm start must
    quarantine it and rebuild that piece of state cold.  A no-op when
    no state dir is configured or no snapshot exists.

``primitive`` may be ``*`` to match every kernel.  Probabilities are
evaluated per dispatch from the plan's private RNG stream.

Beyond seeded kernel faults, :mod:`repro.faults.racestress` is the
concurrency-side sanitizer: it wraps the tree's locks to record
happens-before edges under stress scenarios and asserts the observed
lock-order graph is a subset of the static graph computed by
:mod:`repro.analysis.conclint`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import config
from ..errors import GraniiConfigError
from ..kernels.registry import kernel_wrapper
from ..tensor import Tensor

__all__ = [
    "FAULT_ACTIONS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "fault_injection",
    "parse_fault_spec",
]

FAULT_ACTIONS = (
    "raise",
    "corrupt",
    "slow",
    "overalloc",
    "corrupt_snapshot",
)

_DEFAULT_PARAMS = {
    "raise": 0.0,
    "corrupt": 1e3,
    "slow": 0.25,
    "overalloc": 0.0,
    "corrupt_snapshot": 0.0,
}


class FaultInjected(RuntimeError):
    """The error an injected ``raise`` fault throws.

    Intentionally *not* a :class:`~repro.errors.GraniiError`: it stands
    in for an arbitrary kernel bug, and the acceptance bar is that no
    such raw error escapes a guarded executor.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: which kernels, what happens, how often."""

    primitive: str  # kernel primitive name, or "*" for all
    action: str  # one of FAULT_ACTIONS
    probability: float  # per-dispatch firing probability in [0, 1]
    param: float = 0.0  # corrupt scale / slow seconds; 0 -> action default

    def matches(self, primitive: str) -> bool:
        return self.primitive == "*" or self.primitive == primitive

    @property
    def effective_param(self) -> float:
        return self.param if self.param else _DEFAULT_PARAMS[self.action]

    def __str__(self) -> str:
        text = f"{self.primitive}:{self.action}:{self.probability:g}"
        if self.param:
            text += f":{self.param:g}"
        return text


def parse_fault_spec(text: str, source: str = "fault spec") -> List[FaultSpec]:
    """Parse ``primitive:action:probability[:param]`` rules (comma-joined).

    Raises :class:`~repro.errors.GraniiConfigError` with the offending
    fragment on malformed input; an empty/blank string parses to no rules.
    """
    specs: List[FaultSpec] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise GraniiConfigError(
                f"{source}: bad fault rule {chunk!r}; expected "
                f"primitive:action:probability[:param]"
            )
        primitive, action = parts[0].strip(), parts[1].strip().lower()
        if action not in FAULT_ACTIONS:
            raise GraniiConfigError(
                f"{source}: unknown fault action {action!r} in {chunk!r}; "
                f"choices: {FAULT_ACTIONS}"
            )
        try:
            probability = float(parts[2])
        except ValueError:
            raise GraniiConfigError(
                f"{source}: probability {parts[2]!r} in {chunk!r} is not a "
                f"number"
            ) from None
        if not 0.0 <= probability <= 1.0:
            raise GraniiConfigError(
                f"{source}: probability {probability:g} in {chunk!r} is "
                f"outside [0, 1]"
            )
        param = 0.0
        if len(parts) == 4:
            try:
                param = float(parts[3])
            except ValueError:
                raise GraniiConfigError(
                    f"{source}: param {parts[3]!r} in {chunk!r} is not a "
                    f"number"
                ) from None
        specs.append(FaultSpec(primitive, action, probability, param))
    return specs


class FaultPlan:
    """A seeded, replayable schedule of kernel faults.

    The plan owns a private RNG stream: two plans built with the same
    ``(specs, seed)`` fire on exactly the same dispatch sequence, which is
    what makes chaos runs reproducible from their seed alone.  ``fired``
    counts injections per ``(primitive, action)`` for assertions and
    reports; ``enabled`` gates the whole plan (the chaos driver disables
    it for its final clean verification call).
    """

    def __init__(
        self, specs: Sequence[FaultSpec], seed: int = 0
    ) -> None:
        self.specs = list(specs)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.enabled = True
        self.fired: Dict[Tuple[str, str], int] = {}
        self.dispatches = 0

    @classmethod
    def from_string(cls, text: str, seed: int = 0) -> "FaultPlan":
        return cls(parse_fault_spec(text), seed=seed)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """Plan described by ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``.

        Returns ``None`` when ``REPRO_FAULTS`` is unset or blank.
        """
        text = config.faults_spec()
        if not text:
            return None
        return cls(
            parse_fault_spec(text, source="REPRO_FAULTS"),
            seed=config.faults_seed(),
        )

    def describe(self) -> str:
        rules = ", ".join(str(s) for s in self.specs) or "<no rules>"
        return f"FaultPlan(seed={self.seed}, rules=[{rules}])"

    # ------------------------------------------------------------------
    def _record(self, primitive: str, action: str) -> None:
        key = (primitive, action)
        self.fired[key] = self.fired.get(key, 0) + 1

    def wrapper(self, primitive: str, next_call, tag: str):
        """Kernel wrapper (the :func:`dispatch_kernel` seam signature)."""
        if not self.enabled:
            return next_call()
        self.dispatches += 1
        for spec in self.specs:
            if not spec.matches(primitive):
                continue
            # draw even when probability is 0/1 so the stream position —
            # and therefore every later draw — is seed-deterministic
            roll = self.rng.random()
            if roll >= spec.probability:
                continue
            self._record(primitive, spec.action)
            if spec.action == "raise":
                raise FaultInjected(
                    f"injected kernel failure in {primitive!r} "
                    f"(tag={tag!r}, seed={self.seed})"
                )
            if spec.action == "overalloc":
                raise MemoryError(
                    f"injected over-allocation in {primitive!r} "
                    f"(tag={tag!r}, seed={self.seed})"
                )
            if spec.action == "slow":
                time.sleep(spec.effective_param)
                continue  # then run the kernel normally
            if spec.action == "corrupt_snapshot":
                _corrupt_snapshot(int(spec.param or 0))
                continue  # the next warm start must quarantine it
            if spec.action == "corrupt":
                value = next_call()
                return _corrupt(value, spec.effective_param)
        return next_call()


def _corrupt_snapshot(index: int = 0) -> Optional[str]:
    """Truncate one snapshot under ``REPRO_STATE_DIR`` mid-file — the
    on-disk damage a crash during a non-atomic write would leave.
    Returns the damaged path, or ``None`` when there is nothing to hit.
    """
    state_dir = config.state_dir()
    if not state_dir:
        return None
    from ..state import StateStore

    store = StateStore(state_dir)
    names = store.snapshots()
    if not names:
        return None
    path = store._path(names[index % len(names)])
    raw = path.read_text()
    path.write_text(raw[: max(1, len(raw) // 2)])
    return str(path)


def _corrupt(value, scale: float):
    """Silently scale a kernel's dense output (sparse values if sparse)."""
    if isinstance(value, np.ndarray):
        return value * scale
    if isinstance(value, Tensor):
        return Tensor(np.asarray(value.data) * scale)
    values = getattr(value, "values", None)
    if isinstance(values, np.ndarray):
        try:
            return type(value)(
                value.indptr, value.indices, values * scale, shape=value.shape
            )
        except (AttributeError, TypeError):
            return value
    return value


@contextmanager
def fault_injection(
    plan: FaultPlan, thread_local: bool = False
) -> Iterator[FaultPlan]:
    """Install ``plan`` on the kernel-dispatch seam for the block.

    ``thread_local=True`` confines the faults to dispatches made by the
    calling thread — the serving runtime's request-scoped fault plans,
    which must not contaminate other tenants' concurrent requests.
    """
    with kernel_wrapper(plan.wrapper, thread_local=thread_local):
        yield plan
