"""Reusable scratch-buffer arenas for the tiled kernels.

The naive g-SpMM materialises a fresh ``(nnz, k)`` message array on every
call; the tiled kernels (the ``blocked`` row, a NumPy-fold semiring's
tiles, the tiled g-SDDMM) instead stream edges through a bounded tile
whose backing buffer lives in a :class:`WorkspaceArena` and is reused
across blocks *and* across plan iterations (the runtime stows one arena
per (plan, graph) in the same ``setup_cache`` that amortises graph-only
sparse precomputation).  Buffers are keyed by (shape, dtype), so a layer
that executes the same composition every iteration allocates its scratch
exactly once.

Thread safety: an arena hands out one buffer per key, so concurrent
workers must not share one arena.  The worker spans of a split fold
(:func:`repro.kernels.blocked.run_spans`) therefore draw per-worker
arenas from :func:`thread_local_arena`.

An arena owns *scratch*: nothing it hands out survives the call.  The
arrays that do — an op's result, a gradient — come from the calling
thread's :class:`StepPool` (:func:`step_buffer`), which reuses a buffer
only once nothing else references it.
"""

from __future__ import annotations

import sys
import threading
from bisect import bisect_left, bisect_right
from math import prod
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "StepPool",
    "WorkspaceArena",
    "step_buffer",
    "thread_local_arena",
    "thread_local_step_pool",
]


class WorkspaceArena:
    """A pool of pre-allocated scratch buffers keyed by shape and dtype.

    ``request`` returns an *uninitialised* buffer — callers must overwrite
    every element they read.  Returned buffers are only valid until the
    next ``request`` with the same key.
    """

    __slots__ = ("_buffers", "hits", "misses")

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[Tuple[int, ...], str, int], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def request(self, shape, dtype=np.float64, slot: int = 0) -> np.ndarray:
        """A scratch buffer of exactly ``shape``; contents are undefined.

        ``slot`` discriminates buffers a caller needs *simultaneously*
        with the same shape and dtype (e.g. the two endpoint tiles of a
        blocked SDDMM) — same-key requests otherwise alias one buffer.
        """
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str, slot)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(key[0], dtype=dtype)
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes resident across all pooled buffers."""
        return sum(b.nbytes for b in self._buffers.values())

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    def drop_buffers(self) -> None:
        """Release every pooled buffer, keeping the hit/miss counters.

        Called by the blocked kernels when an exception escapes
        mid-execution: a partially written (or abnormally oversized)
        tile must not be handed to the next caller, and the memory
        behind a failed oversized request must not stay resident.
        """
        self._buffers.clear()

    def clear(self) -> None:
        self._buffers.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"WorkspaceArena(buffers={self.num_buffers}, "
            f"bytes={self.nbytes}, hits={self.hits}, misses={self.misses})"
        )


_LOCAL = threading.local()


def thread_local_arena() -> WorkspaceArena:
    """The calling thread's private arena (created on first use).

    The worker threads of a split fold reuse their scratch across blocks
    and across kernel invocations without any locking.
    """
    arena = getattr(_LOCAL, "arena", None)
    if arena is None:
        arena = WorkspaceArena()
        _LOCAL.arena = arena
    return arena


# Requests below this many bytes go straight to ``np.empty``: malloc serves
# them from its free lists without touching the OS, and a pooled view costs
# more than it saves.
_MIN_POOLED_BYTES = 32 * 1024


def _measure_sole_holder_refs() -> int:
    kept = [object()]
    return sys.getrefcount(kept[0])


# what ``sys.getrefcount(kept[i])`` reads when ``kept`` holds the only
# reference: measured, not assumed, with the expression ``_sole_holder`` uses
_SOLE_HOLDER_REFS = _measure_sole_holder_refs()


def _sole_holder(kept: List[Optional[np.ndarray]], i: int) -> bool:
    """Whether the list ``kept`` holds the only reference to ``kept[i]``.

    The pool's whole liveness test, and the one place it leans on the
    interpreter.  CPython counts references, and every NumPy view, however
    derived (slice, reshape, transpose, ``broadcast_to``, ``memoryview``),
    keeps the array that owns its memory alive through ``.base``; so a
    count of one says that no array anywhere still reads or writes these
    bytes.  A buffer reachable only from uncollected garbage reads as
    held, which costs an allocation, never a wrong answer.  A port to a
    runtime without reference counts (or to free-threaded CPython, where
    the count is not exact) replaces this function by an explicit
    release from whoever took the buffer.
    """
    return sys.getrefcount(kept[i]) == _SOLE_HOLDER_REFS


class StepPool:
    """Kept byte buffers for the step-sized arrays of one thread.

    ``take`` hands out an *uninitialised* array of the asked shape backed
    by a kept buffer that is at most half again as large as the request
    and that **nothing else references** (:func:`_sole_holder`); when
    every such buffer is still held it allocates a new one and keeps it.
    Because liveness is observed, not assumed, the pool is semantically
    invisible: an output, a borrowed gradient or a ``p.grad`` somebody
    still holds is never handed out again, and whoever takes an array
    owes the pool nothing — dropping the last reference is the release.

    Retention follows the pool's own traffic; there is no size or age
    setting.  The clock is the count of pooled takes, and the *cycle* is
    the longest gap after which any slot was asked for again (one
    training step, once a step has repeated).  Sweeps run two cycles
    apart and release every unreferenced buffer that was not handed out
    during the last two; the slot stays and remembers the size and the
    clock, so a buffer released too early — the cycle is unknown until
    it has come round once — teaches the pool the true cycle the moment
    it is asked for again.  The estimate only grows.  A slot is added
    only while every slot that fits the request is held, so slots number
    at most the arrays of one size class ever held at once, whatever the
    run length.
    """

    __slots__ = (
        "_caps", "_kept", "_taken", "_clock", "_cycle", "_sweep_at",
        "hits", "misses",
    )

    def __init__(self) -> None:
        # parallel lists, one entry per slot, ascending by capacity
        self._caps: List[int] = []
        self._kept: List[Optional[np.ndarray]] = []  # None: released
        self._taken: List[int] = []  # clock of the last hand-out
        self._clock = 0
        self._cycle = 0
        self._sweep_at = 0
        self.hits = 0
        self.misses = 0

    def take(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous array; the caller writes every
        element it reads."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * prod(shape)
        if nbytes < _MIN_POOLED_BYTES:
            return np.empty(shape, dtype)
        clock = self._clock = self._clock + 1
        caps, kept, taken = self._caps, self._kept, self._taken
        first = bisect_left(caps, nbytes)
        slot = released = -1
        for i in range(first, bisect_right(caps, nbytes + nbytes // 2)):
            if kept[i] is None:
                if released < 0:
                    released = i
            elif _sole_holder(kept, i):
                slot = i
                break
        if slot >= 0:
            self.hits += 1
        else:
            self.misses += 1
            if released >= 0:
                slot = released
                kept[slot] = np.empty(caps[slot], np.uint8)
            else:
                slot = first
                caps.insert(slot, nbytes)
                kept.insert(slot, np.empty(nbytes, np.uint8))
                taken.insert(slot, clock)
        if clock - taken[slot] > self._cycle:
            self._cycle = clock - taken[slot]
        taken[slot] = clock
        out = np.ndarray(shape, dtype, kept[slot])
        if clock >= self._sweep_at:
            # after ``out`` exists, and after the cycle has learned from it
            horizon = clock - 2 * self._cycle
            for i, last in enumerate(taken):
                if last < horizon and kept[i] is not None and _sole_holder(kept, i):
                    kept[i] = None
            self._sweep_at = clock + max(2 * self._cycle, 1)
        return out

    @property
    def nbytes(self) -> int:
        """Bytes resident in kept buffers, handed out or not."""
        return sum(b.nbytes for b in self._kept if b is not None)

    @property
    def num_buffers(self) -> int:
        return sum(b is not None for b in self._kept)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"StepPool(buffers={self.num_buffers}, bytes={self.nbytes}, "
            f"cycle={self._cycle}, hits={self.hits}, misses={self.misses})"
        )


def thread_local_step_pool() -> StepPool:
    """The calling thread's private step pool (created on first use)."""
    pool = getattr(_LOCAL, "step_pool", None)
    if pool is None:
        pool = StepPool()
        _LOCAL.step_pool = pool
    return pool


def step_buffer(shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """``thread_local_step_pool().take(shape, dtype)``: where every
    step-sized result of :mod:`repro.tensor` and of the SpMM strategies
    is allocated."""
    return thread_local_step_pool().take(shape, dtype)
