"""Small numeric helpers shared by the workloads (harness side only)."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Sequence

import numpy as np
import scipy.sparse as sp


def pct(samples: Sequence[float], q: float) -> float:
    """Percentile ``q`` of ``samples``; 0.0 for an empty sample (the layer
    did no work in this workload)."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def p50(samples: Sequence[float]) -> float:
    return pct(samples, 50.0)


def ms(seconds: Iterable[float]) -> List[float]:
    return [1e3 * s for s in seconds]


def timed(fn: Callable[[], object]) -> float:
    """Wall-clock seconds of one call (the result is consumed by the call)."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def best_of(fn: Callable[[], object], repeats: int) -> float:
    return min(timed(fn) for _ in range(repeats))


class HostClock:
    """A fixed pass of Python, SciPy and NumPy work, timed: the host's speed.

    The sizing host (2 shared vCPUs) speeds up and slows down by 20-50 %
    for tens of seconds at a time, so the same code reads 50 and 73 ms/op
    minutes apart and no percentile of raw wall time repeats.  A pass costs
    ~5 ms and mixes interpreter, memory-bound and compute-bound work like the
    ops do; it slows down with them.  The workloads take one between any
    two ops and divide each op's time by how slow the passes around it were.
    The program under test runs none of this code, so a slower program
    still reads slower by its full amount.

    Every reading is a slowdown: seconds taken over the seconds the same
    pass takes on the sizing host in a calm spell (1.0 there).
    """

    REFERENCE_S = 4.75e-3
    # two threads passing at once: the interpreter parts take turns
    REFERENCE_THREADED_S = 9.1e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        rows, cols = rng.integers(0, 8000, size=(2, 64000))
        self._sparse = sp.csr_matrix(
            (np.ones(64000), (rows, cols)), shape=(8000, 8000)
        )
        self._x = rng.standard_normal((8000, 32))
        self._dense = rng.standard_normal((192, 192))
        self.ticks: List[float] = []

    def _pass(self) -> None:
        total = 0
        for i in range(40000):
            total += i * i
        self._sparse @ self._x
        for _ in range(3):
            self._dense @ self._dense

    def tick(self) -> float:
        """Slowdown read from one pass on the calling thread."""
        slowdown = timed(self._pass) / self.REFERENCE_S
        self.ticks.append(slowdown)
        return slowdown

    def block(self, passes: int = 3) -> float:
        """Median of a few ticks, where one op's neighbours are not enough:
        around set-up, and between the traffic segments of ``serve_mix``."""
        return float(np.median([self.tick() for _ in range(passes)]))

    def threaded_block(self) -> float:
        """Like ``block``, but two threads pass at once: what a phase that
        keeps both vCPUs busy feels when a neighbour takes one of them."""
        with ThreadPoolExecutor(2) as pool:

            def two_at_once() -> None:
                for future in [pool.submit(self._pass) for _ in range(2)]:
                    future.result()

            two_at_once()  # starts the pool's threads
            seconds = [timed(two_at_once) for _ in range(5)]
        return float(np.median(seconds)) / self.REFERENCE_THREADED_S
