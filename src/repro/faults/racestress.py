"""Happens-before stress sanitizer for the concurrency linter.

:mod:`repro.analysis.conclint` computes a *static* lock-acquisition-order
graph by interprocedural analysis.  That graph is an over-approximation
— it may contain edges no execution takes — but it must never be an
*under*-approximation: every lock-order edge a real run exhibits has to
appear in the static graph, or the linter's cycle check is unsound.

This module closes the loop at test time.  It monkeypatches the
``threading.Lock``/``threading.RLock`` factories with caller-site-aware
versions: a lock constructed at a source site the static pass indexed
(see :meth:`LockGraph.site_index`) is wrapped so every acquisition
records a happens-before edge ``held -> acquired`` into a
:class:`RaceMonitor`; locks constructed anywhere else (stdlib internals,
test scaffolding) stay untraced.

After driving a stress scenario — plan-cache eviction hammering or a
small serving workload — the observed edge set is asserted to be a
**subset** of the static graph: zero unexplained edges.  Each scenario
also declares the edges it exists to exercise, and a run that misses
one, or traces no acquisition at all, fails: a scenario whose locks were
all built before the factories were patched observes nothing, and an
empty observation is trivially a subset.  Lock identity
is the static table's, keyed by ``(construction file, line)``, so the
comparison never depends on hardcoded line numbers.  Each scenario is
an entry of the check registry (``racestress/<scenario>``)::

    PYTHONPATH=src python -m repro.checks --quick --only racestress
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Set, Tuple

__all__ = [
    "RaceMonitor",
    "RaceReport",
    "SCENARIOS",
    "Scenario",
    "run_scenario",
]

# Real factories, captured before any patching.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_THIS_FILE = __file__


class RaceMonitor:
    """Per-thread held-lock stacks plus the global observed-edge set.

    Reentrant re-acquisition (an id already on this thread's stack) is
    depth-counted and records no edge — holding a lock is not ordered
    against itself.  The first acquisition site seen for each edge is
    kept as its witness.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._mu = _REAL_LOCK()
        self.edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
        self.acquisitions = 0
        self.unmapped: Set[Tuple[str, int]] = set()

    def _stack(self) -> List[List[object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def note_unmapped(self, rel: str, lineno: int) -> None:
        with self._mu:
            self.unmapped.add((rel, lineno))

    def on_acquire(self, lock_id: str, site: Tuple[str, int]) -> None:
        stack = self._stack()
        for held in stack:
            if held[0] == lock_id:
                held[1] += 1  # reentrant: no ordering edge
                return
        new_edges = [(str(held[0]), lock_id) for held in stack]
        stack.append([lock_id, 1])
        with self._mu:
            self.acquisitions += 1
            for key in new_edges:
                self.edges.setdefault(key, site)

    def on_release(self, lock_id: str) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == lock_id:
                stack[i][1] -= 1
                if stack[i][1] == 0:
                    del stack[i]
                return

    def snapshot_edges(self) -> Set[Tuple[str, str]]:
        with self._mu:
            return set(self.edges)


class _TracedLock:
    """Lock wrapper reporting acquire/release to a :class:`RaceMonitor`.

    Mirrors the ``threading.Lock``/``RLock`` surface the repro tree
    uses: context manager, ``acquire(blocking, timeout)``, ``release``.
    """

    def __init__(self, monitor: RaceMonitor, lock_id: str,
                 reentrant: bool) -> None:
        self._inner = _REAL_RLOCK() if reentrant else _REAL_LOCK()
        self._monitor = monitor
        self._lock_id = lock_id

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._monitor.on_acquire(self._lock_id, _caller_site())
        return got

    def release(self) -> None:
        self._monitor.on_release(self._lock_id)
        self._inner.release()

    def __enter__(self) -> "_TracedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def locked(self) -> bool:
        probe = getattr(self._inner, "locked", None)
        return bool(probe()) if probe is not None else False


def _caller_site() -> Tuple[str, int]:
    """(file, line) of the nearest frame outside this module."""
    from repro.analysis.conclint.model import canonical_rel

    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename == _THIS_FILE:
        frame = frame.f_back
    if frame is None:
        return ("<unknown>", 0)
    return (canonical_rel(frame.f_code.co_filename), frame.f_lineno)


class _Patcher:
    """Install/remove the traced lock factories.  Always restores on
    exit, even if a scenario raises."""

    def __init__(self, monitor: RaceMonitor,
                 site_index: Dict[Tuple[str, int], str]) -> None:
        self._monitor = monitor
        self._site_index = site_index

    def _factory(self, reentrant: bool) -> Callable[[], object]:
        monitor = self._monitor
        site_index = self._site_index
        real = _REAL_RLOCK if reentrant else _REAL_LOCK

        def make_lock():
            from repro.analysis.conclint.model import canonical_rel

            frame = sys._getframe(1)
            rel = canonical_rel(frame.f_code.co_filename)
            lock_id = site_index.get((rel, frame.f_lineno))
            if lock_id is None:
                if rel.startswith("repro/"):
                    monitor.note_unmapped(rel, frame.f_lineno)
                return real()
            return _TracedLock(monitor, lock_id, reentrant)

        return make_lock

    def __enter__(self) -> "_Patcher":
        threading.Lock = self._factory(False)
        threading.RLock = self._factory(True)
        return self

    def __exit__(self, *exc) -> bool:
        threading.Lock = _REAL_LOCK
        threading.RLock = _REAL_RLOCK
        return False


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _scenario_cache(quick: bool) -> None:
    """Hammer ``PlanCache`` eviction against single-flight: capacity 2,
    8 threads cycling 6 keys (one with an alternating token to force
    collisions).  Asserts no wrong-plan serve and no stuck waiter."""
    from repro.serving import PlanCache

    cache = PlanCache(2)
    keys = [f"key-{i}" for i in range(6)]
    iters = 40 if quick else 200
    errors: List[str] = []

    def worker(seed: int) -> None:
        for j in range(iters):
            key = keys[(seed + j) % len(keys)]
            # key-0 alternates tokens so eviction races a collision path
            token = f"tok-{key}" if key != "key-0" else f"tok-{j % 2}"
            payload, _hit = cache.get_or_compute(
                key, token, lambda k=key, t=token: ("plan", k, t)
            )
            if payload[1] != key or payload[2] != token:
                errors.append(f"wrong plan for {key}/{token}: {payload!r}")

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    stuck = [t for t in threads if t.is_alive()]
    if stuck:
        raise AssertionError(f"{len(stuck)} cache waiter(s) stuck")
    if errors:
        raise AssertionError(errors[0])


def _scenario_serving(quick: bool) -> None:
    """Small serving workload: two graphs, mixed tenants, stats probe,
    then shutdown — exercises the select/guard/cache lock nests."""
    import numpy as np

    from repro.core.costmodel import CostModelSet, get_cost_models
    from repro.graphs.generators import erdos_renyi
    from repro.serving import GraniiService, ServeRequest

    # a copy of the set a checks run already holds: its memo lock is
    # made here, under the traced factories, so its nests are observed
    cost_models = CostModelSet.from_dict(get_cost_models("cpu").to_dict())
    svc = GraniiService(
        device="cpu", cost_models=cost_models,
        num_threads=2, plan_cache_size=4, state_dir="",
    )
    try:
        svc.register_model("gcn", 8, 4)
        graphs = [erdos_renyi(60, 4.0, seed=3), erdos_renyi(48, 4.0, seed=9)]
        n = 4 if quick else 12
        futures = []
        for i in range(n):
            graph = graphs[i % 2]
            feats = np.random.default_rng(i).standard_normal(
                (graph.num_nodes, 8)
            )
            futures.append(svc.submit(ServeRequest(
                tenant=f"tenant-{i % 3}", model="gcn",
                graph=graph, feats=feats,
            )))
        for fut in futures:
            fut.result(timeout=300.0)
        svc.stats()
    finally:
        svc.shutdown(save=False)


@dataclass(frozen=True)
class Scenario:
    """A stress driver and the lock-order edges (``held -> acquired``,
    conclint lock ids) every run of it must observe."""

    drive: Callable[[bool], None]
    edges: FrozenSet[Tuple[str, str]] = frozenset()


SCENARIOS: Dict[str, Scenario] = {
    # PlanCache nests no lock under its own: the hammer observes
    # acquisitions but no edge
    "cache": Scenario(_scenario_cache),
    # a plan-cache miss selects under the service's select lock, and
    # pricing takes the cost models' memo lock inside it
    "serving": Scenario(_scenario_serving, frozenset({(
        "repro.serving.service.GraniiService._select_lock",
        "repro.core.costmodel.CostModelSet._memo_lock",
    )})),
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class RaceReport:
    """Outcome of one stress scenario against the static graph."""

    static_edges: Set[Tuple[str, str]]
    observed: Dict[Tuple[str, str], Tuple[str, int]]
    acquisitions: int
    unmapped: Set[Tuple[str, int]] = field(default_factory=set)
    declared: FrozenSet[Tuple[str, str]] = frozenset()

    @property
    def unexplained(self) -> List[Tuple[str, str]]:
        return sorted(e for e in self.observed if e not in self.static_edges)

    @property
    def missing(self) -> List[Tuple[str, str]]:
        """Declared edges the run did not observe."""
        return sorted(e for e in self.declared if e not in self.observed)

    @property
    def ok(self) -> bool:
        return self.acquisitions > 0 and not self.unexplained and not self.missing

    def to_dict(self) -> dict:
        return {
            "observed_edges": {
                f"{a} -> {b}": f"{site[0]}:{site[1]}"
                for (a, b), site in sorted(self.observed.items())
            },
            "unexplained": [f"{a} -> {b}" for a, b in self.unexplained],
            "missing": [f"{a} -> {b}" for a, b in self.missing],
            "acquisitions": self.acquisitions,
            "unmapped_sites": sorted(
                f"{rel}:{line}" for rel, line in self.unmapped
            ),
        }


def run_scenario(name: str, quick: bool, graph) -> RaceReport:
    """Patch, drive one scenario under a fresh monitor, and compare its
    observed lock-order edges against ``graph``, conclint's static
    :class:`~repro.analysis.conclint.LockGraph` of the tree, and the
    scenario's declared edges against what it observed."""
    scenario = SCENARIOS[name]
    monitor = RaceMonitor()
    with _Patcher(monitor, graph.site_index()):
        scenario.drive(quick)
    return RaceReport(
        static_edges=set(graph.edges),
        observed=dict(monitor.edges),
        acquisitions=monitor.acquisitions,
        unmapped=set(monitor.unmapped),
        declared=scenario.edges,
    )
