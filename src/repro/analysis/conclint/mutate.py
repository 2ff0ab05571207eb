"""Seeded concurrency-bug self-test for conclint.

Mirrors :mod:`repro.analysis.mutate` (planlint's falsifiability
battery) at the source level: each mutation is an exact-text edit of a
*real* module — a reversed lock order, an executor nobody shuts down,
a widened span slice — applied to an in-memory copy of the tree and
re-analyzed.
A mutation is **caught** when the analysis of the mutated tree reports
a new unwaived finding of the expected rule that the clean tree does
not have.  A mutation whose anchor text no longer exists is *not
applicable* (the battery must be updated alongside the code it seeds).

Each mutation, and the clean tree's own analysis, is an entry of the
check registry (``conclint/<mutation>``, ``conclint/baseline``)::

    PYTHONPATH=src python -m repro.checks --quick --only conclint
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from . import ConclintReport, analyze_sources, canonical_rel, collect_sources

__all__ = [
    "MUTATIONS",
    "Mutation",
    "NotApplicable",
    "apply_mutation",
    "check_mutation",
    "tree_sources",
]

_BLOCKED = "repro/kernels/blocked.py"
_SERVICE = "repro/serving/service.py"
_CACHE = "repro/serving/cache.py"


class NotApplicable(RuntimeError):
    """The mutation's anchor text is gone; the battery needs updating."""


@dataclass(frozen=True)
class Mutation:
    name: str
    kind: str
    path: str
    old: str
    new: str
    expected_rules: FrozenSet[str]


MUTATIONS: Tuple[Mutation, ...] = (
    Mutation(
        "reversed_lock_order", "deadlock", _SERVICE,
        "    @property\n    def cache(self) -> PlanCache:\n"
        "        return self._cache\n",
        "    @property\n    def cache(self) -> PlanCache:\n"
        "        return self._cache\n\n"
        "    def _mutant_lock_a(self):\n"
        "        with self._lock:\n"
        "            with self._select_lock:\n"
        "                return None\n\n"
        "    def _mutant_lock_b(self):\n"
        "        with self._select_lock:\n"
        "            with self._lock:\n"
        "                return None\n",
        frozenset({"lock-order-cycle"}),
    ),
    Mutation(
        "wait_under_cache_lock", "blocking", _CACHE,
        "            if event is not None:\n"
        "                event.wait(_WAIT_SLICE_SECONDS)\n"
        "                continue\n",
        "            if event is not None:\n"
        "                with self._lock:\n"
        "                    event.wait(_WAIT_SLICE_SECONDS)\n"
        "                continue\n",
        frozenset({"lock-held-across-blocking-call"}),
    ),
    Mutation(
        "result_under_select_lock", "blocking", _SERVICE,
        "            with self._select_lock:\n"
        "                layer = spec.factory()\n",
        "            with self._select_lock:\n"
        "                self._pool.submit(spec.factory).result()\n"
        "                layer = spec.factory()\n",
        frozenset({"lock-held-across-blocking-call"}),
    ),
    Mutation(
        "acquire_without_release", "lock-leak", _CACHE,
        "        with self._lock:\n"
        "            entry = self._entries.get(key)\n"
        "            if entry is not None and entry.token == token:\n"
        "                return entry\n"
        "            return None\n",
        "        self._lock.acquire()\n"
        "        entry = self._entries.get(key)\n"
        "        if entry is not None and entry.token == token:\n"
        "            return entry\n"
        "        self._lock.release()\n"
        "        return None\n",
        frozenset({"lock-acquire-no-release"}),
    ),
    Mutation(
        "reentrant_self_deadlock", "deadlock", _CACHE,
        "            with self._lock:\n"
        "                entry = self._entries.get(key)\n"
        "                if entry is not None:\n",
        "            with self._lock:\n"
        "                self.stats()\n"
        "                entry = self._entries.get(key)\n"
        "                if entry is not None:\n",
        frozenset({"lock-self-deadlock"}),
    ),
    Mutation(
        "orphaned_span_pool", "resource-leak", _BLOCKED,
        "    if pool is None:\n"
        "        pool = _POOLS.setdefault(\n",
        "    if pool is None:\n"
        "        spare = ThreadPoolExecutor(max_workers=num_threads)\n"
        "        pool = _POOLS.setdefault(\n",
        frozenset({"resource-leak"}),
    ),
    Mutation(
        "unpublished_serve_pool", "resource-leak", _SERVICE,
        "        self._pool = ThreadPoolExecutor(\n"
        "            max_workers=self._num_threads, "
        "thread_name_prefix=\"granii-serve\"\n",
        "        pool = ThreadPoolExecutor(\n"
        "            max_workers=self._num_threads, "
        "thread_name_prefix=\"granii-serve\"\n",
        frozenset({"resource-leak"}),
    ),
    Mutation(
        "widen_shard_write", "overlap", _BLOCKED,
        "        span_out = out[r0:r1]\n",
        "        span_out = out[r0 : r1 + 1]\n",
        frozenset({"shard-write-overlap"}),
    ),
    Mutation(
        "offset_span_bound", "overlap", _BLOCKED,
        "r0, r1 = int(bounds[i]), int(bounds[i + 1])",
        "r0, r1 = int(bounds[i]) - 1, int(bounds[i + 1])",
        frozenset({"shard-write-overlap"}),
    ),
    Mutation(
        "unknown_bounds_producer", "overlap", _BLOCKED,
        "    bounds = plan_row_shards(indptr, workers)",
        "    bounds = np.cumsum(\n"
        "        np.diff(np.linspace(0, rows, workers + 1)).astype(np.int64)\n"
        "    )",
        frozenset({"shard-write-overlap"}),
    ),
)


def tree_sources() -> Dict[str, str]:
    """The installed ``repro`` tree, keyed by canonical path."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    return {
        canonical_rel(path): text
        for path, text in collect_sources([root]).items()
    }


def apply_mutation(sources: Dict[str, str], mutation: Mutation) -> Dict[str, str]:
    source = sources.get(mutation.path)
    if source is None or mutation.old not in source:
        raise NotApplicable(
            f"{mutation.name}: anchor text not found in {mutation.path}"
        )
    mutated = dict(sources)
    mutated[mutation.path] = source.replace(mutation.old, mutation.new, 1)
    return mutated


def check_mutation(
    mutation: Mutation, sources: Dict[str, str], baseline: ConclintReport
) -> Tuple[bool, str]:
    """Apply one mutation to ``sources`` and re-analyze; ``(caught,
    outcome)``, where caught means a new unwaived finding of an expected
    rule that ``baseline`` (the analysis of ``sources``) does not have."""
    try:
        mutated = apply_mutation(sources, mutation)
    except NotApplicable as exc:
        return False, f"NOT APPLICABLE ({exc})"
    base_keys = {(f.rule, f.path) for f in baseline.active}
    report = analyze_sources(mutated)
    fresh = [f for f in report.active if (f.rule, f.path) not in base_keys]
    caught = [f for f in fresh if f.rule in mutation.expected_rules]
    if caught:
        first = caught[0]
        return True, f"caught ({first.rule} at {first.path}:{first.line})"
    got = ", ".join(sorted({f.rule for f in fresh})) or "nothing"
    wanted = "/".join(sorted(mutation.expected_rules))
    return False, f"MISSED (wanted {wanted}, got {got})"
