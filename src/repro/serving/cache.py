"""Fingerprint-keyed plan cache: LRU, single-flight, collision-safe.

The cache sits between the service's admission gate and the selection
engine.  On a hit, a request reuses the cached selection and skips
enumeration, cost-model pricing, and static analysis entirely; on a
miss, exactly **one** thread computes the selection while every other
request for the same key waits on its result (single-flight), so a
burst of first-time requests for one graph cannot stampede the
selector.

Correctness properties:

- a hit requires both the key *and* the structural token to match; a
  key collision between structurally different graphs is counted,
  reported, and served by an uncached recompute — never by the wrong
  plan (see :mod:`repro.serving.fingerprint`);
- eviction is capacity-bounded LRU and never invalidates in-flight
  requests: entries are immutable once published, so a request holding
  an evicted entry keeps executing its plan safely while new requests
  recompute.

Warm execution state.  An entry also carries, per *owner* (the service
uses ``(tenant, model name)``), a short stack of opaque states — whatever
a request must otherwise rebuild to execute the entry's plan.
:meth:`PlanCache.checkout` pops one, so a state is held by at most one
request at a time; :meth:`PlanCache.checkin` pushes it back.  The states
live on the entry and nowhere else: an evicted entry, a colliding key or
a changed token make both calls find nothing, and the states go with the
entry.  They are never exported (:meth:`PlanCache.export_entries`) and
are not part of the payload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

__all__ = ["CacheEntry", "PlanCache"]

# How long one waiter sleeps on a leader's in-flight computation before
# re-checking; a leader that dies always signals its event from a
# finally block, so this is a liveness backstop, not the exit path.
_WAIT_SLICE_SECONDS = 5.0


@dataclass(frozen=True)
class CacheEntry:
    """One published cache line; ``key``/``token``/``payload`` are
    immutable after insertion.  ``warm`` is the exception: owner -> the
    stack of checked-in execution states, touched only under the cache's
    lock and dropped with the entry."""

    key: str
    token: str
    payload: object  # the selector's SelectionReport template
    warm: Dict[Hashable, List[object]] = field(
        default_factory=dict, compare=False, repr=False
    )


class PlanCache:
    """Capacity-bounded LRU keyed by graph fingerprint, with per-key
    single-flight locking around the compute path."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._inflight: Dict[str, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._collisions = 0
        self._evictions = 0
        self._warm_checkouts = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, key: str, token: str) -> Optional[CacheEntry]:
        """Non-computing probe (used by tests and stats endpoints)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.token == token:
                return entry
            return None

    def get_or_compute(
        self, key: str, token: str, compute: Callable[[], object]
    ) -> Tuple[object, bool]:
        """Return ``(payload, hit)`` for this fingerprint.

        Exactly one caller computes a missing key; concurrent callers
        for the same key block until the leader publishes (or fails, in
        which case one waiter is promoted to leader).  A key hit whose
        token mismatches is a **collision**: the payload is recomputed
        for this request and the call is a miss — the existing entry is
        left in place for the graph that legitimately owns the key.
        """
        while True:
            event: Optional[threading.Event] = None
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    if entry.token == token:
                        self._entries.move_to_end(key)
                        self._hits += 1
                        return entry.payload, True
                    # same key, different structure: never serve this plan
                    self._collisions += 1
                    self._misses += 1
                    collision = True
                else:
                    collision = False
                    event = self._inflight.get(key)
                    if event is None:
                        self._inflight[key] = threading.Event()
            if collision:
                return compute(), False
            if event is not None:
                event.wait(_WAIT_SLICE_SECONDS)
                continue
            # leader: compute outside the lock, publish, wake waiters
            try:
                payload = compute()
            except BaseException:
                with self._lock:
                    stale = self._inflight.pop(key, None)
                if stale is not None:
                    stale.set()  # a waiter re-checks and takes over
                raise
            with self._lock:
                self._misses += 1
                self._entries[key] = CacheEntry(key, token, payload)
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
                done = self._inflight.pop(key, None)
            if done is not None:
                done.set()
            return payload, False

    # ------------------------------------------------------------------
    # Warm execution state (see the module docstring)
    # ------------------------------------------------------------------
    def checkout(self, key: str, token: str, owner: Hashable):
        """Pop one of ``owner``'s states off the live entry for this
        fingerprint, or ``None``.  The caller owns it until it checks it
        back in (or drops it)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.token != token:
                return None
            states = entry.warm.get(owner)
            if not states:
                return None
            self._warm_checkouts += 1
            return states.pop()

    def checkin(
        self, key: str, token: str, owner: Hashable, state, limit: int
    ) -> None:
        """Push ``state`` for ``owner`` onto the live entry for this
        fingerprint; dropped when the entry is gone or the owner already
        has ``limit`` states stored."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.token != token:
                return
            states = entry.warm.setdefault(owner, [])
            if len(states) < limit:
                states.append(state)

    def drop_warm_states(self) -> None:
        """Forget every checked-in state (the entries stay)."""
        with self._lock:
            for entry in self._entries.values():
                entry.warm.clear()

    # ------------------------------------------------------------------
    # Durable-state support
    # ------------------------------------------------------------------
    def export_entries(self) -> list:
        """Published entries in LRU order (oldest first) as
        ``(key, token, payload)`` triples — the warm-start snapshot."""
        with self._lock:
            return [
                (e.key, e.token, e.payload) for e in self._entries.values()
            ]

    def seed(self, entries) -> int:
        """Pre-publish ``(key, token, payload)`` triples (warm start).

        Existing keys are left alone — live state beats a snapshot.
        Insertion preserves the given order under the LRU bound, so when
        a snapshot exceeds capacity the *newest* entries survive.
        Returns the count inserted.
        """
        inserted = 0
        with self._lock:
            for key, token, payload in entries:
                if key in self._entries:
                    continue
                self._entries[key] = CacheEntry(key, token, payload)
                inserted += 1
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        return inserted

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            total = self._hits + self._misses
            return {
                "capacity": float(self.capacity),
                "size": float(len(self._entries)),
                "hits": float(self._hits),
                "misses": float(self._misses),
                "collisions": float(self._collisions),
                "evictions": float(self._evictions),
                "hit_rate": self._hits / total if total else 0.0,
                "warm_states": float(
                    sum(
                        len(states)
                        for entry in self._entries.values()
                        for states in entry.warm.values()
                    )
                ),
                "warm_checkouts": float(self._warm_checkouts),
            }
