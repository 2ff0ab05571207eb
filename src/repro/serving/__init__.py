"""Multi-tenant plan-serving runtime (ROADMAP item 2).

:class:`GraniiService` turns the single-call guarded engine into a
long-lived service: concurrent requests from named tenants pass an
admission gate, bounded per-tenant queues, a fingerprint-keyed plan
cache, per-tenant circuit breakers, and retry/deadline handling around
the guarded fallback ladder.  The :mod:`repro.serving.chaos` scenarios
(``python -m repro.checks --only serving``) drive the whole stack
through multi-tenant failure storms.
"""

from .cache import CacheEntry, PlanCache
from .fingerprint import GraphFingerprint, fingerprint_graph
from .service import (
    GraniiService,
    ModelSpec,
    ServeRequest,
    ServeResult,
    TenantState,
)

__all__ = [
    "CacheEntry",
    "GraniiService",
    "GraphFingerprint",
    "ModelSpec",
    "PlanCache",
    "ServeRequest",
    "ServeResult",
    "TenantState",
    "fingerprint_graph",
]
