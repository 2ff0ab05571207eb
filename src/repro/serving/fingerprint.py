"""Graph fingerprints: the plan cache's keys and collision guards.

SENSEi's lesson (PAPERS.md) is that input-sensitive selection only pays
when its overhead is amortised across repeat inputs.  The serving
runtime amortises by keying selected plans on a **fingerprint** of the
request's graph: the hash of the featurizer output — the exact vector
the cost models consume, so two graphs with identical features would
receive identical selections anyway — plus the model identity and
embedding sizes that scope the candidate set.

A hash key alone is not a correctness boundary: two *structurally
different* graphs could collide (adversarially, or by featurizer
coarseness), and serving a plan compiled for a weighted adjacency to an
unweighted one (or across different embedding widths) computes the
wrong function.  Each fingerprint therefore also carries a structural
``token`` — a digest of the CSR arrays themselves — which the cache
verifies on every hit; a key match with a token mismatch is treated as
a miss, never a hit (see :class:`repro.serving.cache.PlanCache`).

Edge *values* are deliberately excluded from the token: plan selection
depends on the sparsity pattern and the weighted/unweighted dichotomy,
not on the numbers, so same-structure graphs with different weights
share cached plans (values flow in at execution time via the binding).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.features import inspect_graph

__all__ = ["GraphFingerprint", "fingerprint_graph"]


@dataclass(frozen=True)
class GraphFingerprint:
    """Cache key plus the structural token verified on every hit."""

    key: str  # featurizer-output hash: what the cache indexes by
    token: str  # CSR-structure digest: what a hit must re-verify


def fingerprint_graph(
    graph, model_name: str, in_size: int, out_size: int, cost_token: str = ""
) -> GraphFingerprint:
    """Fingerprint one (graph, model, sizes) serving request.

    The first fingerprint of an adjacency object is O(N+E): one
    featurizer pass (:func:`repro.core.features.inspect_graph`) plus one
    digest over ``indptr``/``indices`` (``CSRMatrix.pattern_sha1``).
    Both results are kept on the matrix, so after that — the same
    ``Graph`` resubmitted, another ``Graph`` wrapping the same adjacency,
    or a ``with_values`` re-weighting of it — only the few bytes of
    per-request scope are hashed.  Keeping them assumes what every
    ``CSRMatrix`` memo assumes: the pattern arrays are not written after
    construction.

    ``cost_token`` versions the *selector*, not the graph: a caller whose
    selector can come to price plans differently passes a token that
    changes with it, so plans chosen under the old prices are recomputed
    instead of served stale.  The service passes none, and the empty
    token leaves the key as if there were no such scope.
    """
    adj = graph.adj
    weighted = bool(adj.is_weighted)
    scope = (
        f"|{model_name}|{int(in_size)}|{int(out_size)}|{int(weighted)}"
        + (f"|cm:{cost_token}" if cost_token else "")
    )

    key_digest = hashlib.sha1(inspect_graph(graph).tobytes())
    key_digest.update(scope.encode())

    token_digest = adj.pattern_sha1().copy()
    token_digest.update(f"{scope}|{adj.shape[0]}x{adj.shape[1]}".encode())

    return GraphFingerprint(
        key=key_digest.hexdigest(), token=token_digest.hexdigest()
    )
