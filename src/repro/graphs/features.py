"""Structural graph features for GRANII's input featurizer (paper §IV-E1).

The featurizer must be cheap — it runs once per input graph at runtime and
its cost is part of GRANII's reported overhead — so every feature below is
O(N + E) and vectorised.  The features capture exactly the attributes the
paper argues drive primitive cost: size, density, degree distribution
shape (skew/imbalance matters for scatter/atomic kernels), and locality.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .graph import Graph

__all__ = ["GRAPH_FEATURE_NAMES", "graph_feature_vector", "graph_feature_dict"]

GRAPH_FEATURE_NAMES: List[str] = [
    "log_nodes",
    "log_edges",
    "log_density",
    "avg_degree",
    "log_avg_degree",
    "max_degree_ratio",
    "degree_cv",
    "degree_gini",
    "frac_isolated",
    "frac_high_degree",
    "bandwidth_ratio",
    "row_imbalance",
]


def _gini(sorted_vals: np.ndarray) -> float:
    """Gini coefficient of non-negative values sorted ascending (degree
    inequality)."""
    if sorted_vals.size == 0:
        return 0.0
    total = sorted_vals.sum()
    if total == 0:
        return 0.0
    n = sorted_vals.size
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * sorted_vals).sum() - (n + 1) * total) / (n * total))


def graph_feature_dict(graph: Graph) -> Dict[str, float]:
    """All structural features as a name -> value mapping.

    One pass per fact: the degrees are the adjacency's memoised row
    degrees, sorted once for the maximum, the busiest rows and the Gini
    coefficient, and the row ids are the adjacency's memoised ones.
    """
    n = graph.num_nodes
    m = graph.num_edges
    deg = graph.degrees().astype(np.float64)
    ordered = np.sort(deg)
    avg = m / n if n else 0.0
    max_deg = float(ordered[-1]) if n else 0.0
    std = float(deg.std()) if n else 0.0
    adj = graph.adj
    if m:
        spread = adj.row_ids() - adj.indices
        bandwidth = float(np.abs(spread, out=spread).mean())
    else:
        bandwidth = 0.0
    # Load imbalance of the CSR rows: share of edges owned by the busiest
    # 1% of rows — what atomics-based kernels serialise on.  Degrees are
    # whole numbers, so their sum is exact in any order.
    if n and m:
        top = max(1, n // 100)
        row_imbalance = float(ordered[n - top :].sum() / m)
    else:
        row_imbalance = 0.0
    return {
        "log_nodes": float(np.log1p(n)),
        "log_edges": float(np.log1p(m)),
        "log_density": float(np.log(m / (n * n))) if n and m else -30.0,
        "avg_degree": float(avg),
        "log_avg_degree": float(np.log1p(avg)),
        "max_degree_ratio": float(max_deg / avg) if avg else 0.0,
        "degree_cv": float(std / avg) if avg else 0.0,
        "degree_gini": _gini(ordered),
        "frac_isolated": float((deg == 0).mean()) if n else 0.0,
        "frac_high_degree": float((deg > 4 * avg).mean()) if avg else 0.0,
        "bandwidth_ratio": float(bandwidth / n) if n else 0.0,
        "row_imbalance": row_imbalance,
    }


def graph_feature_vector(graph: Graph) -> np.ndarray:
    """Features in ``GRAPH_FEATURE_NAMES`` order, as a float vector."""
    d = graph_feature_dict(graph)
    return np.array([d[name] for name in GRAPH_FEATURE_NAMES])
