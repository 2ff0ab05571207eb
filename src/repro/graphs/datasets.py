"""Dataset stand-ins mirroring the paper's evaluation graphs (Table II).

Each entry reproduces the *structure class* of one evaluation graph at a
scaled-down size, so that the whole evaluation runs on one CPU:

====  ==================  ===========================  ======================
Code  Paper graph         Structure class              Stand-in generator
====  ==================  ===========================  ======================
RD    Reddit              dense power-law              R-MAT, high avg degree
CA    com-Amazon          sparse communities           stochastic block model
MC    mycielskian17       very dense, triangle-free    exact Mycielskian M_k
BL    belgium_osm         road network                 2-D mesh w/ diagonals
AU    coAuthorsCiteseer   overlapping collaborations   random clique union
OP    ogbn-products       large power-law              R-MAT, mid avg degree
====  ==================  ===========================  ======================

The cost-model *training* pool (`training_graphs`) is disjoint from these,
matching the paper's train/test split over SuiteSparse graphs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .generators import (
    barabasi_albert,
    erdos_renyi,
    mycielskian,
    overlapping_cliques,
    rmat,
    road_mesh,
    sbm_communities,
)
from .graph import Graph

__all__ = [
    "EVALUATION_CODES",
    "load",
    "load_all",
    "training_graphs",
    "make_node_features",
    "train_val_test_masks",
]

# Scale factors: "small" for unit tests, "default" for the benchmark sweep.
_SCALES = {"small": 0.125, "default": 1.0}


def _reddit_like(scale: float) -> Graph:
    n = max(256, int(4096 * scale))
    g = rmat(n, avg_degree=100 * max(scale, 0.25), seed=11, name="reddit_like")
    return g


def _com_amazon_like(scale: float) -> Graph:
    n = max(256, int(8192 * scale))
    g = sbm_communities(n, num_communities=16, avg_degree=6.5, seed=22)
    g.name = "com_amazon_like"
    return g


def _mycielskian_like(scale: float) -> Graph:
    k = 12 if scale >= 1.0 else 9
    g = mycielskian(k)
    g.name = "mycielskian_like"
    return g


def _belgium_osm_like(scale: float) -> Graph:
    n = max(256, int(16384 * scale))
    g = road_mesh(n, diagonal_prob=0.08, seed=33)
    g.name = "belgium_osm_like"
    return g


def _coauthors_like(scale: float) -> Graph:
    n = max(256, int(4096 * scale))
    g = overlapping_cliques(n, clique_size=12, cliques_per_node=1.5, seed=44)
    g.name = "coauthors_like"
    return g


def _ogbn_products_like(scale: float) -> Graph:
    n = max(256, int(16384 * scale))
    g = rmat(n, avg_degree=50 * max(scale, 0.25), seed=55, name="ogbn_products_like")
    return g


_LOADERS: Dict[str, Callable[[float], Graph]] = {
    "RD": _reddit_like,
    "CA": _com_amazon_like,
    "MC": _mycielskian_like,
    "BL": _belgium_osm_like,
    "AU": _coauthors_like,
    "OP": _ogbn_products_like,
}

EVALUATION_CODES: Tuple[str, ...] = tuple(_LOADERS)

_CACHE: Dict[Tuple[str, str], Graph] = {}


def load(code: str, scale: str = "default") -> Graph:
    """Load one evaluation graph by its Table II code (cached)."""
    code = code.upper()
    if code not in _LOADERS:
        raise KeyError(f"unknown graph code {code!r}; choices: {EVALUATION_CODES}")
    if scale not in _SCALES:
        raise KeyError(f"unknown scale {scale!r}; choices: {tuple(_SCALES)}")
    key = (code, scale)
    if key not in _CACHE:
        _CACHE[key] = _LOADERS[code](_SCALES[scale])
    return _CACHE[key]


def load_all(scale: str = "default") -> List[Graph]:
    """All six evaluation graphs in Table II order."""
    return [load(code, scale) for code in EVALUATION_CODES]


def training_graphs(scale: str = "default", seed: int = 7) -> List[Graph]:
    """The disjoint pool used to train the cost models (paper §V).

    Spans the same density/skew regimes as the evaluation graphs but with
    different generators/seeds — no overlap with `load_all`.
    """
    s = _SCALES[scale]
    rng = np.random.default_rng(seed)
    pool: List[Graph] = []
    # Size bases bracket the evaluation graphs (tree-based cost models
    # interpolate well but extrapolate poorly, so the profiled pool must
    # cover the size/density ranges seen at selection time — the paper's
    # pool likewise spans 1M-100M nonzeros around its evaluation set).
    bases = [
        max(128, int(1024 * s)),
        max(256, int(4096 * s)),
        max(512, int(20480 * s)),
    ]
    for b, base in enumerate(bases):
        for i, avg_deg in enumerate([4, 24, 120]):
            pool.append(
                rmat(
                    base,
                    avg_degree=avg_deg,
                    seed=100 + 10 * b + i,
                    name=f"train_rmat_n{base}_d{avg_deg}",
                )
            )
        g = erdos_renyi(base, avg_degree=8, seed=200 + b)
        g.name = f"train_er_n{base}"
        pool.append(g)
    mid = bases[1]
    g = road_mesh(mid, diagonal_prob=0.15, seed=300)
    g.name = "train_mesh"
    pool.append(g)
    g = barabasi_albert(max(128, mid // 2), attach=8, seed=400)
    g.name = "train_ba"
    pool.append(g)
    g = overlapping_cliques(mid, clique_size=8, cliques_per_node=1.0, seed=500)
    g.name = "train_cliques"
    pool.append(g)
    g = mycielskian(11 if s >= 1.0 else 9)
    g.name = "train_mycielskian"
    pool.append(g)
    g = sbm_communities(mid, num_communities=8, avg_degree=12, seed=600)
    g.name = "train_sbm"
    pool.append(g)
    rng.shuffle(pool)
    return pool


# Node counts of the host pool, per scale: they bracket the sizes the
# engine prices on the host (a few hundred to ~10 000 nodes), since a tree
# fitted to measured times extrapolates no better than one fitted to
# simulated ones.
_HOST_NODES = {
    "small": (300, 1200, 4000),
    "default": (300, 700, 1500, 3000, 6000, 12000),
}


def host_training_graphs(scale: str = "default", seed: int = 90_000) -> List[Graph]:
    """The pool the host (``cpu``) cost models are timed on.

    Every family the engine meets on this host at every pool size: skewed
    R-MAT at two densities, uniform Erdős–Rényi, a regular road mesh,
    planted communities and preferential attachment.  Seeds start at
    ``seed``, far from the small seeds examples and benchmarks draw their
    inputs from, and nothing here changes :func:`training_graphs`, the
    pool the analytic devices are profiled on.
    """
    pool: List[Graph] = []
    for i, n in enumerate(_HOST_NODES[scale]):
        base = seed + 10 * i
        families = (
            rmat(n, avg_degree=8, seed=base, name=f"host_rmat_n{n}_d8"),
            rmat(n, avg_degree=24, seed=base + 1, name=f"host_rmat_n{n}_d24"),
            erdos_renyi(n, avg_degree=12, seed=base + 2),
            road_mesh(n, diagonal_prob=0.1, seed=base + 3),
            sbm_communities(n, num_communities=12, avg_degree=24, seed=base + 4),
            barabasi_albert(n, attach=6, seed=base + 5),
        )
        for family, graph in zip(("rmat8", "rmat24", "er", "mesh", "sbm", "ba"), families):
            graph.name = f"host_{family}_n{n}"
            pool.append(graph)
    return pool


def make_node_features(
    graph: Graph, dim: int, seed: int = 0, num_classes: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded node features + labels with a learnable planted signal.

    Labels come from the graph's planted communities when available,
    otherwise from a degree-quantile split; features are class-conditional
    Gaussians so even a linear model can beat chance, as with real
    attributed graphs.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    if graph.labels is not None:
        labels = np.asarray(graph.labels, dtype=np.int64)
        num_classes = int(labels.max()) + 1 if num_classes is None else num_classes
        labels = labels % num_classes
    else:
        num_classes = num_classes or 8
        deg = graph.degrees()
        quantiles = np.quantile(deg, np.linspace(0, 1, num_classes + 1)[1:-1])
        labels = np.searchsorted(quantiles, deg).astype(np.int64)
    centers = rng.standard_normal((num_classes, dim))
    feats = centers[labels] + 0.8 * rng.standard_normal((n, dim))
    return feats, labels


def train_val_test_masks(
    n: int, seed: int = 0, fractions: Tuple[float, float] = (0.6, 0.2)
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random 60/20/20 node masks for transductive training."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(fractions[0] * n)
    n_val = int(fractions[1] * n)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:n_train]] = True
    val[perm[n_train : n_train + n_val]] = True
    test[perm[n_train + n_val :]] = True
    return train, val, test
