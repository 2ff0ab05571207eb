"""Synthetic graph generators.

These generators replace the paper's SuiteSparse/DGL/OGB downloads.  Each
one targets a *structure class* that drives GRANII's decisions differently:
density, degree skew, and locality are the attributes its featurizer and
cost models consume, so the generators are parameterised to span the same
regimes as the paper's evaluation graphs (Table II).

All generators return an undirected, unweighted :class:`Graph` with a
symmetric adjacency pattern and no self-loops (models add Ã = A + I
themselves, as in the paper).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sparse import COOMatrix
from .graph import Graph

__all__ = [
    "erdos_renyi",
    "rmat",
    "barabasi_albert",
    "road_mesh",
    "mycielskian",
    "sbm_communities",
    "overlapping_cliques",
    "star",
    "path",
    "complete",
    "empty_graph",
    "single_node",
    "isolated_union",
    "self_loop_cycle",
    "duplicated_edges",
    "disconnected_cliques",
]


def _finalize(src: np.ndarray, dst: np.ndarray, n: int, name: str) -> Graph:
    """Symmetrize, deduplicate and drop self-loops."""
    keep = src != dst
    coo = COOMatrix.from_edges(src[keep], dst[keep], n, symmetrize=True)
    return Graph(coo.to_csr().unweighted(), name=name)


def erdos_renyi(n: int, avg_degree: float, seed: int = 0) -> Graph:
    """G(n, m) uniform random graph with the requested average degree."""
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return _finalize(src, dst, n, f"er_{n}")


def rmat(
    n: int,
    avg_degree: float,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    name: Optional[str] = None,
) -> Graph:
    """Recursive-matrix (R-MAT) generator — skewed power-law graphs.

    The (a, b, c, d) quadrant probabilities control skew; the defaults are
    the classic Graph500 parameters, giving Reddit/ogbn-products-like
    degree distributions.
    """
    rng = np.random.default_rng(seed)
    scale = int(np.ceil(np.log2(max(n, 2))))
    size = 1 << scale
    m = int(n * avg_degree / 2)
    probs = np.array([a, b, c, 1.0 - a - b - c])
    if np.any(probs < 0):
        raise ValueError("quadrant probabilities must be non-negative")
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        quad = rng.choice(4, size=m, p=probs)
        half = size >> (level + 1)
        src += np.where((quad == 2) | (quad == 3), half, 0)
        dst += np.where((quad == 1) | (quad == 3), half, 0)
    # Fold indices beyond n back into range to keep exactly n nodes.
    src %= n
    dst %= n
    return _finalize(src, dst, n, name or f"rmat_{n}")


def barabasi_albert(n: int, attach: int, seed: int = 0) -> Graph:
    """Preferential attachment — power-law with milder skew than R-MAT."""
    if attach < 1 or attach >= n:
        raise ValueError("attach must be in [1, n)")
    rng = np.random.default_rng(seed)
    # Repeated-endpoint list trick: sampling uniformly from the endpoint
    # list is equivalent to degree-proportional sampling.
    endpoints = list(range(attach + 1)) * 2
    src_list = []
    dst_list = []
    for v in range(attach + 1, n):
        targets = rng.choice(len(endpoints), size=attach, replace=False)
        chosen = {endpoints[t] for t in targets}
        for u in chosen:
            src_list.append(v)
            dst_list.append(u)
            endpoints.append(u)
            endpoints.append(v)
    return _finalize(
        np.array(src_list, dtype=np.int64),
        np.array(dst_list, dtype=np.int64),
        n,
        f"ba_{n}",
    )


def road_mesh(n: int, diagonal_prob: float = 0.1, seed: int = 0) -> Graph:
    """A 2-D grid with occasional diagonals — belgium_osm-like road network.

    Low, nearly-uniform degree; huge diameter; tiny density; high locality
    (small bandwidth) — the opposite end of the feature space from R-MAT.
    """
    rng = np.random.default_rng(seed)
    side = int(np.floor(np.sqrt(n)))
    n = side * side
    idx = np.arange(n).reshape(side, side)
    right_src = idx[:, :-1].ravel()
    right_dst = idx[:, 1:].ravel()
    down_src = idx[:-1, :].ravel()
    down_dst = idx[1:, :].ravel()
    diag_src = idx[:-1, :-1].ravel()
    diag_dst = idx[1:, 1:].ravel()
    keep = rng.random(diag_src.shape[0]) < diagonal_prob
    src = np.concatenate([right_src, down_src, diag_src[keep]])
    dst = np.concatenate([right_dst, down_dst, diag_dst[keep]])
    return _finalize(src, dst, n, f"mesh_{side}x{side}")


def mycielskian(k: int) -> Graph:
    """The Mycielskian construction M_k — exactly the paper's MC family.

    Starting from K2 (= M_2), each step maps G=(V,E) with n nodes to a
    graph on 2n+1 nodes: a copy u_i of each v_i connected to v_i's
    neighbors, plus an apex node w adjacent to every u_i.  Triangle-free
    with growing chromatic number, and *extremely dense* for larger k —
    mycielskian17 in the paper has ~1% density at 98k nodes.
    """
    if k < 2:
        raise ValueError("mycielskian is defined for k >= 2")
    src = np.array([0], dtype=np.int64)
    dst = np.array([1], dtype=np.int64)
    n = 2
    for _ in range(k - 2):
        # vertices: 0..n-1 original, n..2n-1 copies, 2n apex
        copy_src = src + n
        copy_dst = dst
        copy_src2 = dst + n
        copy_dst2 = src
        apex_src = np.full(n, 2 * n, dtype=np.int64)
        apex_dst = np.arange(n, 2 * n, dtype=np.int64)
        src = np.concatenate([src, copy_src, copy_src2, apex_src])
        dst = np.concatenate([dst, copy_dst, copy_dst2, apex_dst])
        n = 2 * n + 1
    return _finalize(src, dst, n, f"mycielskian{k}")


def sbm_communities(
    n: int,
    num_communities: int,
    avg_degree: float,
    p_in_over_p_out: float = 20.0,
    seed: int = 0,
) -> Graph:
    """Stochastic block model — com-Amazon-like community structure.

    Also plants ``labels`` (the community assignment) on the graph so
    end-to-end training examples have a learnable signal.
    """
    rng = np.random.default_rng(seed)
    membership = rng.integers(0, num_communities, size=n)
    m = int(n * avg_degree / 2)
    frac_in = p_in_over_p_out / (p_in_over_p_out + 1.0)
    m_in = int(m * frac_in)
    # Intra-community edges: pick a community weighted by its size, then two
    # members of it.
    order = np.argsort(membership, kind="stable")
    sorted_members = membership[order]
    starts = np.searchsorted(sorted_members, np.arange(num_communities))
    ends = np.searchsorted(sorted_members, np.arange(num_communities), side="right")
    sizes = ends - starts
    comm_probs = sizes / sizes.sum()
    comm = rng.choice(num_communities, size=m_in, p=comm_probs)
    lo, hi = starts[comm], ends[comm]
    src_in = order[lo + (rng.random(m_in) * (hi - lo)).astype(np.int64)]
    dst_in = order[lo + (rng.random(m_in) * (hi - lo)).astype(np.int64)]
    # Inter-community (and a few coincidental intra) edges: uniform pairs.
    m_out = m - m_in
    src_out = rng.integers(0, n, size=m_out)
    dst_out = rng.integers(0, n, size=m_out)
    graph = _finalize(
        np.concatenate([src_in, src_out]),
        np.concatenate([dst_in, dst_out]),
        n,
        f"sbm_{n}",
    )
    graph.labels = membership
    return graph


def overlapping_cliques(
    n: int, clique_size: int, cliques_per_node: float = 1.2, seed: int = 0
) -> Graph:
    """Union of random cliques — coAuthorsCiteseer-like collaboration graph."""
    rng = np.random.default_rng(seed)
    num_cliques = int(n * cliques_per_node / clique_size)
    src_list, dst_list = [], []
    for _ in range(max(num_cliques, 1)):
        size = max(2, int(rng.poisson(clique_size)))
        members = rng.choice(n, size=min(size, n), replace=False)
        iu, ju = np.triu_indices(members.shape[0], k=1)
        src_list.append(members[iu])
        dst_list.append(members[ju])
    return _finalize(
        np.concatenate(src_list), np.concatenate(dst_list), n, f"cliques_{n}"
    )


def star(n: int) -> Graph:
    """Hub node 0 connected to everything — worst-case degree skew."""
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return _finalize(src, dst, n, f"star_{n}")


def path(n: int) -> Graph:
    """A simple path — minimal density, maximal diameter."""
    src = np.arange(n - 1, dtype=np.int64)
    return _finalize(src, src + 1, n, f"path_{n}")


def complete(n: int) -> Graph:
    """K_n — maximal density."""
    iu, ju = np.triu_indices(n, k=1)
    return _finalize(iu.astype(np.int64), ju.astype(np.int64), n, f"k{n}")


# ----------------------------------------------------------------------
# Adversarial generators (differential plan verification, the verify/* entries
# of python -m repro.checks; see repro.core.verify).
#
# Each one targets a structural edge case that has historically broken
# sparse kernels: empty rows, fully empty patterns, explicit self-loops,
# duplicate input edges, and disconnected regions.  They are *inputs* to
# the equivalence battery, not evaluation graphs.
# ----------------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    """``n`` nodes and zero edges — every CSR row is empty."""
    if n < 1:
        raise ValueError("empty_graph needs at least one node")
    return _finalize(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), n, f"empty_{n}"
    )


def single_node() -> Graph:
    """The one-node, zero-edge graph — the smallest valid input."""
    g = empty_graph(1)
    g.name = "single_node"
    return g


def isolated_union(n_connected: int, n_isolated: int, avg_degree: float = 4.0,
                   seed: int = 0) -> Graph:
    """An Erdős–Rényi core plus ``n_isolated`` zero-degree nodes.

    Zero-degree rows exercise empty-segment reductions and zero-degree
    normalisation (``0^-1/2`` must map to 0, not inf).
    """
    core = erdos_renyi(n_connected, avg_degree, seed=seed)
    rows, cols, _ = core.adj.to_coo()
    n = n_connected + n_isolated
    return _finalize(rows, cols, n, f"isolated_{n_connected}+{n_isolated}")


def self_loop_cycle(n: int) -> Graph:
    """A cycle where every node also carries an explicit self-loop.

    The standard generators strip loops (models add Ã = A + I
    themselves); this one keeps them, so ``add_self_loops`` must merge
    rather than duplicate and degree counts include the loop.
    """
    if n < 2:
        raise ValueError("self_loop_cycle needs at least two nodes")
    idx = np.arange(n, dtype=np.int64)
    nxt = (idx + 1) % n
    coo = COOMatrix.from_edges(
        np.concatenate([idx, idx]), np.concatenate([nxt, idx]), n, symmetrize=False
    )
    # symmetrize the cycle edges by hand, keeping exactly one loop per node
    rows = np.concatenate([coo.rows, nxt])
    cols = np.concatenate([coo.cols, idx])
    adj = COOMatrix(rows, cols, None, (n, n)).to_csr().unweighted()
    return Graph(adj, name=f"loops_{n}")


def duplicated_edges(n: int, avg_degree: float = 4.0, copies: int = 3,
                     seed: int = 0) -> Graph:
    """A random graph whose edge list repeats every edge ``copies`` times.

    Duplicate COO input must collapse to a single stored entry per
    coordinate on the unweighted pattern (CSR construction dedups).
    """
    if copies < 2:
        raise ValueError("duplicated_edges wants copies >= 2")
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    src = np.tile(rng.integers(0, n, size=m), copies)
    dst = np.tile(rng.integers(0, n, size=m), copies)
    return _finalize(src, dst, n, f"dup_{n}x{copies}")


def disconnected_cliques(num_components: int, component_size: int) -> Graph:
    """Disjoint K_c components — block-diagonal, reducible adjacency."""
    if num_components < 1 or component_size < 2:
        raise ValueError("need at least one component of size >= 2")
    iu, ju = np.triu_indices(component_size, k=1)
    src_list = []
    dst_list = []
    for c in range(num_components):
        base = c * component_size
        src_list.append(iu.astype(np.int64) + base)
        dst_list.append(ju.astype(np.int64) + base)
    n = num_components * component_size
    return _finalize(
        np.concatenate(src_list), np.concatenate(dst_list), n,
        f"cliques{num_components}x{component_size}",
    )
