"""Graph coarsening — the changing-sparsity-across-layers substrate.

§VI-F of the paper notes that while the evaluated models keep the
adjacency fixed across layers, classes of GNNs exist whose layer inputs
change sparsity (hierarchical/pooling models); GRANII handles them by
re-running only its online component per layer.  This module provides
that substrate: heavy-edge-matching coarsening, producing a hierarchy of
progressively smaller and *denser* graphs, plus the projection matrices
that move node features between levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..sparse import CSRMatrix
from .graph import Graph

__all__ = ["CoarseLevel", "coarsen", "coarsen_hierarchy"]


@dataclass
class CoarseLevel:
    """One coarsening step: the coarse graph plus the node assignment."""

    graph: Graph
    # membership[v] = coarse node id of fine node v
    membership: np.ndarray

    @property
    def num_coarse_nodes(self) -> int:
        return self.graph.num_nodes

    def pool_matrix(self) -> CSRMatrix:
        """The (coarse × fine) mean-pooling matrix P with P·X pooling
        fine node features into coarse node features."""
        fine = self.membership.shape[0]
        counts = np.bincount(self.membership, minlength=self.num_coarse_nodes)
        values = 1.0 / counts[self.membership]
        return CSRMatrix.from_coo(
            self.membership,
            np.arange(fine, dtype=np.int64),
            values,
            (self.num_coarse_nodes, fine),
        )


def _heavy_edge_matching(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Greedy matching: each unmatched node pairs with an unmatched
    neighbor (highest-degree-first visit order), isolated/unmatched nodes
    become singletons."""
    n = graph.num_nodes
    adj = graph.adj
    match = -np.ones(n, dtype=np.int64)
    visit = np.argsort(graph.degrees(), kind="stable")[::-1]
    for node in visit:
        if match[node] >= 0:
            continue
        start, stop = adj.indptr[node], adj.indptr[node + 1]
        partner = -1
        for neighbor in adj.indices[start:stop]:
            if match[neighbor] < 0 and neighbor != node:
                partner = int(neighbor)
                break
        if partner >= 0:
            match[node] = partner
            match[partner] = node
        else:
            match[node] = node
    # assign coarse ids
    membership = -np.ones(n, dtype=np.int64)
    next_id = 0
    for node in range(n):
        if membership[node] >= 0:
            continue
        membership[node] = next_id
        membership[match[node]] = next_id
        next_id += 1
    return membership


def coarsen(graph: Graph, seed: int = 0) -> CoarseLevel:
    """One heavy-edge-matching coarsening step (roughly halves the nodes).

    Coarse edges are the union of fine edges between distinct coarse
    nodes (self-edges collapse away); the coarse graph is denser than the
    fine one, which is what flips composition decisions across levels.
    """
    rng = np.random.default_rng(seed)
    membership = _heavy_edge_matching(graph, rng)
    num_coarse = int(membership.max()) + 1
    rows, cols, _ = graph.adj.to_coo()
    c_rows = membership[rows]
    c_cols = membership[cols]
    keep = c_rows != c_cols
    coarse_adj = CSRMatrix.from_coo(
        c_rows[keep], c_cols[keep], None, (num_coarse, num_coarse)
    ).unweighted()
    coarse = Graph(coarse_adj, name=f"{graph.name}|coarse{num_coarse}")
    return CoarseLevel(coarse, membership)


def coarsen_hierarchy(
    graph: Graph, levels: int, seed: int = 0, min_nodes: int = 8
) -> List[CoarseLevel]:
    """A hierarchy of ``levels`` coarsening steps (stops early if tiny)."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    out: List[CoarseLevel] = []
    current = graph
    for i in range(levels):
        if current.num_nodes <= min_nodes:
            break
        level = coarsen(current, seed=seed + i)
        out.append(level)
        current = level.graph
    if not out:
        raise ValueError("graph too small to coarsen")
    return out
