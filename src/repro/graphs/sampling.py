"""Graph sampling: node-induced subgraphs and neighborhood sampling.

Two uses in the paper: (1) §VI-E evaluates GRANII's decision stability on
random samples of sizes 1000/100/10, and (2) GraphSAGE requires
neighborhood (fanout) sampling during training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..sparse import CSRMatrix
from .graph import Graph

__all__ = [
    "sample_nodes",
    "neighbor_sample",
    "sample_fanout",
    "SampledBlock",
    "sample_blocks",
]


def sample_nodes(graph: Graph, size: int, rng: np.random.Generator) -> Graph:
    """A uniformly random node-induced subgraph of the given size."""
    size = min(size, graph.num_nodes)
    nodes = rng.choice(graph.num_nodes, size=size, replace=False)
    return graph.induced_subgraph(np.sort(nodes))


def neighbor_sample(
    adj: CSRMatrix, seeds: np.ndarray, fanout: int, rng: np.random.Generator
) -> CSRMatrix:
    """Sample up to ``fanout`` in-neighbors per seed.

    Returns a bipartite (len(seeds) × adj.ncols) CSR block whose row ``i``
    holds the sampled neighborhood of ``seeds[i]`` — the building block of
    GraphSAGE mini-batch training.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    out_rows: List[np.ndarray] = []
    out_cols: List[np.ndarray] = []
    for i, s in enumerate(seeds):
        start, stop = adj.indptr[s], adj.indptr[s + 1]
        neigh = adj.indices[start:stop]
        if neigh.shape[0] > fanout:
            neigh = rng.choice(neigh, size=fanout, replace=False)
        out_rows.append(np.full(neigh.shape[0], i, dtype=np.int64))
        out_cols.append(neigh)
    rows = np.concatenate(out_rows) if out_rows else np.empty(0, np.int64)
    cols = np.concatenate(out_cols) if out_cols else np.empty(0, np.int64)
    return CSRMatrix.from_coo(
        rows, cols, None, (seeds.shape[0], adj.shape[1]), sum_duplicates=False
    )


def sample_fanout(graph: Graph, fanout: int, rng: np.random.Generator) -> Graph:
    """A neighborhood-sampled copy: every node keeps ≤ ``fanout`` in-edges.

    This is the §VI-E sampling regime (sizes 1000/100/10): the node set is
    unchanged but each destination's neighborhood is capped, thinning
    dense graphs dramatically while leaving sparse ones nearly intact.
    """
    sampled = neighbor_sample(
        graph.adj, np.arange(graph.num_nodes, dtype=np.int64), fanout, rng
    )
    out = Graph(sampled, name=f"{graph.name}~fanout{fanout}")
    out.node_features = graph.node_features
    out.labels = graph.labels
    return out


@dataclass
class SampledBlock:
    """One layer's sampled computation block.

    ``adj`` maps input nodes (columns) to output nodes (rows); ``input_nodes``
    and ``output_nodes`` give the original node ids of columns and rows.
    """

    adj: CSRMatrix
    input_nodes: np.ndarray
    output_nodes: np.ndarray


def sample_blocks(
    graph: Graph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> List[SampledBlock]:
    """Multi-layer neighborhood sampling (innermost block first).

    Mirrors DGL's block sampling: starting from the seed nodes, each layer
    samples ``fanouts[l]`` neighbors, and blocks are returned in forward
    execution order (layer 0 consumes raw features).
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    blocks: List[SampledBlock] = []
    current = seeds
    for fanout in reversed(list(fanouts)):
        sampled = neighbor_sample(graph.adj, current, fanout, rng)
        # Include the seeds themselves so self-information survives
        # (the usual add-self-loop of sampled GCN aggregation).
        input_nodes = np.unique(np.concatenate([sampled.indices, current]))
        remap = -np.ones(graph.num_nodes, dtype=np.int64)
        remap[input_nodes] = np.arange(input_nodes.shape[0])
        block_adj = CSRMatrix(
            sampled.indptr,
            remap[sampled.indices],
            None,
            (current.shape[0], input_nodes.shape[0]),
        )
        blocks.append(SampledBlock(block_adj, input_nodes, current))
        current = input_nodes
    blocks.reverse()
    return blocks
