"""Hierarchical (pooling) GNN over a coarsening hierarchy, with GRANII.

A graph-classification-style pipeline: run a GCN layer on the input
graph, mean-pool node states onto a coarsened graph, run another GCN
layer there, and read out a global embedding.  Each level's graph has a
different density, so GRANII's per-level decisions can differ — the
changing-sparsity scenario of the paper's §VI-F discussion.

Run:  python examples/hierarchical_pooling.py [small]
"""

import argparse

import numpy as np

import repro
from repro.graphs import coarsen, load, make_node_features
from repro.models import GCNLayer
from repro.tensor import spmm as t_spmm


def main(scale: str = "default") -> None:
    graph = load("RD", scale)  # dense power-law graph
    feats, _ = make_node_features(graph, dim=64, seed=0)
    level = coarsen(graph)
    coarse = level.graph
    print(f"level 0: {graph}")
    print(f"level 1: {coarse}  (avg degree {coarse.avg_degree:.1f} "
          f"vs {graph.avg_degree:.1f})")

    rng = np.random.default_rng(0)
    layer0 = GCNLayer(64, 32, rng=rng)
    layer1 = GCNLayer(32, 16, rng=rng)

    # GRANII decides per (layer, level-graph) — only its online stage
    # re-runs for the second level.
    rep0 = repro.GRANII(layer0, graph, feats, device="h100", system="dgl", scale=scale)
    rep1 = repro.GRANII(layer1, coarse, None, device="h100", system="dgl", scale=scale)
    print("\nlevel-0 layer:", rep0.selections[0].label)
    print("level-1 layer:", rep1.selections[0].label)

    # forward through the hierarchy
    h0 = layer0(graph, feats)
    pooled = t_spmm(level.pool_matrix(), h0)  # mean-pool onto coarse nodes
    h1 = layer1(coarse, pooled)
    graph_embedding = h1.data.mean(axis=0)
    print(f"\ngraph embedding (16-d), norm {np.linalg.norm(graph_embedding):.3f}")
    assert np.all(np.isfinite(graph_embedding))

    # the decisions may legitimately differ across levels — print why
    if rep0.selections[0].label != rep1.selections[0].label:
        print("GRANII adapted the composition to the coarser level's density.")
    else:
        print("Both levels fall on the same side of the composition boundary.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", default="default", choices=("default", "small"),
        help="dataset scale (small: scaled-down graphs)",
    )
    main(parser.parse_args().scale)
