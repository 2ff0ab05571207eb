"""Mini-batch GraphSAGE with neighborhood sampling and GRANII (§VI-E).

Trains GraphSAGE on sampled blocks of a products-like graph, then shows
the paper's sampling finding: GRANII's composition decision, made once
per sampling size, agrees with the per-sample winner across random
neighborhood samples — so sampled training needs no per-batch
re-inspection.

Run:  python examples/sampling_graphsage.py [small]
"""

import argparse

import numpy as np

from repro.core import GraniiEngine, compile_model
from repro.core.features import featurize_graph
from repro.experiments.common import measured_plan_time, shape_env_for
from repro.framework import get_system
from repro.graphs import (
    load,
    make_node_features,
    sample_blocks,
    sample_fanout,
)
from repro.hardware import GraphStats, get_device
from repro.models import SAGELayer
from repro.tensor import Adam, Tensor, cross_entropy, gather_rows


def train_sampled_sage(graph, feats, labels, epochs: int = 3) -> float:
    """Mini-batch training over sampled blocks; returns final accuracy."""
    rng = np.random.default_rng(0)
    num_classes = int(labels.max()) + 1
    layer = SAGELayer(feats.shape[1], num_classes, activation=False,
                      rng=np.random.default_rng(3))
    opt = Adam(layer.parameters(), lr=0.02)
    x = Tensor(feats)
    batch = 256
    for epoch in range(epochs):
        perm = rng.permutation(graph.num_nodes)
        losses = []
        for start in range(0, min(graph.num_nodes, 2048), batch):
            seeds = perm[start:start + batch]
            blocks = sample_blocks(graph, seeds, fanouts=[10], rng=rng)
            block = blocks[0]
            opt.zero_grad()
            block_feat = gather_rows(x, block.input_nodes)
            logits = layer.forward_block(block, block_feat)
            loss = cross_entropy(logits, labels[block.output_nodes])
            loss.backward()
            opt.step()
            losses.append(loss.item())
        print(f"epoch {epoch}: mean batch loss {np.mean(losses):.4f}")
    full_logits = layer(graph, x)
    return float((np.argmax(full_logits.data, axis=1) == labels).mean())


def sampling_decision_study(graph, scale: str = "default") -> None:
    """GRANII's GCN decision across neighborhood-sampling sizes."""
    engine = GraniiEngine(device="h100", system="dgl", scale=scale)
    compiled = compile_model("gcn")
    dynamic = compiled.find(norm="dynamic", order="agg_first")[0]
    precompute = compiled.find(norm="precompute", order="agg_first")[0]
    device = get_device("h100")
    system = get_system("dgl")
    rng = np.random.default_rng(1)
    print("\nGRANII decision vs true winner on neighborhood samples:")
    print(f"{'fanout':>8s} {'dynamic':>12s} {'precompute':>12s} {'winner':>10s} {'GRANII':>8s}")
    for fanout in (1000, 100, 10):
        sub = sample_fanout(graph, fanout, rng)
        env = shape_env_for(sub, "gcn", 32, 256)
        stats = GraphStats.from_graph(sub)
        t_dyn = measured_plan_time(dynamic.plan, env, device, system, stats)
        t_pre = measured_plan_time(precompute.plan, env, device, system, stats)
        vec = featurize_graph(sub)
        pred_dyn = engine.predict_plan_cost(dynamic.plan, env, vec)
        pred_pre = engine.predict_plan_cost(precompute.plan, env, vec)
        winner = "dynamic" if t_dyn <= t_pre else "precomp"
        choice = "dynamic" if pred_dyn <= pred_pre else "precomp"
        print(
            f"{fanout:8d} {1e3 * t_dyn:11.3f}m {1e3 * t_pre:11.3f}m "
            f"{winner:>10s} {choice:>8s}"
        )


def main(scale: str = "default") -> None:
    graph = load("OP", scale)  # ogbn-products-like
    feats, labels = make_node_features(graph, dim=64, seed=4, num_classes=8)
    print(f"graph: {graph}")
    acc = train_sampled_sage(graph, feats, labels)
    print(f"full-graph accuracy after sampled training: {acc:.3f}")
    assert acc > 1.5 / 8
    sampling_decision_study(graph, scale)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", default="default", choices=("default", "small"),
        help="dataset scale (small: scaled-down graphs)",
    )
    main(parser.parse_args().scale)
