"""Citation-network node classification: a full pipeline with GRANII.

A coAuthors-like citation graph, a two-layer GCN, and a side-by-side
comparison of the compositions GRANII exposes — including what each
would cost on different hardware targets, demonstrating why the decision
must be input- and target-aware.

Run:  python examples/citation_gcn_pipeline.py [small]
"""

import argparse

import numpy as np

import repro
from repro.core import compile_model
from repro.experiments.common import measured_plan_time, shape_env_for
from repro.framework import get_system
from repro.graphs import load, make_node_features, train_val_test_masks
from repro.hardware import DEVICE_NAMES, GraphStats, get_device
from repro.models import MultiLayerGNN
from repro.tensor import Adam, Tensor, cross_entropy


def show_composition_costs(graph, in_size: int, out_size: int) -> None:
    """What every promoted GCN composition costs per device."""
    compiled = compile_model("gcn")
    env = shape_env_for(graph, "gcn", in_size, out_size)
    stats = GraphStats.from_graph(graph)
    system = get_system("dgl")
    print(f"\nper-iteration cost of each composition ({in_size}->{out_size}):")
    header = f"{'composition':28s}" + "".join(f"{d:>12s}" for d in DEVICE_NAMES)
    print(header)
    for planned in compiled.promoted:
        times = [
            measured_plan_time(planned.plan, env, get_device(d), system, stats)
            for d in DEVICE_NAMES
        ]
        cells = "".join(f"{1e3 * t:11.3f}m" for t in times)
        print(f"{planned.label:28s}{cells}")


def main(scale: str = "default") -> None:
    graph = load("AU", scale)  # coAuthorsCiteseer-like collaboration graph
    feats, labels = make_node_features(graph, dim=256, seed=2, num_classes=8)
    train_mask, val_mask, test_mask = train_val_test_masks(graph.num_nodes, seed=2)
    print(f"graph: {graph}; {len(np.unique(labels))} classes")

    show_composition_costs(graph, 256, 64)

    model = MultiLayerGNN("gcn", [256, 64, 8], rng=np.random.default_rng(1))
    report = repro.GRANII(
        model, graph, feats, labels, device="h100", system="dgl", scale=scale
    )
    print("\nGRANII selections:")
    print(report.describe())

    opt = Adam(model.parameters(), lr=0.01)
    x = Tensor(feats)
    best_val, best_state = 0.0, None
    for epoch in range(40):
        opt.zero_grad()
        logits = model(graph, x)
        loss = cross_entropy(logits, labels, train_mask)
        loss.backward()
        opt.step()
        pred = np.argmax(logits.data, axis=1)
        val_acc = (pred[val_mask] == labels[val_mask]).mean()
        if val_acc > best_val:
            best_val, best_state = val_acc, model.state_dict()
        if epoch % 10 == 0:
            print(f"epoch {epoch:3d}  loss {loss.item():.4f}  val acc {val_acc:.3f}")

    model.load_state_dict(best_state)
    pred = np.argmax(model(graph, x).data, axis=1)
    test_acc = (pred[test_mask] == labels[test_mask]).mean()
    print(f"\ntest accuracy {test_acc:.3f} (chance {1 / 8:.3f})")
    assert test_acc > 0.5


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", default="default", choices=("default", "small"),
        help="dataset scale (small: scaled-down graphs)",
    )
    main(parser.parse_args().scale)
