"""Quickstart: accelerate a GCN with GRANII (paper Figure 4).

Run:  python examples/quickstart.py [small]
"""

import argparse

import numpy as np

import repro
from repro.graphs import load, make_node_features
from repro.models import GCNLayer


def main(scale: str = "default") -> None:
    # 1. An input: graph, node features, labels ------------------------
    graph = load("CA", scale=scale)  # com-Amazon-like communities
    node_feats, labels = make_node_features(graph, dim=128, seed=0)
    print(f"graph: {graph}")

    # 2. A GNN model, exactly as you would write it anyway --------------
    model = GCNLayer(in_size=128, out_size=32, rng=np.random.default_rng(0))

    baseline = model(graph, node_feats)  # the framework's default path

    # 3. The only change: hand the model and inputs to GRANII -----------
    report = repro.GRANII(
        model, graph, node_feats, labels, device="h100", system="dgl", scale=scale
    )
    print("\nGRANII selections:")
    print(report.describe())

    # 4. Run as before — the selected composition executes under the hood
    accelerated = model(graph, node_feats)
    match = np.allclose(baseline.data, accelerated.data, atol=1e-8)
    print(f"\noutputs identical to the baseline: {match}")
    assert match

    # What did GRANII actually choose?
    chosen = report.selections[0]
    print(f"chosen composition: {chosen.label} (scenario {chosen.scenario})")
    for label, cost in sorted(chosen.predicted_costs.items(), key=lambda kv: kv[1]):
        print(f"  predicted {label}: {1e3 * cost:.3f} ms/iteration")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", default="default", choices=("default", "small"),
        help="dataset scale (small: scaled-down graphs)",
    )
    main(parser.parse_args().scale)
