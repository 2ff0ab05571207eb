"""Inside GRANII's cost models and code generation.

Trains the per-primitive cost models for a device, reports their
held-out accuracy (the §VI-G concern), shows which input features drive
predictions, and prints the conditional dispatch source GRANII generates
for GCN (the paper's Figure 7).

Run:  python examples/cost_model_study.py [small]
"""

import argparse

import numpy as np

from repro.core import (
    collect_profile,
    compile_model,
    emit_python_source,
    featurize_graph,
    train_cost_models,
)
from repro.core.features import FEATURE_NAMES
from repro.graphs import load
from repro.hardware import GraphStats, get_device
from repro.kernels import KernelCall
from repro.learn import r2_score, spearman_rank_correlation


def main(scale: str = "default") -> None:
    device = get_device("h100")
    print("profiling primitives on the training pool ...")
    dataset = collect_profile(device, scale=scale)
    for primitive in dataset.primitives:
        print(f"  {primitive:16s} {dataset.size(primitive):5d} samples")

    print("\ntraining one GBT per primitive ...")
    models = train_cost_models(device, dataset)

    # held-out accuracy on an evaluation graph the pool never saw --------
    graph = load("RD", scale)
    stats = GraphStats.from_graph(graph)
    vec = featurize_graph(graph)
    n, nnz = graph.num_nodes, graph.num_edges
    truths, preds = [], []
    for k in (32, 128, 512, 2048):
        for primitive, shape in [
            ("spmm", {"m": n, "nnz": nnz, "k": k}),
            ("spmm_unweighted", {"m": n, "nnz": nnz, "k": k}),
            ("gemm", {"m": n, "k": k, "n": k}),
            ("row_broadcast", {"m": n, "k": k}),
            ("degree_binning", {"m": n, "nnz": nnz}),
        ]:
            call = KernelCall(primitive, shape)
            truths.append(device.time_call(call, stats))
            preds.append(models.predict_call(call, vec))
    truths, preds = np.array(truths), np.array(preds)
    print(
        f"\nheld-out ({graph.name}): spearman "
        f"{spearman_rank_correlation(truths, preds):.3f}, "
        f"log-R2 {r2_score(np.log(truths), np.log(preds)):.3f}"
    )

    # which features matter? --------------------------------------------
    spmm_model = models._models["spmm"]
    importances = spmm_model.feature_importances(len(FEATURE_NAMES))
    top = np.argsort(importances)[::-1][:5]
    print("\ntop features of the SpMM cost model:")
    for idx in top:
        print(f"  {FEATURE_NAMES[idx]:20s} {importances[idx]:.3f}")

    # the generated conditional code (Figure 7) --------------------------
    print("\nGRANII-generated dispatch for GCN:")
    print(emit_python_source(compile_model("gcn")))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", default="default", choices=("default", "small"),
        help="dataset scale (small: scaled-down graphs)",
    )
    main(parser.parse_args().scale)
