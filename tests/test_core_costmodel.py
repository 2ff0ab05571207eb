"""Cost model tests: profiling, training, prediction quality (§VI-G)."""

import numpy as np
import pytest

from repro.core import (
    collect_profile,
    featurize_graph,
    get_cost_models,
    num_features,
    train_cost_models,
)
from repro.core.profiler import PROFILED_PRIMITIVES
from repro.graphs import load, training_graphs
from repro.hardware import GraphStats, get_device
from repro.kernels import KernelCall
from repro.learn import r2_score, spearman_rank_correlation


@pytest.fixture(scope="module")
def small_profile():
    device = get_device("h100")
    graphs = training_graphs(scale="small")
    return device, collect_profile(device, graphs=graphs, sizes=(32, 128, 512, 2048))


@pytest.fixture(scope="module")
def models(small_profile):
    device, dataset = small_profile
    return train_cost_models(device, dataset, num_rounds=60)


class TestProfiler:
    def test_all_primitives_covered(self, small_profile):
        _, dataset = small_profile
        assert set(dataset.primitives) == set(PROFILED_PRIMITIVES)

    def test_sample_counts_reasonable(self, small_profile):
        _, dataset = small_profile
        for primitive in dataset.primitives:
            assert dataset.size(primitive) >= 50

    def test_features_well_formed(self, small_profile):
        _, dataset = small_profile
        x, y = dataset.matrices("spmm")
        assert x.shape[1] == num_features()
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))


class TestCostModels:
    def test_held_out_accuracy(self, models, small_profile):
        """Predictions must rank well on an *unseen* evaluation graph."""
        device, _ = small_profile
        graph = load("CA", "small")  # not in the training pool
        stats = GraphStats.from_graph(graph)
        vec = featurize_graph(graph)
        n, nnz = graph.num_nodes, graph.num_edges
        truths, preds = [], []
        for k in (32, 64, 256, 1024):
            for primitive, shape in [
                ("spmm", {"m": n, "nnz": nnz, "k": k}),
                ("spmm_unweighted", {"m": n, "nnz": nnz, "k": k}),
                ("gemm", {"m": n, "k": k, "n": max(k // 2, 1)}),
                ("row_broadcast", {"m": n, "k": k}),
            ]:
                call = KernelCall(primitive, shape)
                truths.append(device.time_call(call, stats))
                preds.append(models.predict_call(call, vec))
        truths, preds = np.array(truths), np.array(preds)
        assert spearman_rank_correlation(truths, preds) > 0.9
        assert r2_score(np.log(truths), np.log(preds)) > 0.7

    def test_predictions_positive(self, models):
        vec = featurize_graph(load("BL", "small"))
        call = KernelCall("gemm", {"m": 100, "k": 32, "n": 32})
        assert models.predict_call(call, vec) > 0

    def test_missing_primitive_model_raises(self):
        from repro.core.costmodel import CostModelSet

        empty = CostModelSet("h100", {})
        vec = np.zeros(num_features() - 4)
        with pytest.raises(KeyError):
            empty.predict_call(KernelCall("gemm", {"m": 1, "k": 1, "n": 1}), vec)

    def test_predict_calls_sums_with_efficiency(self, models):
        vec = featurize_graph(load("AU", "small"))
        calls = [
            KernelCall("gemm", {"m": 100, "k": 32, "n": 32}),
            KernelCall("spmm", {"m": 100, "nnz": 600, "k": 32}),
        ]
        plain = models.predict_calls(calls, vec)
        halved = models.predict_calls(calls, vec, efficiency=lambda c: 0.5)
        assert halved == pytest.approx(plain * 0.5)

    def test_bigger_work_predicts_slower(self, models):
        vec = featurize_graph(load("RD", "small"))
        small = KernelCall("gemm", {"m": 500, "k": 32, "n": 32})
        big = KernelCall("gemm", {"m": 500, "k": 1024, "n": 1024})
        assert models.predict_call(big, vec) > models.predict_call(small, vec)

    def test_cache_returns_same_instance(self):
        a = get_cost_models("h100", scale="small")
        b = get_cost_models("H100", scale="small")
        assert a is b
