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


class TestHostTiming:
    """``cpu`` plans run this host's kernels, so the ``cpu`` set is
    fitted to their measured times; the GPUs keep their analytic
    profiles, and ``cpu``'s analytic set stays reachable by name."""

    def test_default_timing_per_device(self):
        from repro.core.costmodel import default_timing, timing_source
        from repro.hardware.realexec import RealExecutionBackend

        assert default_timing("cpu") == default_timing("CPU") == "host"
        assert default_timing("a100") == default_timing("h100") == "analytic"
        assert isinstance(timing_source("cpu", "host"), RealExecutionBackend)
        assert timing_source("cpu", "analytic") is get_device("cpu")
        with pytest.raises(ValueError, match="host"):
            timing_source("h100", "host")

    @pytest.fixture(scope="class")
    def host_models(self):
        from repro.core.costmodel import CostModelSet
        from repro.hardware.realexec import RealExecutionBackend

        backend = RealExecutionBackend(repeats=1)
        dataset = collect_profile(
            backend, graphs=training_graphs(scale="small")[:3], sizes=(8, 32)
        )
        models = train_cost_models(backend, dataset, num_rounds=10)
        assert isinstance(models, CostModelSet)
        return models

    def test_unweighted_spmm_is_priced_by_the_spmm_model(self, host_models):
        """One kernel, one price: at equal shapes the two SpMMs cost the
        same, and each is priced at its own shape."""
        assert host_models.timing == "host"
        assert host_models.device_name == "cpu"
        assert "spmm_unweighted" in host_models.primitives
        vec = featurize_graph(load("CA", "small"))
        for nnz in (2_000, 40_000):
            shape = {"m": 4000, "nnz": nnz, "k": 32}
            weighted = host_models.predict_call(KernelCall("spmm", shape), vec)
            unweighted = host_models.predict_call(
                KernelCall("spmm_unweighted", shape), vec
            )
            assert unweighted == weighted

    def test_host_payload_round_trips_and_is_not_analytic(self, host_models, tmp_path):
        from repro.core import load_cost_models, save_cost_models

        path = tmp_path / "models.json"
        save_cost_models(host_models, path)
        loaded = load_cost_models(path, device="cpu", timing="host")
        assert loaded.to_dict() == host_models.to_dict()
        assert loaded.timing == "host" and loaded.primitives == host_models.primitives
        with pytest.raises(ValueError, match="timed"):
            load_cost_models(path, device="cpu", timing="analytic")

    def test_analytic_payload_carries_no_timing(self):
        models = get_cost_models("h100", scale="small")
        assert models.timing == "analytic"
        assert "timing" not in models.to_dict()

    def test_analytic_cpu_set_is_its_own_cache_entry(self, retrain, tmp_path):
        analytic = get_cost_models("cpu", cache_dir=tmp_path, timing="analytic")
        host = get_cost_models("cpu", cache_dir=tmp_path)
        assert analytic is not host
        assert (analytic.timing, host.timing) == ("analytic", "host")
        assert retrain == [("cpu", "default"), ("cpu", "default")]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "costmodels_cpu_analytic_default.json", "costmodels_cpu_default.json",
        ]
