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
from repro.core.costmodel import call_key
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


# ----------------------------------------------------------------------
# The forest prices every call as the per-model walk does, bit for bit
# ----------------------------------------------------------------------
_ZOO = ("gcn", "gin", "sgc", "tagcn", "gat", "sage", "appnp")
_DIM_KEYS = ("m", "k", "n", "nnz")


def _walk_price(models, call, vec):
    """One call priced on its own: the call's features built scalar by
    scalar, its model's ``predict_one``, then ``exp``."""
    from repro.hardware import bytes_moved

    alias = models._aliases.get(call.primitive)
    if alias is not None:
        call = KernelCall(alias, call.shape)
    half = [np.log1p(float(call.shape.get(key, 0.0))) for key in _DIM_KEYS]
    half += [np.log1p(call.flops), np.log1p(bytes_moved(call))]
    feats = np.concatenate([vec, np.array(half)])
    return float(np.exp(models._models[call.primitive].predict_one(feats)))


def _bench_family_vectors():
    """The graph vectors of the benchmark's families, the edge cases, and
    vectors whose graph features sit exactly on split thresholds."""
    from repro.graphs.generators import (
        empty_graph, erdos_renyi, rmat, road_mesh, sbm_communities, single_node,
    )

    graphs = [
        rmat(5000, 8, seed=1), road_mesh(8000, seed=2),
        sbm_communities(1200, 12, 30, seed=3),  # infer_steady
        rmat(3000, 8, seed=1), road_mesh(4000, seed=2),
        erdos_renyi(2000, 20, seed=3),  # select_sweep
        erdos_renyi(2000, 8, seed=1),  # serve_mix
        empty_graph(5), single_node(),
    ]
    return {g.name: featurize_graph(g) for g in graphs}


def _on_thresholds(models, vec):
    """``vec`` with each graph feature some split of ``models`` tests set
    to exactly that split's threshold."""
    out = vec.copy()
    for model in models._models.values():
        feature, threshold, left = model._packed_arrays()[:3]
        split = np.flatnonzero(
            (left != np.arange(len(left))) & (feature < len(vec))
        )
        for node in split[:: max(1, len(split) // 4)]:
            out[feature[node]] = threshold[node]
    return out


@pytest.fixture(scope="module")
def pricing_sets():
    return {
        "h100": get_cost_models("h100", scale="small"),
        "a100": get_cost_models("a100", scale="small"),
        "cpu/analytic": get_cost_models("cpu", scale="small", timing="analytic"),
        "cpu/host": get_cost_models("cpu", scale="small"),
    }


class TestForestPricing:
    """One forest descent prices every slot of a price index to the float
    the per-call walk gives (``float.hex``), whatever the set, primitive,
    graph vector or slot."""

    def test_every_index_slot_equals_the_walk(self, pricing_sets):
        from repro.core.codegen import compile_model
        from repro.core.ir import sized_env
        from repro.core.plan import price_index
        from repro.models import build_layer

        vectors = _bench_family_vectors()
        for set_name, models in pricing_sets.items():
            assert models.timing == ("host" if set_name == "cpu/host" else "analytic")
            table = dict(vectors)
            table.update(
                (f"{name}@thresholds", _on_thresholds(models, v))
                for name, v in vectors.items()
            )
            covered = set()
            for name in _ZOO:
                layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
                compiled = compile_model(name, **_ir_kwargs(layer))
                for k1, k2 in ((32, 16), (16, 32)):
                    for training in (False, True):
                        env, key = sized_env(2000, 17000, k1, k2)
                        plans = [p.plan for p in compiled.viable(k1, k2)]
                        index = price_index(
                            plans, env, key, "indptr", training, True
                        )
                        keys, calls = index.keys[1:], index.calls[1:]
                        covered.update(c.primitive for c in calls)
                        for label, vec in table.items():
                            got = models.fill({}, keys, calls, vec)
                            want = [_walk_price(models, c, vec) for c in calls]
                            assert [p.hex() for p in got] == [
                                p.hex() for p in want
                            ], (set_name, name, label, training)
            # every primitive a zoo plan prices, the alias included
            assert covered <= set(models.primitives)
        assert "spmm_unweighted" in pricing_sets["cpu/host"]._aliases

    def test_every_primitive_of_every_set(self, pricing_sets):
        """Each model of each set, directly and through its aliases, in
        one descent over every primitive at several shapes."""
        vectors = _bench_family_vectors()
        for models in pricing_sets.values():
            calls = [
                KernelCall(p, {"m": m, "k": k, "n": 8, "nnz": 8 * m, "nnz_rhs": 8 * m})
                for p in models.primitives
                for m, k in ((1, 1), (300, 16), (20000, 64))
            ]
            keys = [call_key(c) for c in calls]
            for vec in list(vectors.values()) + [_on_thresholds(models, v) for v in vectors.values()]:
                got = models.fill({}, keys, calls, vec)
                assert [p.hex() for p in got] == [
                    _walk_price(models, c, vec).hex() for c in calls
                ]

    def test_multi_row_predict_is_the_per_row_walk(self, pricing_sets):
        vec = _bench_family_vectors()["rmat_5000"]
        rng = np.random.default_rng(5)
        for models in pricing_sets.values():
            for model in models._models.values():
                rows = vec + rng.normal(0, 1, (40, len(vec)))
                rows = np.hstack([rows, rng.uniform(0, 12, (40, 6))])
                rows[0] = np.concatenate([_on_thresholds(models, vec), rows[0, len(vec):]])
                multi = model.predict(rows)
                for row, value in zip(rows, multi.tolist()):
                    walked = model._base
                    for tree in model._trees:
                        walked += model.learning_rate * tree.predict_one(row)
                    assert value.hex() == model.predict_one(row).hex() == walked.hex()

    def test_stacked_arrays_are_views_of_the_forest(self, pricing_sets):
        models = pricing_sets["cpu/host"]
        forest = models._forest
        for model in models._models.values():
            for column in model._packed_arrays()[:5]:
                assert any(np.shares_memory(column, c) for c in (*forest._nodes, forest._value))
        spmm = models._ensemble["spmm"]
        assert models._ensemble["spmm_unweighted"] == spmm


def _ir_kwargs(layer):
    from repro.core.bindings import model_ir_kwargs

    return model_ir_kwargs(layer)
