"""Serialization round-trips: trees, ensembles, cost-model sets."""

import base64
import json

import numpy as np
import pytest

from repro.core import costmodel, load_cost_models, save_cost_models, train_cost_models
from repro.core.costmodel import CostModelSet, get_cost_models, clear_cost_model_cache
from repro.core.features import featurize_graph
from repro.core.profiler import collect_profile
from repro.core.runtime import GraniiEngine
from repro.graphs import load, training_graphs
from repro.graphs.generators import erdos_renyi, rmat, road_mesh
from repro.hardware import get_device
from repro.kernels import KernelCall
from repro.learn import GradientBoostedTrees, RegressionTree
from repro.learn.gbt import PACKED
from repro.learn.tree import COLUMNS
from repro.models import MODEL_NAMES, build_layer


class TestTreeSerialization:
    def test_round_trip_predictions(self, rng):
        x = rng.standard_normal((200, 3))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        tree = RegressionTree(max_depth=4).fit(x, y)
        restored = RegressionTree.from_dict(tree.to_dict())
        probe = rng.standard_normal((50, 3))
        assert np.allclose(tree.predict(probe), restored.predict(probe))

    def test_round_trip_is_json_safe(self, rng):
        import json

        x = rng.standard_normal((50, 2))
        y = x[:, 0]
        tree = RegressionTree(max_depth=3).fit(x, y)
        blob = json.dumps(tree.to_dict())
        restored = RegressionTree.from_dict(json.loads(blob))
        assert np.allclose(tree.predict(x), restored.predict(x))


class TestGBTSerialization:
    def test_round_trip_predictions(self, rng):
        x = rng.standard_normal((300, 4))
        y = x[:, 0] * x[:, 1] + x[:, 2]
        model = GradientBoostedTrees(num_rounds=40, max_depth=3).fit(x, y)
        restored = GradientBoostedTrees.from_dict(model.to_dict())
        probe = rng.standard_normal((30, 4))
        assert np.allclose(model.predict(probe), restored.predict(probe))
        assert restored.num_trees == model.num_trees

    def test_round_trip_preserves_hyperparams(self, rng):
        x = rng.standard_normal((50, 2))
        y = x[:, 0]
        model = GradientBoostedTrees(
            num_rounds=10, learning_rate=0.2, max_depth=2, subsample=0.8, seed=3
        ).fit(x, y)
        restored = GradientBoostedTrees.from_dict(model.to_dict())
        assert restored.learning_rate == 0.2
        assert restored.subsample == 0.8


@pytest.fixture(scope="module")
def small_dataset():
    return collect_profile(
        get_device("h100"), graphs=training_graphs("small")[:4], sizes=(32, 256)
    )


@pytest.fixture(scope="module")
def small_models(small_dataset):
    return train_cost_models(get_device("h100"), small_dataset, num_rounds=20)


@pytest.fixture(scope="module")
def small_scale_models(small_models):
    """``small_models`` labelled as the small pool's set: they are fitted
    on part of that pool, but chosen graphs carry no scale of their own."""
    return CostModelSet(small_models.device_name, small_models._models, scale="small")


class TestCostModelPersistence:
    def test_save_load_round_trip(self, small_models, tmp_path):
        path = tmp_path / "models.json"
        save_cost_models(small_models, path)
        restored = load_cost_models(path)
        assert restored.device_name == small_models.device_name
        assert restored.primitives == small_models.primitives
        vec = featurize_graph(load("BL", "small"))
        call = KernelCall("spmm", {"m": 500, "nnz": 3000, "k": 64})
        assert restored.predict_call(call, vec) == pytest.approx(
            small_models.predict_call(call, vec)
        )

    def test_disk_cache_used(self, small_scale_models, tmp_path):
        # pre-seed the disk cache, clear memory, and verify the loader path
        small_models = small_scale_models
        path = tmp_path / "costmodels_h100_small.json"
        save_cost_models(small_models, path)
        clear_cost_model_cache()
        try:
            loaded = get_cost_models("h100", scale="small", cache_dir=tmp_path)
            assert loaded.primitives == small_models.primitives
            assert loaded.scale == "small"
            assert not list(tmp_path.glob("*.corrupt.*"))  # loaded, not retrained
        finally:
            clear_cost_model_cache()  # leave no cross-test residue


def sweep_pool():
    """The graphs the ``select_sweep`` benchmark selects on (seed 0)."""
    return [rmat(3000, 8, seed=0), road_mesh(4000, seed=1), erdos_renyi(2000, 20, seed=2)]


def plan_prices(models, graph, vec):
    """Every viable promoted plan's predicted cost, per zoo model."""
    engine = GraniiEngine(device="h100", scale="small", cost_models=models)
    prices = []
    for name in MODEL_NAMES:
        layer = build_layer(name, 32, 16, rng=np.random.default_rng(0))
        env = engine.shape_env(graph, layer)
        plans = [p.plan for p in engine.compile_for(layer, graph).viable(32, 16)]
        prices.append(engine.predict_plan_costs(plans, env, vec))
    return prices


def per_tree_payload(models):
    """``models`` in format 2's layout: each tree its own five node columns."""
    payload = models.to_dict()
    payload["format"] = 2
    for name, model in payload["models"].items():
        for packed in ("nodes", "roots", "depth"):
            del model[packed]
        model["trees"] = [tree.to_dict() for tree in models._models[name]._trees]
    return payload


def probe_vectors(model, rng, rows=40):
    """Random feature vectors wide enough for every split of ``model``."""
    width = 1 + max(max(tree.columns()[0]) for tree in model._trees)
    return rng.standard_normal((rows, width)) * 4.0


class TestCostModelFile:
    def test_trees_save_as_five_columns(self, small_scale_models):
        # an ensemble's trees save stacked: five node columns of one length
        # (predict_one's packed arrays as raw bytes) and per-tree offsets
        payload = small_scale_models.to_dict()
        assert (payload["device"], payload["scale"]) == ("h100", "small")
        for name, model in payload["models"].items():
            assert "trees" not in model
            assert set(model["nodes"]) == {column for column, _ in PACKED}
            nodes = {
                column: np.frombuffer(base64.b64decode(model["nodes"][column]), dtype)
                for column, dtype in PACKED
            }
            trees = small_scale_models._models[name]._trees
            assert {len(c) for c in nodes.values()} == {
                sum(tree.num_nodes for tree in trees)
            }
            roots = np.frombuffer(base64.b64decode(model["roots"]), "<i8")
            assert roots.tolist() == np.cumsum(
                [0] + [tree.num_nodes for tree in trees[:-1]]
            ).tolist()
            assert model["depth"] == max(tree.depth for tree in trees)

    def test_save_load_predictions_bitwise(self, small_models, tmp_path, rng):
        path = tmp_path / "models.json"
        save_cost_models(small_models, path)
        restored = load_cost_models(path)
        for name in small_models.primitives:
            saved, loaded = small_models._models[name], restored._models[name]
            x = probe_vectors(saved, rng)
            for row in x:
                assert loaded.predict_one(row) == saved.predict_one(row), name
            assert loaded.predict(x).tobytes() == saved.predict(x).tobytes(), name

    def test_load_then_predict_one_builds_nothing(self, small_models, tmp_path, rng):
        # a loaded tree is the file's five columns; predict_one reads them
        # (packed once) and the packed walk equals the tree-by-tree walk
        path = tmp_path / "models.json"
        save_cost_models(small_models, path)
        model = load_cost_models(path)._models["spmm"]
        for row in probe_vectors(model, rng):
            walked = model._base
            for tree in model._trees:
                walked += model.learning_rate * tree.predict_one(row)
            assert model.predict_one(row) == walked
        assert set(vars(model._trees[0])) == {
            "max_depth", "min_samples_leaf", "min_gain",
            "_feature", "_threshold", "_value", "_left", "_right",
        }

    def test_loaded_set_prices_the_sweep_pool_bitwise(
        self, small_scale_models, small_dataset, tmp_path
    ):
        # every primitive, on its profiled calls re-aimed at the feature
        # vectors of the select_sweep pool graphs, and every promoted
        # plan's price on those graphs
        path = tmp_path / "models.json"
        save_cost_models(small_scale_models, path)
        loaded = load_cost_models(path, device="h100", scale="small")
        assert loaded.primitives == small_scale_models.primitives
        for graph in sweep_pool():
            vec = featurize_graph(graph)
            for name in small_scale_models.primitives:
                rows, _ = small_dataset.matrices(name)
                rows = rows.copy()
                rows[:, : vec.size] = vec
                saved, restored = small_scale_models._models[name], loaded._models[name]
                for row in rows:
                    assert restored.predict_one(row).hex() == saved.predict_one(row).hex()
            for models in (small_scale_models, loaded):
                models._memo.clear()
            assert plan_prices(loaded, graph, vec) == plan_prices(
                small_scale_models, graph, vec
            )

    def test_load_refuses_another_device_or_scale(self, small_scale_models, tmp_path):
        path = tmp_path / "models.json"
        save_cost_models(small_scale_models, path)
        assert load_cost_models(path, device="H100", scale="small").scale == "small"
        with pytest.raises(ValueError, match="device"):
            load_cost_models(path, device="cpu")
        with pytest.raises(ValueError, match="scale"):
            load_cost_models(path, scale="default")


class TestCostModelCacheTrust:
    """``get_cost_models(..., cache_dir=...)`` trusts the payload, not the
    file name: the wrong device, scale or layout is retrained."""

    @pytest.fixture
    def retrain(self, small_models, monkeypatch):
        """Stand-in training: records its calls, returns a fresh set."""
        calls = []

        def train(device, scale="default"):
            calls.append((device.name, scale))
            return CostModelSet(device.name, dict(small_models._models), scale=scale)

        monkeypatch.setattr(costmodel, "train_cost_models", train)
        clear_cost_model_cache()
        yield calls
        clear_cost_model_cache()

    def test_models_for_another_device_and_scale_are_retrained(
        self, small_scale_models, tmp_path, retrain
    ):
        # h100 / small models under the cpu / default file name
        cache = tmp_path / "costmodels_cpu_default.json"
        save_cost_models(small_scale_models, cache)
        models = get_cost_models("cpu", cache_dir=tmp_path)
        assert retrain == [("cpu", "default")]
        assert (models.device_name, models.scale) == ("cpu", "default")
        assert (tmp_path / "costmodels_cpu_default.json.corrupt.0").exists()
        saved = json.loads(cache.read_text())
        assert (saved["device"], saved["scale"]) == ("cpu", "default")

    def test_models_for_another_scale_are_retrained(
        self, small_scale_models, tmp_path, retrain
    ):
        save_cost_models(small_scale_models, tmp_path / "costmodels_h100_default.json")
        models = get_cost_models("h100", cache_dir=tmp_path)
        assert retrain == [("h100", "default")]
        assert models.scale == "default"

    def test_models_fitted_on_chosen_graphs_are_not_the_default_set(
        self, small_models, tmp_path, retrain
    ):
        # fitted on caller-chosen graphs: no scale, whatever ``scale=`` says
        device = get_device("h100")
        dataset = collect_profile(device, graphs=training_graphs("small")[:1], sizes=(32,))
        assert dataset.scale is None
        assert train_cost_models(device, dataset, num_rounds=2, scale="default").scale is None
        assert small_models.scale is None
        save_cost_models(small_models, tmp_path / "costmodels_h100_default.json")
        models = get_cost_models("h100", cache_dir=tmp_path)
        assert retrain == [("h100", "default")]
        assert models.scale == "default"
        assert (tmp_path / "costmodels_h100_default.json.corrupt.0").exists()

    def test_per_tree_column_file_is_quarantined_and_retrained(
        self, small_scale_models, tmp_path, retrain
    ):
        # format 2: each tree its own five columns, not the packed arrays
        cache = tmp_path / "costmodels_h100_small.json"
        cache.write_text(json.dumps(per_tree_payload(small_scale_models)))
        models = get_cost_models("h100", scale="small", cache_dir=tmp_path)
        assert retrain == [("h100", "small")]
        assert models.scale == "small"
        assert (tmp_path / "costmodels_h100_small.json.corrupt.0").exists()
        assert json.loads(cache.read_text())["format"] == 3

    def test_cache_dir_is_written_when_the_set_is_already_in_memory(
        self, tmp_path, retrain
    ):
        first = get_cost_models("cpu")
        assert list(tmp_path.iterdir()) == []
        again = get_cost_models("cpu", cache_dir=tmp_path)
        assert again is first and retrain == [("cpu", "default")]
        cache = tmp_path / "costmodels_cpu_default.json"
        assert json.loads(cache.read_text()) == first.to_dict()
        # an existing file is left as it is; the process's set still wins
        written = cache.stat().st_mtime_ns
        assert get_cost_models("cpu", cache_dir=tmp_path) is first
        assert cache.stat().st_mtime_ns == written
        clear_cost_model_cache()
        loaded = get_cost_models("cpu", cache_dir=tmp_path)
        assert retrain == [("cpu", "default")]
        assert loaded.to_dict() == first.to_dict()

    def test_old_row_format_file_is_quarantined_and_retrained(
        self, small_scale_models, tmp_path, retrain
    ):
        small_models = small_scale_models
        old = per_tree_payload(small_models)
        del old["format"], old["scale"]
        for model in old["models"].values():
            for tree in model["trees"]:
                tree["nodes"] = [list(row) for row in zip(*(tree.pop(c) for c in COLUMNS))]
        cache = tmp_path / "costmodels_h100_small.json"
        cache.write_text(json.dumps(old))
        models = get_cost_models("h100", scale="small", cache_dir=tmp_path)
        assert retrain == [("h100", "small")]
        assert models.scale == "small"
        assert (tmp_path / "costmodels_h100_small.json.corrupt.0").exists()
        assert json.loads(cache.read_text())["format"] == small_models.to_dict()["format"]
