"""Crash-safe durable state (repro.state) and its costmodel clients.

The contract under test: a save is atomic (a crash never leaves a
half-written snapshot on the final name), a load verifies schema and
checksum, and *any* damage costs a quarantine-and-cold-rebuild — never
an exception at the call site.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.costmodel import CostModelSet, get_cost_models
from repro.learn.tree import COLUMNS
from repro.state import SCHEMA_VERSION, StateStore, atomic_write_text, quarantine


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "a" / "b.json"
        atomic_write_text(path, "one")
        assert path.read_text() == "one"
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_no_temp_droppings_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "x.json", "data")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]

    def test_failed_write_leaves_old_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "x.json"
        atomic_write_text(path, "old")

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError):
            atomic_write_text(path, "new")
        assert path.read_text() == "old"
        # and the temp file was cleaned up
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]


class TestQuarantine:
    def test_renames_with_counter(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("bad")
        first = quarantine(path)
        assert first.endswith("s.json.corrupt.0")
        path.write_text("bad again")
        second = quarantine(path)
        assert second.endswith("s.json.corrupt.1")
        assert not path.exists()

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine(tmp_path / "never-existed.json") is None


class TestStateStore:
    def test_json_round_trip(self, tmp_path):
        store = StateStore(tmp_path)
        store.save("residuals", {"cpu|spmm": 1.5})
        assert store.load("residuals") == {"cpu|spmm": 1.5}
        assert store.snapshots() == ["residuals"]

    def test_non_json_payload_rides_as_pickle(self, tmp_path):
        store = StateStore(tmp_path)
        payload = {"arr": np.arange(4, dtype=np.float64)}
        store.save("binary", payload)
        envelope = json.loads((tmp_path / "binary.json").read_text())
        assert envelope["encoding"] == "pickle"
        restored = store.load("binary")
        np.testing.assert_array_equal(restored["arr"], payload["arr"])

    def test_missing_snapshot_loads_none_without_quarantine(self, tmp_path):
        store = StateStore(tmp_path)
        assert store.load("nothing") is None
        assert store.quarantined() == []

    def test_truncated_file_quarantined(self, tmp_path):
        store = StateStore(tmp_path)
        path = store.save("plan_cache", [["k", "t", 1]])
        raw = open(path).read()
        atomic_write_text(path, raw[: len(raw) // 2])
        assert store.load("plan_cache") is None
        assert store.quarantined() == ["plan_cache.json.corrupt.0"]
        assert store.snapshots() == []
        # a fresh save after quarantine works again
        store.save("plan_cache", [])
        assert store.load("plan_cache") == []

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store = StateStore(tmp_path)
        path = store.save("residuals", {"cpu|spmm": 2.0})
        envelope = json.loads(open(path).read())
        envelope["blob"] = json.dumps({"cpu|spmm": 9000.0})  # tampered
        atomic_write_text(path, json.dumps(envelope))
        assert store.load("residuals") is None
        assert store.quarantined() == ["residuals.json.corrupt.0"]

    def test_schema_version_mismatch_quarantined(self, tmp_path):
        store = StateStore(tmp_path)
        path = store.save("residuals", {})
        envelope = json.loads(open(path).read())
        envelope["schema"] = SCHEMA_VERSION + 1
        atomic_write_text(path, json.dumps(envelope))
        assert store.load("residuals") is None
        assert store.quarantined() == ["residuals.json.corrupt.0"]

    def test_invalid_names_rejected(self, tmp_path):
        store = StateStore(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden", "name.json"):
            with pytest.raises(ValueError):
                store.save(bad, {})

    def test_status_reports_both_lists(self, tmp_path):
        store = StateStore(tmp_path)
        store.save("good", 1)
        path = store.save("bad", 2)
        atomic_write_text(path, "{")
        store.load("bad")
        status = store.status()
        assert status["snapshots"] == ["good"]
        assert status["quarantined"] == ["bad.json.corrupt.0"]


class TestCostModelDiskCache:
    def test_corrupt_cache_file_quarantined_and_retrained(
        self, tmp_path, empty_cost_model_cache
    ):
        """A truncated on-disk cost-model cache (crash mid-write by an
        older writer) must cost a retrain, not a JSONDecodeError.

        The one tier-1 test that fits a pool cold, on purpose: every
        other test shares the session's fits or uses ``retrain``."""
        cache = tmp_path / "costmodels_cpu_small.json"
        cache.write_text('{"device": "cpu", "models": {"spmm": {tru')
        models = get_cost_models("cpu", scale="small", cache_dir=tmp_path)
        assert models.device_name == "cpu"
        # the damaged file was moved aside and a fresh one written
        assert (tmp_path / "costmodels_cpu_small.json.corrupt.0").exists()
        reloaded = json.loads(cache.read_text())
        assert "models" in reloaded
        assert (reloaded["device"], reloaded["scale"]) == ("cpu", "small")

    def test_cache_file_written_atomically(self, tmp_path, retrain):
        get_cost_models("cpu", scale="small", cache_dir=tmp_path)
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []


class TestCostModelSnapshot:
    """The service saves and restores cost models through the one
    serialiser (``CostModelSet.to_dict`` / ``from_dict``)."""

    @pytest.fixture(scope="class")
    def models(self):
        return get_cost_models("h100", scale="small")

    def service(self, tmp_path, **kwargs):
        from repro.serving import GraniiService

        kwargs.setdefault("device", "h100")
        kwargs.setdefault("scale", "small")
        return GraniiService(num_threads=1, state_dir=str(tmp_path), **kwargs)

    def test_restore_goes_through_the_shared_loader(self, models, tmp_path, monkeypatch):
        with self.service(tmp_path, cost_models=models) as svc:
            svc.save_state()
        saved = StateStore(tmp_path).load("cost_models")
        assert saved == models.to_dict()

        loads = []
        real = CostModelSet.from_dict.__func__

        def from_dict(cls, data, device=None, scale=None):
            loads.append((device, scale))
            return real(cls, data, device=device, scale=scale)

        monkeypatch.setattr(CostModelSet, "from_dict", classmethod(from_dict))
        with self.service(tmp_path) as svc2:
            assert svc2.warm_start["cost_models"] is True
            restored = svc2._cost_models
        assert loads == [("h100", "small")]
        assert restored.to_dict() == models.to_dict()

    def test_restart_restores_the_same_predictions(self, models, tmp_path):
        from repro.core.features import featurize_graph, num_features
        from repro.graphs.generators import rmat
        from repro.kernels import KernelCall

        with self.service(tmp_path, cost_models=models) as svc:
            svc.save_state()
        with self.service(tmp_path) as svc2:
            assert svc2.warm_start["cost_models"] is True
            restored = svc2._cost_models
        assert restored is not models
        rows = np.random.default_rng(0).standard_normal((60, num_features())) * 4
        for name in models.primitives:
            saved, loaded = models._models[name], restored._models[name]
            for row in rows:
                assert loaded.predict_one(row).hex() == saved.predict_one(row).hex()
        vec = featurize_graph(rmat(500, 8, seed=0))
        call = KernelCall("spmm", {"m": 500, "nnz": 4000, "k": 32})
        models._memo.clear()
        assert restored.predict_call(call, vec) == models.predict_call(call, vec)

    def test_old_schema_snapshot_restores_training_cold(self, models, tmp_path):
        old = models.to_dict()
        del old["format"], old["scale"]
        for name, model in old["models"].items():
            # format 1 kept each tree's nodes as rows
            for packed in ("nodes", "roots", "depth"):
                del model[packed]
            model["trees"] = [t.to_dict() for t in models._models[name]._trees]
            for tree in model["trees"]:
                tree["nodes"] = [list(r) for r in zip(*(tree.pop(c) for c in COLUMNS))]
        blob = json.dumps(old, sort_keys=True)
        atomic_write_text(tmp_path / "cost_models.json", json.dumps({
            "schema": 1,
            "name": "cost_models",
            "encoding": "json",
            "checksum": hashlib.sha256(blob.encode()).hexdigest(),
            "blob": blob,
        }))
        assert SCHEMA_VERSION != 1
        with self.service(tmp_path) as svc:
            assert svc.warm_start["cost_models"] is False
            assert svc._cost_models is None
        assert StateStore(tmp_path).quarantined() == ["cost_models.json.corrupt.0"]

    def test_snapshot_for_another_scale_restores_training_cold(self, models, tmp_path):
        StateStore(tmp_path).save("cost_models", models.to_dict())
        with self.service(tmp_path, scale="default") as svc:
            assert svc.warm_start["cost_models"] is False
            assert svc._cost_models is None

    def test_snapshot_without_a_scale_restores_on_the_device(self, models, tmp_path):
        # a set handed in as ``cost_models=``, fitted on chosen graphs
        handmade = CostModelSet(models.device_name, models._models)
        with self.service(tmp_path, cost_models=handmade) as svc:
            svc.save_state()
        with self.service(tmp_path) as svc2:
            assert svc2.warm_start["cost_models"] is True
            assert svc2._cost_models.scale is None
        with self.service(tmp_path, device="cpu") as svc3:
            assert svc3.warm_start["cost_models"] is False
