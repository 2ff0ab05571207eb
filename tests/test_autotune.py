"""The autotuner and the residuals it records.

- :func:`repro.core.autotune.autotune_spmm` times the fold (or a pinned
  row), and an engine with ``REPRO_AUTOTUNE`` on records the measurement
  on its selection;
- residuals on the strategy-pricing primitives (``spmm`` /
  ``spmm_unweighted``) refine the cost models and advance the device's
  cost-model token, while a residual on any other name leaves the token,
  and so every serving-cache fingerprint, unchanged.
"""

import numpy as np
import pytest

from repro.core import GraniiEngine
from repro.core.autotune import autotune_spmm
from repro.core.costmodel import (
    STRATEGY_PRICING_PRIMITIVES,
    clear_runtime_residuals,
    cost_model_token,
    record_runtime_residual,
)
from repro.graphs.generators import erdos_renyi
from repro.models import build_layer
from repro.serving import fingerprint_graph


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 6.0, seed=3)


@pytest.fixture(autouse=True)
def _pristine_residuals():
    clear_runtime_residuals()
    yield
    clear_runtime_residuals()


# ----------------------------------------------------------------------
# Residuals must not poison the serving cache
# ----------------------------------------------------------------------
class TestResidualCacheScoping:
    def test_pristine_store_has_empty_token(self):
        assert cost_model_token("h100") == ""

    def test_out_of_scope_residual_keeps_fingerprints_stable(self, graph):
        base = fingerprint_graph(
            graph, "gcn", 8, 4, cost_token=cost_model_token("h100")
        )
        # gemm is not a strategy-pricing primitive: refining it must not
        # invalidate aggregation-plan cache entries; nor must a residual
        # under a strategy's name, which no plan call prices
        assert "gemm" not in STRATEGY_PRICING_PRIMITIVES
        record_runtime_residual("h100", "gemm", measured_seconds=2.0,
                                predicted_seconds=1.0)
        record_runtime_residual("h100", "blocked", measured_seconds=2.0,
                                predicted_seconds=1.0)
        assert cost_model_token("h100") == ""
        after = fingerprint_graph(
            graph, "gcn", 8, 4, cost_token=cost_model_token("h100")
        )
        assert after == base

    def test_in_scope_residual_invalidates_fingerprints(self, graph):
        base = fingerprint_graph(
            graph, "gcn", 8, 4, cost_token=cost_model_token("h100")
        )
        record_runtime_residual("h100", "spmm", measured_seconds=2.0,
                                predicted_seconds=1.0)
        token = cost_model_token("h100")
        assert token != ""
        after = fingerprint_graph(graph, "gcn", 8, 4, cost_token=token)
        assert after.key != base.key and after.token != base.token

    def test_token_scoped_per_device(self):
        record_runtime_residual("h100", "spmm", 2.0, 1.0)
        assert cost_model_token("h100") != ""
        assert cost_model_token("a100") == ""

    def test_identical_refinements_share_a_token(self):
        record_runtime_residual("h100", "spmm_unweighted", 3.0, 1.5)
        first = cost_model_token("h100")
        clear_runtime_residuals()
        record_runtime_residual("h100", "spmm_unweighted", 3.0, 1.5)
        assert cost_model_token("h100") == first  # deterministic keying


# ----------------------------------------------------------------------
# Autotuner
# ----------------------------------------------------------------------
class TestAutotune:
    def test_times_the_fold(self):
        adj = erdos_renyi(200, 8.0, seed=4).adj
        result = autotune_spmm(adj, 8, warmup=0, repeats=1)
        assert result.seconds > 0
        assert result.residuals == {}
        assert result.describe().startswith("autotune: row_segment:")

    def test_selection_records_measurements_and_residuals(
        self, graph, monkeypatch
    ):
        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        monkeypatch.setenv("REPRO_AUTOTUNE_WARMUP", "0")
        monkeypatch.setenv("REPRO_AUTOTUNE_REPEATS", "1")
        engine = GraniiEngine(device="h100", scale="small")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        _ = engine.cost_models  # residual feedback needs trained models
        selection = engine.select(
            engine.compile_for(layer, graph), graph, layer
        )
        assert list(selection.strategy_costs) == ["measured:row_segment"]
        assert selection.strategy_costs["measured:row_segment"] > 0
        # the refinement advanced the device's cost-model token
        assert cost_model_token("h100") != ""

    def test_disabled_by_default(self, graph):
        engine = GraniiEngine(device="h100", scale="small")
        layer = build_layer("gcn", 8, 4, rng=np.random.default_rng(0))
        selection = engine.select(
            engine.compile_for(layer, graph), graph, layer
        )
        assert not any(k.startswith("measured:")
                       for k in selection.strategy_costs)
        assert cost_model_token("h100") == ""
