import functools
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core import costmodel, train_cost_models  # noqa: E402
from repro.core.costmodel import CostModelSet  # noqa: E402
from repro.core.profiler import collect_profile  # noqa: E402
from repro.graphs import training_graphs  # noqa: E402
from repro.hardware import get_device  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# ----------------------------------------------------------------------
# Fitted cost models
#
# A pool fit (``train_cost_models`` with no dataset) takes 5-30 s, and
# the process cache (``costmodel._COST_MODEL_CACHE``) keeps each one for
# the rest of the session.  A test that needs the cache empty takes
# ``empty_cost_model_cache``, which puts every fitted set back afterwards;
# a test whose subject is the cache *file* takes ``retrain``, which
# stands in for the fit.  Never clear the cache without the former.
# ----------------------------------------------------------------------
_POOL_FITS: Counter = Counter()
_REAL_TRAIN = costmodel.train_cost_models


def pytest_configure(config):
    signature = inspect.signature(_REAL_TRAIN)

    @functools.wraps(_REAL_TRAIN)
    def counted(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        if call.arguments["dataset"] is None:
            source = call.arguments["source"]
            _POOL_FITS[f"{source.name}/{source.timing}", call.arguments["scale"]] += 1
        return _REAL_TRAIN(*args, **kwargs)

    costmodel.train_cost_models = counted


def pytest_unconfigure(config):
    costmodel.train_cost_models = _REAL_TRAIN


def pytest_terminal_summary(terminalreporter):
    keys = ", ".join(
        f"{device}/{scale} x{count}" for (device, scale), count in sorted(_POOL_FITS.items())
    )
    terminalreporter.write_line(
        f"cost-model pool fits in this process: {sum(_POOL_FITS.values())}"
        + (f" ({keys})" if keys else "")
    )


@pytest.fixture
def empty_cost_model_cache():
    """The process's cost-model cache, emptied for one test and restored
    as it was afterwards, so the next test does not refit what this one
    removed."""
    saved = dict(costmodel._COST_MODEL_CACHE)
    costmodel.clear_cost_model_cache()
    yield
    costmodel.clear_cost_model_cache()
    costmodel._COST_MODEL_CACHE.update(saved)


@pytest.fixture(scope="session")
def small_dataset():
    return collect_profile(
        get_device("h100"), graphs=training_graphs("small")[:4], sizes=(32, 256)
    )


@pytest.fixture(scope="session")
def small_models(small_dataset):
    return train_cost_models(get_device("h100"), small_dataset, num_rounds=20)


@pytest.fixture
def retrain(small_models, monkeypatch, empty_cost_model_cache):
    """Stand-in training on an empty cache: records its calls, returns a
    fresh set of ``small_models``' ensembles."""
    calls = []

    def train(source, scale="default"):
        calls.append((source.name, scale))
        return CostModelSet(
            source.name, dict(small_models._models), scale=scale, timing=source.timing
        )

    monkeypatch.setattr(costmodel, "train_cost_models", train)
    yield calls
