"""Learned per-primitive cost models (paper §IV-E2).

One gradient-boosted-tree regressor per (primitive, device), trained on
profiled log-times.  A plan's predicted cost is the sum of its calls'
predicted times — with graph-only setup amortised over the iteration
count — exactly the additive approximation the paper uses.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..hardware import Device, get_device
from ..kernels import STRATEGY_PRICING_PRIMITIVES, KernelCall
from ..learn import GradientBoostedTrees
from .features import call_features
from .profiler import ProfileDataset, collect_profile

__all__ = [
    "CostModelSet",
    "STRATEGY_PRICING_PRIMITIVES",
    "call_key",
    "clear_cost_model_cache",
    "clear_runtime_residuals",
    "cost_model_token",
    "estimate_transient_bytes",
    "export_runtime_residuals",
    "get_cost_models",
    "import_runtime_residuals",
    "load_cost_models",
    "record_runtime_residual",
    "residual_factor",
    "save_cost_models",
    "train_cost_models",
]

logger = logging.getLogger(__name__)

# ----------------------------------------------------------------------
# Runtime residuals (autotuner feedback)
# ----------------------------------------------------------------------
# The autotuner measures kernels on the *actual* input and records the
# measured/predicted ratio here; predictions are multiplied by the
# current EWMA factor so future selections price what this machine
# actually runs, in the spirit of the execution-time predictor line of
# work the roadmap cites.  Keys are (device, primitive).
_RUNTIME_RESIDUALS: Dict[Tuple[str, str], float] = {}
_RESIDUAL_ALPHA = 0.5

# STRATEGY_PRICING_PRIMITIVES (spmm / spmm_unweighted, the aggregations
# the autotuner times) are the scope of the cache-invalidation token:
# their residuals re-price every plan's aggregations, so they can move
# plan ranking.  Residuals on anything else (gemm, ...) must NOT churn
# serving-cache fingerprints.


def record_runtime_residual(
    device_name: str,
    primitive: str,
    measured_seconds: float,
    predicted_seconds: float,
) -> float:
    """Fold one measured/predicted ratio into the EWMA residual store.

    Returns the updated multiplicative factor for (device, primitive).
    Non-positive inputs are ignored (timer underflow, missing model).
    """
    key = (device_name.lower(), primitive)
    if measured_seconds <= 0.0 or predicted_seconds <= 0.0:
        return _RUNTIME_RESIDUALS.get(key, 1.0)
    ratio = measured_seconds / predicted_seconds
    prev = _RUNTIME_RESIDUALS.get(key)
    value = ratio if prev is None else (
        (1.0 - _RESIDUAL_ALPHA) * prev + _RESIDUAL_ALPHA * ratio
    )
    _RUNTIME_RESIDUALS[key] = value
    return value


def residual_factor(device_name: str, primitive: str) -> float:
    """Current multiplicative correction for (device, primitive); 1.0 if none."""
    return _RUNTIME_RESIDUALS.get((device_name.lower(), primitive), 1.0)


def clear_runtime_residuals() -> None:
    _RUNTIME_RESIDUALS.clear()


def export_runtime_residuals() -> Dict[str, float]:
    """The EWMA residual store as a JSON-friendly ``device|primitive``
    -> factor mapping (the durable-state snapshot payload)."""
    return {f"{dev}|{prim}": value for (dev, prim), value in _RUNTIME_RESIDUALS.items()}


def import_runtime_residuals(data: Dict[str, float]) -> int:
    """Restore residuals exported by :func:`export_runtime_residuals`.

    Replaces the current store (warm start = resume exactly where the
    saved process left off).  Malformed keys and non-finite factors are
    skipped rather than poisoning selection.  Returns the count restored.
    """
    _RUNTIME_RESIDUALS.clear()
    restored = 0
    for key, value in dict(data or {}).items():
        if not isinstance(key, str) or "|" not in key:
            continue
        try:
            factor = float(value)
        except (TypeError, ValueError):
            continue
        if not np.isfinite(factor) or factor <= 0.0:
            continue
        dev, _, prim = key.partition("|")
        _RUNTIME_RESIDUALS[(dev, prim)] = factor
        restored += 1
    return restored


def cost_model_token(
    device_name: str,
    primitives: Sequence[str] = STRATEGY_PRICING_PRIMITIVES,
) -> str:
    """Version token of the ``spmm`` / ``spmm_unweighted`` residual state.

    Those residuals re-price the aggregations of every candidate plan, so
    they can change which plan ranks cheapest (not which SpMM strategy
    runs: no strategy is priced).  The token is folded into serving-cache
    fingerprints so entries selected under a stale cost model are
    recomputed after an autotune refinement — without invalidating keys
    the refinement cannot affect.  A pristine store (all factors 1.0)
    yields the empty token, so fingerprints are byte-identical to the
    pre-autotuner era until a residual is actually recorded.
    """
    import hashlib

    entries = [
        (p, round(_RUNTIME_RESIDUALS.get((device_name.lower(), p), 1.0), 6))
        for p in sorted(primitives)
    ]
    if all(r == 1.0 for _, r in entries):
        return ""
    return hashlib.sha1(repr(entries).encode()).hexdigest()[:12]


def estimate_transient_bytes(calls: Iterable[KernelCall]) -> float:
    """Largest per-kernel scratch footprint across a call sequence.

    Complements the plan-level ``peak_memory_bytes`` (which tracks live
    *outputs*): kernels such as g-SpMM also materialise transient message
    buffers sized by the edge count, and the execution guard's memory
    budget must account for the biggest of them.  Transients don't
    accumulate — each kernel frees its scratch before the next runs — so
    the max, not the sum, is the right aggregate.
    """
    from ..kernels.registry import transient_bytes

    peak = 0.0
    for call in calls:
        peak = max(peak, transient_bytes(call.primitive, call.shape))
    return peak


# Graph vectors whose predictions a model set keeps (least recently priced
# goes first): the default plan-cache capacity, so a structure whose plan
# was evicted and comes back is still priced from memory.  A never-seen
# structure brings a never-seen vector, so without a bound a serving
# process grows by one table per miss, forever.
_PRICED_VECTORS = 128


def call_key(call: KernelCall) -> tuple:
    """What a prediction depends on besides the graph vector."""
    return (call.primitive, tuple(sorted(call.shape.items())))


# Layout of a saved model set (:meth:`CostModelSet.to_dict`).  A payload in
# any other layout — the row-per-node files of format 1 and the per-tree
# columns of format 2 included — is unreadable, so its file is quarantined
# and the models retrained.
_FORMAT = 3


class CostModelSet:
    """Per-primitive regressors for one device."""

    def __init__(
        self,
        device_name: str,
        models: Dict[str, GradientBoostedTrees],
        scale: Optional[str] = None,
    ) -> None:
        self.device_name = device_name
        # the profiling pool the models were trained on
        # (:attr:`ProfileDataset.scale`); None for caller-chosen graphs
        self.scale = scale
        self._models = models
        # graph-vector bytes -> {call key -> base seconds}
        self._memo: "OrderedDict[bytes, Dict[tuple, float]]" = OrderedDict()
        self._memo_lock = threading.Lock()

    @property
    def primitives(self) -> Tuple[str, ...]:
        return tuple(sorted(self._models))

    def to_dict(self) -> dict:
        """JSON-serialisable form: device, scale and each primitive's
        ensemble as the packed node columns its predictions read
        (:meth:`~repro.learn.gbt.GradientBoostedTrees.to_dict`)."""
        return {
            "format": _FORMAT,
            "device": self.device_name,
            "scale": self.scale,
            "models": {name: m.to_dict() for name, m in self._models.items()},
        }

    @classmethod
    def from_dict(
        cls, data: dict, device: Optional[str] = None, scale: Optional[str] = None
    ) -> "CostModelSet":
        """Rebuild a set saved by :meth:`to_dict`.

        With ``device`` / ``scale``, a payload trained for another device
        or scale is refused like an unreadable one (``ValueError``).
        """
        if data.get("format") != _FORMAT:
            raise ValueError(
                f"cost-model format {data.get('format')!r} != {_FORMAT}"
            )
        if device is not None and str(data["device"]).lower() != device.lower():
            raise ValueError(
                f"cost models for device {data['device']!r}, wanted {device!r}"
            )
        if scale is not None and data["scale"] != scale:
            raise ValueError(
                f"cost models for scale {data['scale']!r}, wanted {scale!r}"
            )
        return cls(
            data["device"],
            {
                name: GradientBoostedTrees.from_dict(model)
                for name, model in data["models"].items()
            },
            scale=data["scale"],
        )

    def prices(self, vec_bytes: bytes) -> Dict[tuple, float]:
        """The base predictions made so far against one graph vector.

        A caller pricing many calls against the same vector (one
        selection prices every viable candidate) fetches the table once
        and hands it to :meth:`predict_call`, instead of re-deriving the
        vector's bytes and re-finding its table per call.
        """
        with self._memo_lock:
            table = self._memo.get(vec_bytes)
            if table is None:
                table = self._memo[vec_bytes] = {}
                if len(self._memo) > _PRICED_VECTORS:
                    self._memo.popitem(last=False)
            else:
                self._memo.move_to_end(vec_bytes)
        return table

    def predict_call(
        self,
        call: KernelCall,
        graph_vec: np.ndarray,
        prices: Optional[Dict[tuple, float]] = None,
        key: Optional[tuple] = None,
    ) -> float:
        """Predicted execution time (seconds) of one invocation.

        ``key`` is ``call_key(call)`` when the caller already has it (a
        plan's :class:`~repro.core.plan.CallView` keeps one per call).
        """
        model = self._models.get(call.primitive)
        if model is None:
            raise KeyError(
                f"no cost model for primitive {call.primitive!r} on "
                f"{self.device_name}"
            )
        if prices is None:
            prices = self.prices(graph_vec.tobytes())
        if key is None:
            key = call_key(call)
        base = prices.get(key)
        if base is None:
            feats = call_features(call, graph_vec)
            # memoise the *base* prediction; the runtime-residual factor is
            # applied on the way out so autotune refinements take effect
            # without a cache flush
            base = prices[key] = float(np.exp(model.predict_one(feats)))
        return base * residual_factor(self.device_name, call.primitive)

    def predict_calls(
        self, calls: Iterable[KernelCall], graph_vec: np.ndarray, efficiency=None
    ) -> float:
        """Predicted total time of a call sequence.

        ``efficiency`` optionally maps each call to a system-specific
        multiplier (the baseline system's kernel efficiency).
        """
        prices = self.prices(graph_vec.tobytes())
        total = 0.0
        for call in calls:
            t = self.predict_call(call, graph_vec, prices)
            if efficiency is not None:
                t *= efficiency(call)
            total += t
        return total


def train_cost_models(
    device: Device,
    dataset: Optional[ProfileDataset] = None,
    num_rounds: int = 120,
    max_depth: int = 4,
    scale: str = "default",
    seed: int = 0,
) -> CostModelSet:
    """Fit one GBT per primitive from profiled data (paper §V).

    ``scale`` picks the profiled pool when no ``dataset`` is given; the
    set's :attr:`CostModelSet.scale` is the dataset's, so models fitted
    on caller-chosen graphs carry no scale.
    """
    if dataset is None:
        dataset = collect_profile(device, scale=scale)
    models: Dict[str, GradientBoostedTrees] = {}
    for primitive in dataset.primitives:
        x, y = dataset.matrices(primitive)
        # hold out a validation slice for early stopping, as the paper does
        rng = np.random.default_rng(seed)
        order = rng.permutation(x.shape[0])
        split = max(1, int(0.85 * x.shape[0]))
        train_idx, val_idx = order[:split], order[split:]
        model = GradientBoostedTrees(
            num_rounds=num_rounds,
            learning_rate=0.12,
            max_depth=max_depth,
            min_samples_leaf=3,
            subsample=0.9,
            early_stopping_rounds=15 if val_idx.size else None,
            seed=seed,
        )
        eval_set = (x[val_idx], y[val_idx]) if val_idx.size else None
        model.fit(x[train_idx], y[train_idx], eval_set=eval_set)
        models[primitive] = model
    return CostModelSet(device.name, models, scale=dataset.scale)


def save_cost_models(models: CostModelSet, path) -> None:
    """Persist a trained CostModelSet to a JSON file.

    This realises the paper's "one-time cost per target system": a
    production deployment trains once and ships the serialized models.
    The file is :meth:`CostModelSet.to_dict` (format 3): per primitive,
    the ensemble's packed node columns and per-tree offsets as raw
    little-endian bytes, so a load decodes arrays and rebuilds no tree.
    """
    import json
    from pathlib import Path

    # tmp + fsync + rename: a crash mid-save leaves the previous intact
    # file, never a truncated one that poisons the next start
    from ..state import atomic_write_text

    atomic_write_text(Path(path), json.dumps(models.to_dict()))


def load_cost_models(
    path, device: Optional[str] = None, scale: Optional[str] = None
) -> CostModelSet:
    """Load a CostModelSet saved with :func:`save_cost_models`; see
    :meth:`CostModelSet.from_dict` for ``device`` and ``scale``."""
    import json
    from pathlib import Path

    return CostModelSet.from_dict(
        json.loads(Path(path).read_text()), device=device, scale=scale
    )


_COST_MODEL_CACHE: Dict[Tuple[str, str], CostModelSet] = {}


def get_cost_models(
    device_name: str, scale: str = "default", cache_dir=None
) -> CostModelSet:
    """Trained cost models for a device, cached per process.

    This is the paper's "one-time cost per target system": the first call
    profiles the training pool and fits the models; later calls reuse
    them.  With ``cache_dir``, the models additionally persist to
    ``<cache_dir>/costmodels_<device>_<scale>.json`` across processes: a
    call that finds the set neither in the process nor in that file
    trains it, and any call with a ``cache_dir`` whose file is missing
    writes it (also when the set came from the process cache).  The
    file's name is not trusted: a file whose payload is for another
    device or scale (or in an old layout) is unreadable — quarantined,
    then retrained.
    """
    from pathlib import Path

    key = (device_name.lower(), scale)
    disk_path = None
    if cache_dir is not None:
        disk_path = Path(cache_dir) / f"costmodels_{key[0]}_{scale}.json"
    models = _COST_MODEL_CACHE.get(key)
    if models is None and disk_path is not None and disk_path.exists():
        # a truncated/corrupt cache file (crash mid-write by an older
        # version, disk fault) costs a retrain, not a crash
        try:
            models = load_cost_models(disk_path, device=key[0], scale=scale)
        except Exception as exc:
            from ..state import quarantine

            logger.warning(
                "cost-model cache %s unreadable (%s); quarantining and "
                "retraining",
                disk_path,
                exc,
            )
            quarantine(disk_path)
    if models is None:
        models = train_cost_models(get_device(device_name), scale=scale)
    _COST_MODEL_CACHE[key] = models
    if disk_path is not None and not disk_path.exists():
        disk_path.parent.mkdir(parents=True, exist_ok=True)
        save_cost_models(models, disk_path)
    return models


def clear_cost_model_cache() -> None:
    _COST_MODEL_CACHE.clear()
