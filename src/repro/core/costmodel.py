"""Learned per-primitive cost models (paper §IV-E2).

One gradient-boosted-tree regressor per (primitive, device), trained on
profiled log-times.  A plan's predicted cost is the sum of its calls'
predicted times — with graph-only setup amortised over the iteration
count — exactly the additive approximation the paper uses.

Each device's set is fitted to one timing source (paper §V: timings from
the target machine).  ``cpu`` plans run this repository's own kernels on
the host, so the ``cpu`` set is fitted to their measured wall clock
(``timing="host"``); a100 and h100, the paper's GPU testbeds, have only
their analytic profiles (``timing="analytic"``), which the simulated
experiments also use for ``cpu``.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware import get_device
from ..kernels import KernelCall
from ..learn import GradientBoostedTrees
from ..learn.gbt import Forest
from .features import call_halves
from .profiler import ProfileDataset, collect_profile

__all__ = [
    "CostModelSet",
    "HOST_DEVICE",
    "call_key",
    "default_timing",
    "clear_cost_model_cache",
    "get_cost_models",
    "load_cost_models",
    "save_cost_models",
    "train_cost_models",
]

logger = logging.getLogger(__name__)


def cost_model_token(device_name: str) -> str:
    """Always ``""``: a fitted cost-model set is the whole price, so
    there is no per-process state to version a serving fingerprint by.

    Kept only because ``bench/harness/serve_mix.py`` still passes it to
    ``fingerprint_graph(cost_token=)``.
    """
    return ""


# Graph vectors whose predictions a model set keeps (least recently priced
# goes first): the default plan-cache capacity, so a structure whose plan
# was evicted and comes back is still priced from memory.  A never-seen
# structure brings a never-seen vector, so without a bound a serving
# process grows by one table per miss, forever.
_PRICED_VECTORS = 128


def call_key(call: KernelCall) -> tuple:
    """What a prediction depends on besides the graph vector."""
    return (call.primitive, tuple(sorted(call.shape.items())))


# The device whose plans run on this host's kernels: its default cost
# models are fitted to their measured times.
HOST_DEVICE = "cpu"


def default_timing(device_name: str) -> str:
    """The timing source a device's cost models are fitted to by default:
    ``"host"`` for :data:`HOST_DEVICE`, ``"analytic"`` otherwise."""
    return "host" if device_name.lower() == HOST_DEVICE else "analytic"


def timing_source(device_name: str, timing: str):
    """What :func:`~repro.core.profiler.collect_profile` times a device's
    profile with: its analytic oracle, or this host's kernels."""
    if timing == "analytic":
        return get_device(device_name)
    if timing == "host" and device_name.lower() == HOST_DEVICE:
        from ..hardware.realexec import RealExecutionBackend

        return RealExecutionBackend()
    raise ValueError(
        f"no {timing!r} timing source for device {device_name!r} "
        f"(host timings exist for {HOST_DEVICE!r} only)"
    )


# Layout of a saved model set (:meth:`CostModelSet.to_dict`).  A payload in
# any other layout — the row-per-node files of format 1 and the per-tree
# columns of format 2 included — is unreadable, so its file is quarantined
# and the models retrained.
_FORMAT = 3


class CostModelSet:
    """Per-primitive regressors for one device.

    The regressors' packed ensembles are stacked into one
    :class:`~repro.learn.gbt.Forest` (each model's arrays become views of
    it), so any number of calls, whatever their primitives, is priced in
    one descent (:meth:`fill`).
    """

    def __init__(
        self,
        device_name: str,
        models: Dict[str, GradientBoostedTrees],
        scale: Optional[str] = None,
        timing: str = "analytic",
        aliases: Optional[Dict[str, str]] = None,
    ) -> None:
        self.device_name = device_name
        # the profiling pool the models were trained on
        # (:attr:`ProfileDataset.scale`); None for caller-chosen graphs
        self.scale = scale
        # the timing source ("analytic" or "host"), and the primitives
        # priced by another's model at their own shape because the source
        # runs them as that kernel (:attr:`ProfileDataset.aliases`)
        self.timing = timing
        self._aliases = dict(aliases or {})
        self._models = models
        self._forest = Forest(list(models.values()))
        # primitive -> the forest's ensemble that prices it; an alias
        # shares its target's trees
        self._ensemble = {name: i for i, name in enumerate(models)}
        for name, target in self._aliases.items():
            if target in self._ensemble:
                self._ensemble[name] = self._ensemble[target]
        # graph-vector bytes -> {call key -> predicted seconds}
        self._memo: "OrderedDict[bytes, Dict[tuple, float]]" = OrderedDict()
        self._memo_lock = threading.Lock()

    @property
    def primitives(self) -> Tuple[str, ...]:
        """Every primitive the set prices (aliases included)."""
        return tuple(sorted(set(self._models) | set(self._aliases)))

    def to_dict(self) -> dict:
        """JSON-serialisable form: device, scale and each primitive's
        ensemble as the packed node columns its predictions read
        (:meth:`~repro.learn.gbt.GradientBoostedTrees.to_dict`); a host
        set adds its timing and aliases."""
        data = {
            "format": _FORMAT,
            "device": self.device_name,
            "scale": self.scale,
        }
        if self.timing != "analytic":
            data.update(timing=self.timing, aliases=dict(self._aliases))
        data["models"] = {name: m.to_dict() for name, m in self._models.items()}
        return data

    @classmethod
    def from_dict(
        cls,
        data: dict,
        device: Optional[str] = None,
        scale: Optional[str] = None,
        timing: Optional[str] = None,
    ) -> "CostModelSet":
        """Rebuild a set saved by :meth:`to_dict`.

        With ``device`` / ``scale`` / ``timing``, a payload trained for
        another device, scale or timing source is refused like an
        unreadable one (``ValueError``).
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
        saved_timing = data.get("timing", "analytic")
        if timing is not None and saved_timing != timing:
            raise ValueError(
                f"cost models timed by {saved_timing!r}, wanted {timing!r}"
            )
        return cls(
            data["device"],
            {
                name: GradientBoostedTrees.from_dict(model)
                for name, model in data["models"].items()
            },
            scale=data["scale"],
            timing=saved_timing,
            aliases=data.get("aliases"),
        )

    def prices(self, vec_bytes: bytes) -> Dict[tuple, float]:
        """The predictions made so far against one graph vector.

        A caller pricing many calls against the same vector (one
        selection prices every viable candidate) fetches the table once
        and hands it to :meth:`fill`, instead of re-deriving the vector's
        bytes and re-finding its table per call.
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

    def fill(
        self,
        prices: Dict[tuple, float],
        keys: Sequence[tuple],
        calls: Sequence[KernelCall],
        graph_vec: np.ndarray,
    ) -> List[float]:
        """Predicted seconds of each call against one graph vector
        (``keys``: the calls' :func:`call_key` values).

        A key ``prices`` (:meth:`prices`) already holds is read from it;
        every other call is priced in one forest descent, each feature
        row the graph vector beside the call's half
        (:func:`~repro.core.features.call_halves`), and written to it.
        Each price is ``exp`` of its model's prediction, the float
        :meth:`~repro.learn.gbt.GradientBoostedTrees.predict_one` gives.
        """
        out = [prices.get(key) for key in keys]
        todo = [i for i, price in enumerate(out) if price is None]
        if not todo:
            return out
        which, priced = [], []
        for i in todo:
            call = calls[i]
            ensemble = self._ensemble.get(call.primitive)
            if ensemble is None:
                raise KeyError(
                    f"no cost model for primitive {call.primitive!r} on "
                    f"{self.device_name}"
                )
            alias = self._aliases.get(call.primitive)
            if alias is not None:
                # the same kernel as ``alias``: its model, at this shape
                call = KernelCall(alias, call.shape)
            which.append(ensemble)
            priced.append(call)
        halves = call_halves(priced)
        width = graph_vec.shape[0]
        x = np.empty((len(todo), width + halves.shape[1]))
        x[:, :width] = graph_vec
        x[:, width:] = halves
        new = np.exp(self._forest.predict(which, x)).tolist()
        for i, price in zip(todo, new):
            out[i] = prices[keys[i]] = price
        return out

    def predict_call(self, call: KernelCall, graph_vec: np.ndarray) -> float:
        """Predicted execution time (seconds) of one invocation
        (:meth:`fill` of one call)."""
        return self.fill(
            self.prices(graph_vec.tobytes()), [call_key(call)], [call], graph_vec
        )[0]

    def predict_calls(
        self, calls: Iterable[KernelCall], graph_vec: np.ndarray, efficiency=None
    ) -> float:
        """Predicted total time of a call sequence.

        ``efficiency`` optionally maps each call to a system-specific
        multiplier (the baseline system's kernel efficiency).
        """
        calls = list(calls)
        prices = self.fill(
            self.prices(graph_vec.tobytes()), [call_key(c) for c in calls],
            calls, graph_vec,
        )
        total = 0.0
        for call, t in zip(calls, prices):
            if efficiency is not None:
                t *= efficiency(call)
            total += t
        return total


def train_cost_models(
    source,
    dataset: Optional[ProfileDataset] = None,
    num_rounds: int = 120,
    max_depth: int = 4,
    scale: str = "default",
    seed: int = 0,
) -> CostModelSet:
    """Fit one GBT per primitive from profiled data (paper §V).

    ``source`` is the timing source (a :class:`~repro.hardware.Device`
    or a :class:`~repro.hardware.realexec.RealExecutionBackend`); its
    ``name`` names the set.  ``scale`` picks the profiled pool when no
    ``dataset`` is given; the set's :attr:`CostModelSet.scale`, timing
    and aliases are the dataset's, so models fitted on caller-chosen
    graphs carry no scale.
    """
    if dataset is None:
        dataset = collect_profile(source, scale=scale)
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
    return CostModelSet(
        source.name, models, scale=dataset.scale,
        timing=dataset.timing, aliases=dataset.aliases,
    )


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
    path,
    device: Optional[str] = None,
    scale: Optional[str] = None,
    timing: Optional[str] = None,
) -> CostModelSet:
    """Load a CostModelSet saved with :func:`save_cost_models`; see
    :meth:`CostModelSet.from_dict` for ``device``, ``scale`` and
    ``timing``."""
    import json
    from pathlib import Path

    return CostModelSet.from_dict(
        json.loads(Path(path).read_text()), device=device, scale=scale,
        timing=timing,
    )


_COST_MODEL_CACHE: Dict[Tuple[str, str, str], CostModelSet] = {}


def get_cost_models(
    device_name: str,
    scale: str = "default",
    cache_dir=None,
    timing: Optional[str] = None,
) -> CostModelSet:
    """Trained cost models for a device, cached per process.

    This is the paper's "one-time cost per target system": the first call
    profiles the training pool and fits the models; later calls reuse
    them, so a process fits each (device, scale, timing) at most once.
    ``timing`` is the source the profile is timed with (default
    :func:`default_timing`: this host's kernels for ``cpu``, the analytic
    profile for the GPUs); ``timing="analytic"`` gives ``cpu``'s
    simulated-Xeon set.  With ``cache_dir``, the models additionally
    persist to ``<cache_dir>/costmodels_<device>_<scale>.json`` (a
    non-default timing adds ``_<timing>`` after the device) across
    processes: a call that finds the set neither in the process nor in
    that file trains it, and any call with a ``cache_dir`` whose file is
    missing writes it (also when the set came from the process cache).
    The file's name is not trusted: a file whose payload is for another
    device, scale or timing (or in an old layout) is unreadable —
    quarantined, then retrained.
    """
    from pathlib import Path

    device = device_name.lower()
    timing = timing or default_timing(device)
    key = (device, scale, timing)
    disk_path = None
    if cache_dir is not None:
        label = device if timing == default_timing(device) else f"{device}_{timing}"
        disk_path = Path(cache_dir) / f"costmodels_{label}_{scale}.json"
    models = _COST_MODEL_CACHE.get(key)
    if models is None and disk_path is not None and disk_path.exists():
        # a truncated/corrupt cache file (crash mid-write by an older
        # version, disk fault) costs a retrain, not a crash
        try:
            models = load_cost_models(
                disk_path, device=device, scale=scale, timing=timing
            )
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
        models = train_cost_models(timing_source(device, timing), scale=scale)
    _COST_MODEL_CACHE[key] = models
    if disk_path is not None and not disk_path.exists():
        disk_path.parent.mkdir(parents=True, exist_ok=True)
        save_cost_models(models, disk_path)
    return models


def clear_cost_model_cache() -> None:
    _COST_MODEL_CACHE.clear()
