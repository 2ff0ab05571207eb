"""Model registry and multi-layer composition."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..framework import GNNModule, MPGraph
from ..tensor import Tensor
from .appnp import APPNPLayer
from .gat import GATLayer
from .gcn import GCNLayer
from .gin import GINLayer
from .sage import SAGELayer
from .sgc import SGCLayer
from .tagcn import TAGCNLayer

__all__ = ["GNNStack", "MODEL_NAMES", "MultiLayerGNN", "build_layer", "uses_self_loops"]

_LAYERS: Dict[str, Callable[..., GNNModule]] = {
    "gcn": GCNLayer,
    "gin": GINLayer,
    "sgc": SGCLayer,
    "tagcn": TAGCNLayer,
    "gat": GATLayer,
    "sage": SAGELayer,
    "appnp": APPNPLayer,
}

MODEL_NAMES = ("gcn", "gin", "sgc", "tagcn", "gat")  # the five evaluated models


def build_layer(
    name: str,
    in_size: int,
    out_size: int,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> GNNModule:
    """Construct one GNN layer by model name."""
    name = name.lower()
    if name not in _LAYERS:
        raise KeyError(f"unknown model {name!r}; choices: {sorted(_LAYERS)}")
    return _LAYERS[name](in_size, out_size, rng=rng, **kwargs)


def uses_self_loops(name: str) -> bool:
    """Whether the model aggregates over Ã = A + I.

    GIN replaces self-loops with its (1+ε) self term; GraphSAGE carries an
    explicit self branch.
    """
    return name.lower() not in ("gin", "sage")


class MultiLayerGNN(GNNModule):
    """A stack of same-type GNN layers (§VI-D / §VI-F).

    GRANII optimises each layer independently; chained decisions follow
    from chaining per-layer plans, so the stack simply applies layers in
    sequence over the same graph.
    """

    def __init__(
        self,
        name: str,
        sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("need at least (in_size, out_size)")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name.lower()
        self.wants_self_loops = uses_self_loops(self.name)
        self.layers: List[GNNModule] = []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            layer_kwargs = dict(kwargs)
            if self.name in ("gcn", "gin", "gat") and i == len(sizes) - 2:
                layer_kwargs.setdefault("activation", False)  # logits out
            self.layers.append(build_layer(self.name, a, b, rng=rng, **layer_kwargs))

    def forward(self, g: MPGraph, feat: Tensor) -> Tensor:
        h = feat
        for layer in self.layers:
            h = layer(g, h)
        return h

    # each layer reads the one before it: only the first reads the input
    granii_stacked = True

    def granii_layers(self):
        return list(self.layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)


class GNNStack(GNNModule):
    """A heterogeneous stack of GNN layers (e.g. GCN -> GAT -> GIN).

    GRANII optimises each layer independently via ``granii_layers``.
    Layers can have different self-loop policies, so the stack forwards
    the *raw* graph and lets each sub-layer wrap it (self-loops or not)
    itself.
    """

    def __init__(self, layers: Sequence[GNNModule]) -> None:
        super().__init__()
        if not layers:
            raise ValueError("GNNStack needs at least one layer")
        self.layers = list(layers)
        self.in_size = layers[0].in_size
        self.out_size = layers[-1].out_size

    def __call__(self, graph, feat, *args, **kwargs):
        if not isinstance(feat, Tensor):
            feat = Tensor(feat)
        h = feat
        for layer in self.layers:
            h = layer(graph, h)
        return h

    forward = __call__

    # each layer reads the one before it: only the first reads the input
    granii_stacked = True

    def granii_layers(self):
        return list(self.layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)
