"""Binding builders: map model layers onto plan leaf values.

A plan's leaves are symbolic names (A, D, Eps, H, W, W0..); executing it
for a concrete layer requires the runtime values behind those names plus,
for GAT, the attention sub-program closure.  This module knows each model
type's mapping.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..framework import MPGraph
from ..kernels import norm_diagonal
from ..models import (
    APPNPLayer,
    GATLayer,
    GCNLayer,
    GINLayer,
    SAGELayer,
    SGCLayer,
    TAGCNLayer,
)
from ..sparse import CSRMatrix, DiagonalMatrix
from ..tensor import Tensor, attention_aggregate, gsddmm_add_uv, leaky_relu
from ..tensor import edge_softmax as t_edge_softmax
from .plan import LEAF_CACHE_KEY, EdgeSparse, LayerBinding

__all__ = ["build_binding", "model_ir_name", "model_ir_kwargs"]


_IR_NAMES = {
    GCNLayer: "gcn",
    GINLayer: "gin",
    SGCLayer: "sgc",
    TAGCNLayer: "tagcn",
    GATLayer: "gat",
    SAGELayer: "sage",
    APPNPLayer: "appnp",
}


def model_ir_name(layer) -> str:
    """The IR-builder name for a layer instance."""
    name = _IR_NAMES.get(type(layer))
    if name is not None:
        return name
    for cls, name in _IR_NAMES.items():  # a subclass of a zoo layer
        if isinstance(layer, cls):
            return name
    raise TypeError(f"GRANII has no IR builder for {type(layer).__name__}")


def model_ir_kwargs(layer) -> Dict[str, object]:
    """Hyper-parameters that change the layer's IR shape."""
    name = model_ir_name(layer)
    if name in ("gcn", "gat", "gin", "sage"):
        return {"activation": layer.activation}
    if name in ("sgc", "tagcn", "appnp"):
        return {"hops": layer.hops}
    return {}


def _scores(layer: GATLayer, theta: Tensor):
    """Per-node attention scores ``(a_l·Θ_i, a_r·Θ_j)``."""
    score_dst = (theta @ layer.attn_l.reshape(-1, 1)).reshape(-1)
    score_src = (theta @ layer.attn_r.reshape(-1, 1)).reshape(-1)
    return score_dst, score_src


def _gat_fused_attention_fn(layer: GATLayer):
    """The fused variant: scores → logits → softmax → aggregate, one step."""

    def fused(pattern: CSRMatrix, theta: Tensor, value: Tensor) -> Tensor:
        return attention_aggregate(
            pattern, *_scores(layer, theta), value, layer.negative_slope
        )

    return fused


def _gat_attention_fn(layer: GATLayer):
    """The attention sub-program (Equation 4) as a plan closure."""

    def attention(pattern: CSRMatrix, theta: Tensor) -> EdgeSparse:
        logits = gsddmm_add_uv(pattern, *_scores(layer, theta))
        logits = leaky_relu(logits, layer.negative_slope)
        return EdgeSparse(pattern, t_edge_softmax(pattern, logits))

    return attention


def _norm_diag(
    adj: CSRMatrix, power: float, degree_method: str = "indptr"
) -> DiagonalMatrix:
    """Degree diagonal; weighted adjacencies use weighted degrees."""
    if adj.is_weighted:
        from ..sparse import degree_vector

        return DiagonalMatrix(degree_vector(adj, "out")).power(power)
    return norm_diagonal(adj, power, method=degree_method)


def build_binding(
    layer,
    g: MPGraph,
    feat,
    degree_method: str = "indptr",
    setup_cache: Optional[dict] = None,
) -> LayerBinding:
    """Runtime leaf values for one (layer, graph, features) triple.

    The features and weights are bound as Tensors (an ndarray ``feat``
    is wrapped), the values :meth:`Plan.execute` runs on.

    Weighted adjacencies are preserved for the convolutional models
    (their plans compile against a weighted A leaf); GAT always operates
    on the pattern — its attention defines the edge values.
    ``degree_method`` selects the degree kernel behind the D/Dm/Ds leaves
    ('indptr' | 'binning'), matching the system personality executing the
    plan.

    ``setup_cache`` is the per-graph cache the caller also hands to
    :meth:`Plan.execute`: the graph-only diagonal leaves (the degree
    diagonals, GIN's ``Eps``, APPNP's ``T``) are built once into its
    :data:`~repro.core.plan.LEAF_CACHE_KEY` slot.  The cache belongs to
    one graph, so a key names only what else a leaf depends on: the
    degree method, and the layer state (``eps``, ``alpha``) it scales by.
    A's pattern view is *not* kept: it is a few microseconds to make, and
    a view that outlives the call keeps its transpose memo with it, which
    a training step is better off allocating and freeing with the rest of
    its tape (docs/PERFORMANCE.md, "Where a training step goes").
    """
    leaves = (
        None if setup_cache is None
        else setup_cache.setdefault(LEAF_CACHE_KEY, {})
    )

    def leaf(key, build):
        if leaves is None:
            return build()
        value = leaves.get(key)
        if value is None:
            value = leaves[key] = build()
        return value

    def norm(power: float) -> DiagonalMatrix:
        return leaf(
            ("D", power, degree_method),
            lambda: _norm_diag(adj, power, degree_method),
        )

    name = model_ir_name(layer)
    adj = g.adj if g.adj.is_weighted and name != "gat" else g.adj.unweighted()
    if not isinstance(feat, Tensor):
        feat = Tensor(feat)
    values: Dict[str, object] = {"A": adj, "H": feat}
    if name in ("gcn", "sgc"):
        values["D"] = norm(-0.5)
        values["W"] = layer.linear.weight
        return LayerBinding(values)
    if name == "tagcn":
        values["D"] = norm(-0.5)
        for i, filt in enumerate(layer.filters):
            values[f"W{i}"] = filt.weight
        return LayerBinding(values)
    if name == "gin":
        scale = 1.0 + layer.eps
        values["Eps"] = leaf(
            ("Eps", scale),
            lambda: DiagonalMatrix(np.full(adj.shape[0], scale)),
        )
        values["W"] = layer.linear.weight
        return LayerBinding(values)
    if name == "gat":
        values["W"] = layer.linear.weight
        return LayerBinding(
            values,
            attention_fn=_gat_attention_fn(layer),
            fused_attention_fn=_gat_fused_attention_fn(layer),
        )
    if name == "sage":
        values["Dm"] = norm(-1.0)
        values["Wself"] = layer.self_linear.weight
        values["Wneigh"] = layer.neigh_linear.weight
        return LayerBinding(values)
    if name == "appnp":
        alpha = layer.alpha
        d = norm(-0.5)
        values["D"] = d
        values["Ds"] = leaf(
            ("Ds", alpha, degree_method),
            lambda: DiagonalMatrix((1.0 - alpha) * d.diag),
        )
        values["T"] = leaf(
            ("T", alpha),
            lambda: DiagonalMatrix(np.full(adj.shape[0], alpha)),
        )
        values["W"] = layer.linear.weight
        return LayerBinding(values)
    raise TypeError(f"no binding builder for model {name!r}")
