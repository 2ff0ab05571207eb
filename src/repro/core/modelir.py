"""Matrix-IR builders for the model zoo.

Each builder returns the IR of one layer *as written* in the
message-passing baseline — row-broadcasts and all — so the rewrite pass
has real work to do.  The frontend (``repro.core.frontend``) produces the
same IR by parsing the model's ``forward`` source; both paths are
cross-checked in the tests.

Symbolic dimensions: ``N`` nodes, ``K1`` input embedding, ``K2`` output
embedding, ``E`` stored nonzeros of the aggregated adjacency.
"""

from __future__ import annotations

from typing import List

from .ir import (
    Add,
    Attention,
    IRNode,
    MatMul,
    Nonlinear,
    RowBroadcast,
    dense_data,
    dense_weight,
    diagonal,
    sparse_unweighted,
    sparse_weighted,
)

__all__ = ["build_model_ir", "MODEL_IR_BUILDERS"]


def _adjacency(weighted: bool):
    """The adjacency leaf; Table I's weighted sub-attribute drives the
    rule table toward `spmm` instead of `spmm_unweighted`."""
    if weighted:
        return sparse_weighted("A", "N", "N", "E")
    return sparse_unweighted("A", "N", "N", "E")


def _common_leaves(weighted: bool = False):
    adj = _adjacency(weighted)
    norm = diagonal("D", "N")
    feat = dense_data("H", "N", "K1")
    return adj, norm, feat


def gcn_ir(hops: int = 1, activation: bool = True, weighted: bool = False) -> IRNode:
    """σ(rb(D, A · rb(D, H) · W)) — the dynamic-normalization source form."""
    adj, norm, feat = _common_leaves(weighted)
    weight = dense_weight("W", "K1", "K2")
    body: IRNode = MatMul((adj, RowBroadcast(norm, feat), weight))
    body = RowBroadcast(norm, body)
    return Nonlinear("relu", body) if activation else body


def sgc_ir(hops: int = 2, weighted: bool = False) -> IRNode:
    """(rb(D, A·rb(D, ·)))^hops then W; no nonlinearity by design."""
    adj, norm, feat = _common_leaves(weighted)
    weight = dense_weight("W", "K1", "K2")
    h: IRNode = feat
    for _ in range(hops):
        h = RowBroadcast(norm, MatMul((adj, RowBroadcast(norm, h))))
    return MatMul((h, weight))


def tagcn_ir(hops: int = 2, weighted: bool = False) -> IRNode:
    """Σ_l Ñ^l H W_l with per-hop weights."""
    adj, norm, feat = _common_leaves(weighted)
    terms: List[IRNode] = [MatMul((feat, dense_weight("W0", "K1", "K2")))]
    h: IRNode = feat
    for l in range(1, hops + 1):
        h = RowBroadcast(norm, MatMul((adj, RowBroadcast(norm, h))))
        terms.append(MatMul((h, dense_weight(f"W{l}", "K1", "K2"))))
    return Add(tuple(terms))


def gin_ir(activation: bool = True, weighted: bool = False) -> IRNode:
    """σ(((1+ε)I + A) · H · W); Eps is the (1+ε) diagonal."""
    adj = _adjacency(weighted)
    eps = diagonal("Eps", "N")
    feat = dense_data("H", "N", "K1")
    weight = dense_weight("W", "K1", "K2")
    body: IRNode = MatMul((Add((adj, eps)), feat, weight))
    return Nonlinear("relu", body) if activation else body


def sage_ir(activation: bool = True) -> IRNode:
    """GraphSAGE-mean: ``σ(H·Ws + (D^{-1}·A·H)·Wn)``.

    ``Dm`` is the inverse-degree diagonal; associating (Dm·A) precomputes
    the row-normalised (mean) adjacency, while the dynamic alternative
    broadcasts after aggregating — the same normalization trade-off as
    GCN, on the neighbor branch only.
    """
    adj = sparse_unweighted("A", "N", "N", "E")
    mean_diag = diagonal("Dm", "N")
    feat = dense_data("H", "N", "K1")
    w_self = dense_weight("Wself", "K1", "K2")
    w_neigh = dense_weight("Wneigh", "K1", "K2")
    body: IRNode = Add(
        (
            MatMul((feat, w_self)),
            MatMul((mean_diag, adj, feat, w_neigh)),
        )
    )
    return Nonlinear("relu", body) if activation else body


def appnp_ir(hops: int = 2) -> IRNode:
    """APPNP: Z_{k+1} = (1-α)·Ñ·Z_k + α·Z_0 with Z_0 = H·W.

    ``Ds`` is the (1-α)-scaled left normalization diagonal and ``T`` the
    α teleport diagonal; both are constants of the (graph, α) pair, so
    their associations amortise like any other graph-only setup.
    """
    adj = sparse_unweighted("A", "N", "N", "E")
    norm = diagonal("D", "N")
    scaled_norm = diagonal("Ds", "N")
    teleport = diagonal("T", "N")
    feat = dense_data("H", "N", "K1")
    weight = dense_weight("W", "K1", "K2")
    z0: IRNode = MatMul((feat, weight))
    z: IRNode = z0
    for _ in range(hops):
        z = Add((MatMul((scaled_norm, adj, norm, z)), MatMul((teleport, z0))))
    return z


def gat_ir(activation: bool = True) -> IRNode:
    """σ(Atten(A, H·W) · H · W) — the reuse/recompute ambiguity is in
    whether the trailing H·W association resolves to the prelude's Θ."""
    adj = sparse_unweighted("A", "N", "N", "E")
    feat = dense_data("H", "N", "K1")
    weight = dense_weight("W", "K1", "K2")
    theta = MatMul((feat, weight))
    alpha = Attention(adj, theta)
    body: IRNode = MatMul((alpha, feat, weight))
    return Nonlinear("elu", body) if activation else body


MODEL_IR_BUILDERS = {
    "gcn": gcn_ir,
    "sgc": sgc_ir,
    "tagcn": tagcn_ir,
    "gin": gin_ir,
    "gat": gat_ir,
    "sage": sage_ir,
    "appnp": appnp_ir,
}


def build_model_ir(name: str, **kwargs) -> IRNode:
    """IR of one layer of the named model (pre-rewrite, source form)."""
    name = name.lower()
    if name not in MODEL_IR_BUILDERS:
        raise KeyError(
            f"no IR builder for model {name!r}; choices: {sorted(MODEL_IR_BUILDERS)}"
        )
    return MODEL_IR_BUILDERS[name](**kwargs)
