"""Loss functions for node-classification training."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, _elementwise, _zeros

__all__ = ["cross_entropy", "nll_loss", "mse_loss"]


def _loss_rows(n: int, labels: np.ndarray, mask: Optional[np.ndarray]):
    """The rows a loss averages over and their integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError("labels must be one integer per row")
    rows = np.arange(n) if mask is None else np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("loss mask selects no rows")
    return rows, labels[rows]


def nll_loss(log_probs: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Negative log-likelihood of integer labels, averaged over (masked) rows."""
    rows, picked = _loss_rows(log_probs.data.shape[0], labels, mask)
    return -log_probs[(rows, picked)].sum() * (1.0 / rows.size)


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax cross-entropy from raw ``(n, classes)`` logits.

    One tape node with the value and gradient of
    ``nll_loss(log_softmax(logits), labels, mask)``: a max-shift, one
    ``exp`` pass, log-sum-exp and a gather of the labelled logits.  The
    gradient ``(softmax − onehot) · g / |rows|`` (zero on unselected rows)
    is written into the forward's ``exp`` buffer, which the node hands
    over; a later sweep over the same node recomputes the buffer.
    """
    x = logits.data
    rows, picked = _loss_rows(x.shape[0], labels, mask)
    row_max = x.max(axis=1)

    def shifted_exp() -> np.ndarray:
        exps = _elementwise(np.subtract, x, row_max[:, None])
        return np.exp(exps, out=exps)

    exps = shifted_exp()
    denom = exps.sum(axis=1)
    value = (np.log(denom[rows]) + row_max[rows] - x[rows, picked]).sum() / rows.size
    saved = [exps]

    def vjp(g: np.ndarray) -> np.ndarray:
        out = saved.pop() if saved else shifted_exp()
        scale = _zeros((x.shape[0],))
        scale[rows] = g / (rows.size * denom[rows])
        out *= scale[:, None]
        out[rows, picked] -= g / rows.size
        return out

    return Tensor.make(value, (logits,), (vjp,), "cross_entropy")


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).sum() * (1.0 / pred.data.size)
