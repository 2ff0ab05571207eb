"""Dense autograd operations beyond Tensor's operator overloads."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "relu",
    "leaky_relu",
    "elu",
    "exp",
    "log",
    "sigmoid",
    "log_softmax",
    "dropout",
    "concat",
]


def relu(x: Tensor) -> Tensor:
    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * (x.data > 0))

    return Tensor.make(np.maximum(x.data, 0.0), (x,), backward, "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    mask = x.data > 0

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * np.where(mask, 1.0, negative_slope))

    return Tensor.make(
        np.where(mask, x.data, negative_slope * x.data), (x,), backward, "leaky_relu"
    )


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, neg)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * np.where(x.data > 0, 1.0, neg + alpha))

    return Tensor.make(out_data, (x,), backward, "elu")


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * out_data)

    return Tensor.make(out_data, (x,), backward, "exp")


def log(x: Tensor) -> Tensor:
    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad / x.data)

    return Tensor.make(np.log(x.data), (x,), backward, "log")


def sigmoid(x: Tensor) -> Tensor:
    out_data = np.empty_like(x.data)
    pos = x.data >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * out_data * (1.0 - out_data))

    return Tensor.make(out_data, (x,), backward, "sigmoid")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    softmax = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return Tensor.make(out_data, (x,), backward, "log_softmax")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * mask)

    return Tensor.make(x.data * mask, (x,), backward, "dropout")


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis (used by TAGCN's hop stack)."""
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t.accumulate_grad(grad[tuple(slicer)])

    return Tensor.make(
        np.concatenate([t.data for t in tensors], axis=axis),
        tuple(tensors),
        backward,
        "concat",
    )
