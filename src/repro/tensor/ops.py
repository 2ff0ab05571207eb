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
    return Tensor.make(
        np.maximum(x.data, 0.0), (x,), (lambda g: g * (x.data > 0),), "relu"
    )


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    mask = x.data > 0
    return Tensor.make(
        np.where(mask, x.data, negative_slope * x.data),
        (x,),
        (lambda g: g * np.where(mask, 1.0, negative_slope),),
        "leaky_relu",
    )


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    return Tensor.make(
        np.where(x.data > 0, x.data, neg),
        (x,),
        (lambda g: g * np.where(x.data > 0, 1.0, neg + alpha),),
        "elu",
    )


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return Tensor.make(out_data, (x,), (lambda g: g * out_data,), "exp")


def log(x: Tensor) -> Tensor:
    return Tensor.make(np.log(x.data), (x,), (lambda g: g / x.data,), "log")


def sigmoid(x: Tensor) -> Tensor:
    out_data = np.empty_like(x.data)
    pos = x.data >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    return Tensor.make(
        out_data, (x,), (lambda g: g * out_data * (1.0 - out_data),), "sigmoid"
    )


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    out_data = x.data - np.max(x.data, axis=axis, keepdims=True)
    out_data -= np.log(np.sum(np.exp(out_data), axis=axis, keepdims=True))

    def vjp(g: np.ndarray) -> np.ndarray:
        # softmax is exp of the output: computed here, where a training
        # step needs it, not in every forward
        return g - np.exp(out_data) * g.sum(axis=axis, keepdims=True)

    return Tensor.make(out_data, (x,), (vjp,), "log_softmax")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return Tensor.make(x.data * mask, (x,), (lambda g: g * mask,), "dropout")


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis (used by TAGCN's hop stack)."""
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def slice_vjp(start: int, stop: int):
        def vjp(g: np.ndarray) -> np.ndarray:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            return g[tuple(slicer)]

        return vjp

    return Tensor.make(
        np.concatenate([t.data for t in tensors], axis=axis),
        tensors,
        [slice_vjp(a, b) for a, b in zip(offsets[:-1], offsets[1:])],
        "concat",
    )
