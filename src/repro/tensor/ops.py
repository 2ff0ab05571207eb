"""Dense autograd operations beyond Tensor's operator overloads."""

from __future__ import annotations

from functools import partial

import numpy as np

from ..kernels import dense
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
    return Tensor.make(dense.relu(x.data), (x,), (partial(dense.relu_vjp, x.data),), "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    vjp = partial(dense.leaky_relu_vjp, x.data, negative_slope=negative_slope)
    return Tensor.make(dense.leaky_relu(x.data, negative_slope), (x,), (vjp,), "leaky_relu")


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    out = dense.elu(x.data, alpha)
    return Tensor.make(out, (x,), (partial(dense.elu_vjp, out, alpha=alpha),), "elu")


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return Tensor.make(out_data, (x,), (lambda g: g * out_data,), "exp")


def log(x: Tensor) -> Tensor:
    return Tensor.make(np.log(x.data), (x,), (lambda g: g / x.data,), "log")


def sigmoid(x: Tensor) -> Tensor:
    out = dense.sigmoid(x.data)
    return Tensor.make(out, (x,), (lambda g: g * out * (1.0 - out),), "sigmoid")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    out_data = dense.log_softmax_rows(x.data, axis)

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
