"""Dense autograd operations beyond Tensor's operator overloads."""

from __future__ import annotations

import numpy as np

from ..kernels.workspace import step_buffer
from .tensor import Tensor, _elementwise

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


def _positive(x: np.ndarray) -> np.ndarray:
    """The pooled boolean mask ``x > 0``."""
    return np.greater(x, 0.0, out=step_buffer(x.shape, np.bool_))


def _select(mask: np.ndarray, chosen, other: np.ndarray) -> np.ndarray:
    """``np.where(mask, chosen, other)`` written into ``other``, which the
    caller owns; ``chosen`` may be a scalar."""
    np.copyto(other, chosen, where=mask)
    return other


def relu(x: Tensor) -> Tensor:
    return Tensor.make(
        np.maximum(x.data, 0.0, out=step_buffer(x.data.shape)),
        (x,),
        (lambda g: _elementwise(np.multiply, g, _positive(x.data)),),
        "relu",
    )


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    mask = _positive(x.data)

    def scaled(a: np.ndarray) -> np.ndarray:
        """``where(mask, a, slope * a)``: the forward of ``x``, and of a
        gradient ``g * where(mask, 1.0, slope)`` — ``g * 1.0`` is ``g``."""
        scaled_a = np.multiply(a, negative_slope, out=step_buffer(a.shape))
        return _select(mask, a, scaled_a)

    return Tensor.make(scaled(x.data), (x,), (scaled,), "leaky_relu")


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = np.minimum(x.data, 0.0, out=step_buffer(x.data.shape))
    np.exp(neg, out=neg)
    np.subtract(neg, 1.0, out=neg)
    np.multiply(alpha, neg, out=neg)

    def vjp(g: np.ndarray) -> np.ndarray:
        slope = np.add(neg, alpha, out=step_buffer(neg.shape))
        return np.multiply(g, _select(_positive(x.data), 1.0, slope), out=slope)

    out = step_buffer(neg.shape)
    np.copyto(out, neg)
    return Tensor.make(_select(_positive(x.data), x.data, out), (x,), (vjp,), "elu")


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return Tensor.make(out_data, (x,), (lambda g: g * out_data,), "exp")


def log(x: Tensor) -> Tensor:
    return Tensor.make(np.log(x.data), (x,), (lambda g: g / x.data,), "log")


def sigmoid(x: Tensor) -> Tensor:
    out_data = step_buffer(x.data.shape)
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
