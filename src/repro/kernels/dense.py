"""Dense matrix primitives (paper §II-A).

All inputs and outputs here are dense NumPy arrays.  The heavyweight
primitive is GEMM; element-wise non-linearities are also provided because
they delimit re-association regions in the IR (non-linearities are
association barriers, §IV-B).  These are the only ones: their results
and scratch come from the step pool, and ``leaky_relu``/``elu`` are
arithmetic, bitwise equal to ``np.where(x > 0, x, f(x))`` (DESIGN.md,
"One implementation per non-linearity").
"""

from __future__ import annotations

import numpy as np

from .workspace import step_buffer

__all__ = [
    "gemm",
    "elementwise_add",
    "elementwise_mul",
    "relu",
    "relu_vjp",
    "leaky_relu",
    "leaky_relu_vjp",
    "elu",
    "elu_vjp",
    "sigmoid",
    "softmax_rows",
    "log_softmax_rows",
    "gemm_flops",
]


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General matrix-matrix multiplication ``A @ B``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("gemm expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"gemm shape mismatch: {a.shape} @ {b.shape}")
    return a @ b


def gemm_flops(m: int, k: int, n: int) -> int:
    """Multiply-add count of an (m×k)·(k×n) GEMM."""
    return 2 * m * k * n


def elementwise_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.asarray(a, np.float64) + np.asarray(b, np.float64)


def elementwise_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.asarray(a, np.float64) * np.asarray(b, np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=step_buffer(x.shape))


def leaky_relu(x: np.ndarray, negative_slope: float = 0.2) -> np.ndarray:
    """``max(x, s·x)`` for 0 < s ≤ 1, ``min`` above; at s ≤ 0 the where
    form stays (``0·inf`` is NaN, which max would return for +inf)."""
    scaled = np.multiply(x, negative_slope, out=step_buffer(x.shape))
    if negative_slope > 0:
        return (np.maximum if negative_slope <= 1 else np.minimum)(x, scaled, out=scaled)
    np.copyto(scaled, x, where=x > 0)  # lint: allow(masked-select-in-hot-path)
    return scaled


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """``max(x, 0) + α·(exp(min(x, 0)) − 1)``."""
    above = np.maximum(x, 0.0, out=step_buffer(x.shape))
    below = np.minimum(x, 0.0, out=step_buffer(x.shape))
    np.exp(below, out=below)
    np.subtract(below, 1.0, out=below)
    np.multiply(alpha, below, out=below)
    return np.add(above, below, out=below)


def relu_vjp(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    above = np.greater(x, 0.0, out=step_buffer(x.shape, np.bool_))
    return np.multiply(g, above, out=step_buffer(x.shape))


def leaky_relu_vjp(x: np.ndarray, g: np.ndarray, negative_slope=0.2) -> np.ndarray:
    """``g·(s·(x ≤ 0) + (x > 0))``, NaN on the ``x ≤ 0`` side; the only
    place an activation builds the ``x > 0`` mask."""
    above = np.greater(x, 0.0, out=step_buffer(x.shape, np.bool_))
    rest = np.logical_not(above, out=step_buffer(x.shape, np.bool_))
    factor = np.multiply(negative_slope, rest, out=step_buffer(x.shape))
    np.add(factor, above, out=factor)
    return np.multiply(g, factor, out=factor)


def elu_vjp(y: np.ndarray, g: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """The same with ``s = min(y, 0) + α``, from the forward's output."""
    slope = np.minimum(y, 0.0, out=step_buffer(y.shape))
    return leaky_relu_vjp(y, g, np.add(slope, alpha, out=slope))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = step_buffer(x.shape)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax_rows(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
