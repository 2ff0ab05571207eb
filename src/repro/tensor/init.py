"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros"]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a (fan_in × fan_out) matrix."""
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape)  # lint: allow(raw-alloc-in-tensor)
