"""Generalized semiring operators for g-SpMM and g-SDDMM.

DGL showed that all sparse computations needed by message-passing GNNs can
be expressed with two primitives — g-SpMM and g-SDDMM — parameterised by a
reduction operator ``⊕`` and a message (binary) operator ``⊗`` drawn from a
semiring (paper §II-B).  This module defines those operator vocabularies.

The binary operators follow DGL's naming: ``mul``/``add``/``sub``/``div``
combine the two operands, while ``copy_lhs``/``copy_rhs`` ignore one of
them.  ``copy_lhs`` on an unweighted adjacency is what makes the cheaper
"no edge values" aggregation of Appendix B possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

__all__ = [
    "BinaryOp",
    "ReduceOp",
    "Semiring",
    "BINARY_OPS",
    "REDUCE_OPS",
    "get_semiring",
]


@dataclass(frozen=True)
class BinaryOp:
    """A generalized multiplication ``⊗`` combining edge and node operands."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    uses_lhs: bool
    uses_rhs: bool

    def __call__(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.fn(lhs, rhs)


@dataclass(frozen=True)
class ReduceOp:
    """A generalized addition ``⊕`` reducing messages per destination."""

    name: str
    identity: float
    # ufunc used with indexed accumulation, or None for mean (handled
    # specially: sum followed by a degree division).
    ufunc: Callable

    @property
    def is_mean(self) -> bool:
        return self.name == "mean"


BINARY_OPS: Dict[str, BinaryOp] = {
    "mul": BinaryOp("mul", lambda a, b: a * b, True, True),
    "add": BinaryOp("add", lambda a, b: a + b, True, True),
    "sub": BinaryOp("sub", lambda a, b: a - b, True, True),
    "div": BinaryOp("div", lambda a, b: a / b, True, True),
    "copy_lhs": BinaryOp("copy_lhs", lambda a, b: a, True, False),
    "copy_rhs": BinaryOp("copy_rhs", lambda a, b: b, False, True),
}

REDUCE_OPS: Dict[str, ReduceOp] = {
    "sum": ReduceOp("sum", 0.0, np.add),
    "max": ReduceOp("max", -np.inf, np.maximum),
    "min": ReduceOp("min", np.inf, np.minimum),
    "mean": ReduceOp("mean", 0.0, np.add),
}


@dataclass(frozen=True)
class Semiring:
    """A (⊕, ⊗) pair, e.g. ``Semiring(sum, mul)`` is ordinary SpMM."""

    reduce: ReduceOp
    binary: BinaryOp

    @property
    def name(self) -> str:
        return f"{self.reduce.name}.{self.binary.name}"


def get_semiring(reduce_name: str = "sum", binary_name: str = "mul") -> Semiring:
    """Look up a semiring by operator names.

    >>> get_semiring("max", "add").name
    'max.add'
    """
    if reduce_name not in REDUCE_OPS:
        raise KeyError(
            f"unknown reduce op {reduce_name!r}; choices: {sorted(REDUCE_OPS)}"
        )
    if binary_name not in BINARY_OPS:
        raise KeyError(
            f"unknown binary op {binary_name!r}; choices: {sorted(BINARY_OPS)}"
        )
    return Semiring(REDUCE_OPS[reduce_name], BINARY_OPS[binary_name])
