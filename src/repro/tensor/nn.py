"""Neural-network module substrate: parameters, modules, linear layers."""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .init import xavier_uniform
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear"]


class Parameter(Tensor):
    """A tensor flagged as a learnable parameter."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with parameter registration and train/eval mode.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; ``parameters()`` discovers them recursively.
    """

    def __init__(self) -> None:
        self._training = True

    # -- parameter discovery -------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in sorted(vars(self).items()):
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval ----------------------------------------------------
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        self._training = True
        for value in vars(self).values():
            if isinstance(value, Module):
                value.train()
        return self

    def eval(self) -> "Module":
        self._training = False
        for value in vars(self).values():
            if isinstance(value, Module):
                value.eval()
        return self

    # -- state dict (for reproducible experiments) ------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, value in state.items():
            if params[name].data.shape != value.shape:
                raise ValueError(f"shape mismatch for {name}")
            params[name].data = np.asarray(value, dtype=np.float64).copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """A dense layer ``X @ W (+ b)`` — the GNN update step's GEMM."""

    def __init__(
        self,
        in_size: int,
        out_size: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(xavier_uniform(rng, in_size, out_size))
        # a parameter, not a step array  # lint: allow(raw-alloc-in-tensor)
        self.bias = Parameter(np.zeros(out_size)) if bias else None
        self.in_size = in_size
        self.out_size = out_size

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_size} -> {self.out_size}, bias={self.bias is not None})"
