"""Optimizers for the training experiments (Table III's T rows)."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .nn import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.momentum = momentum
        # state that lives as long as the parameters  # lint: allow(raw-alloc-in-tensor)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, vel in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            if self.momentum:
                vel *= self.momentum
                vel += param.grad
                param.data -= self.lr * vel
            else:
                param.data -= self.lr * param.grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        # state that lives as long as the parameters
        self._m = [np.zeros_like(p.data) for p in self.params]  # lint: allow(raw-alloc-in-tensor)
        self._v = [np.zeros_like(p.data) for p in self.params]  # lint: allow(raw-alloc-in-tensor)

    def step(self) -> None:
        self._step += 1
        bc1 = 1.0 - self.beta1 ** self._step
        bc2 = 1.0 - self.beta2 ** self._step
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * param.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * param.grad ** 2
            param.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
