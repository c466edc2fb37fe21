"""The Adam optimizer over :class:`Parameter` lists, the training setup
used in the paper's per-epoch timing and convergence studies."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.tensor.module import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam optimizer (Kingma & Ba): holds parameters, steps on their
    ``.grad``."""

    def __init__(self, params: list[Parameter], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        self.params = list(params)
        if not self.params:
            raise ConfigError("optimizer created with no parameters")
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
