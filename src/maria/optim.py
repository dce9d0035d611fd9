"""Adam with bias correction and decoupled weight decay."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Value


class Adam:
    """Holds first/second-moment buffers per parameter and a shared step counter.

    The weight-decay term is decoupled: parameters shrink by lr * decay * theta
    each step regardless of the gradient, which realizes a gamma-weighted L2
    penalty without touching the loss graph.
    """

    def __init__(
        self,
        params: Sequence[Value],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One in-place update from current grads; grads are left untouched."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        lr = self.learning_rate
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.epsilon)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr * update
