"""Adam with bias correction and decoupled weight decay, over one flat arena."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Value


class NonFiniteGradient(FloatingPointError):
    """A step met a NaN or infinite gradient and moved nothing.

    ``index`` is the position in ``Adam.params`` of the first parameter whose
    gradient holds such a value.
    """

    def __init__(self, index: int):
        super().__init__(f"non-finite gradient in parameter {index}")
        self.index = index


class Adam:
    """Holds first/second-moment buffers and a shared step counter.

    On construction every parameter is copied into one contiguous float64
    arena and its ``data`` is rebound to its view of that arena, so a step is
    one run of elementwise ops over all parameters at once. Each op rounds
    every element as it would on the parameter's own array, so the result is
    bit for bit that of a loop over the tensors. Write into a parameter with
    ``p.data[...] = x``; rebinding ``p.data`` detaches it, and the next step
    raises ``RuntimeError``.

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
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed twice")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.t = 0
        sizes = [p.data.size for p in self.params]
        # Element k of the arena belongs to the first parameter whose end
        # exceeds k.
        self._ends = np.cumsum(sizes, dtype=np.int64)
        total = int(self._ends[-1]) if sizes else 0
        self.theta = np.empty(total)
        self._views = []
        start = 0
        for p, n in zip(self.params, sizes):
            view = self.theta[start : start + n].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._views.append(view)
            start += n
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        # The two arena-sized scratch buffers. The first takes the gathered
        # grads and, once the moments have them, the denominator.
        self._grad = np.empty(total)
        self._scratch = np.empty(total)
        # Stand-ins for grads never written, which read as zeros.
        zeros = np.zeros(max(sizes, default=0))
        self._absent = [zeros[:n] for n in sizes]

    def step(self) -> None:
        """One in-place update from current grads; grads are left untouched.

        Raises :class:`NonFiniteGradient`, with nothing moved, if any grad
        holds a NaN or an infinity.
        """
        grads = []
        for p, view, absent in zip(self.params, self._views, self._absent):
            if p.data is not view:
                raise RuntimeError("Adam: a parameter's data was rebound after construction; "
                                   "write into it with p.data[...] = x")
            grads.append(absent if p._grad is None else p._grad)
        g, s = self._grad, self._scratch
        if grads:
            np.concatenate(grads, axis=None, out=g)
        finite = np.isfinite(g)
        if not finite.all():
            first = int(np.argmin(finite))
            raise NonFiniteGradient(int(np.searchsorted(self._ends, first, side="right")))
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        m, v, theta = self.m, self.v, self.theta
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.square(g, out=s)
        s *= 1.0 - b2
        v += s
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.epsilon
        np.divide(m, bias1, out=s)
        s /= g
        if self.weight_decay:
            np.multiply(theta, self.weight_decay, out=g)
            s += g
        s *= self.learning_rate
        theta -= s
