"""The Adam stepper and the cosine learning-rate schedule.

Only trainable parameters move; frozen parameters are never touched even
if a gradient buffer is present. Adam keeps per-parameter moment buffers
keyed by parameter name.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .tensor import Parameter

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction (``BETA1``, ``BETA2``, ``EPS``)."""

    def __init__(self, params: Iterable[Parameter]):
        self.params = list(params)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = BETA1, BETA2
        for p in self.params:
            if not p.requires_grad or p.grad is None:
                continue
            m = self._m.setdefault(p.name, np.zeros_like(p.data))
            v = self._v.setdefault(p.name, np.zeros_like(p.data))
            g = p.grad
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data[...] = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from ``base_lr`` to zero over ``total_steps``."""
    if total_steps <= 1:
        return base_lr
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * frac))
