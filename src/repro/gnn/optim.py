"""The optimizer over :class:`~repro.gnn.layers.Parameter` lists."""

from __future__ import annotations

import numpy as np

from repro.gnn.layers import Parameter
from repro.utils.validation import check_positive

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETAS = (0.9, 0.999)
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba, 2015) — the optimizer of the paper's Figure 7."""

    def __init__(self, parameters: list[Parameter], lr: float = 1e-2) -> None:
        check_positive("lr", lr)
        self.parameters = parameters
        self.lr = lr
        self._m = [np.zeros_like(p.value) for p in parameters]
        self._v = [np.zeros_like(p.value) for p in parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = BETAS
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad ** 2
            p.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
