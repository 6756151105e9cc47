"""Neural-network building blocks with hand-written gradients.

Minimal but real: a :class:`Parameter` holds value + accumulated gradient;
:class:`Linear` and :class:`SageConv` cache forward activations and
implement exact backward passes.  Glorot initialization, NumPy throughout.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.rng import rng_from_seed


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name}, shape={self.value.shape})"


def glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return dout * (x > 0.0)


class Linear:
    """Affine layer ``y = x @ W + b`` with cached input for backward."""

    def __init__(self, in_dim: int, out_dim: int, *, seed=None,
                 name: str = "linear") -> None:
        rng = rng_from_seed(seed)
        self.weight = Parameter(glorot(rng, in_dim, out_dim), f"{name}.W")
        self.bias = Parameter(np.zeros(out_dim), f"{name}.b")
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.weight.grad += self._x.T @ dout
        self.bias.grad += dout.sum(axis=0)
        return dout @ self.weight.value.T


class SageConv:
    """GraphSAGE mean-aggregation convolution.

    ``h' = h @ W_self + mean_agg(h) @ W_nbr + b`` where ``mean_agg`` is the
    row-normalized adjacency of the mini-batch subgraph.  The aggregation
    operator is linear, so backward just applies its transpose.
    """

    def __init__(self, in_dim: int, out_dim: int, *, seed=None,
                 name: str = "sage") -> None:
        rng = rng_from_seed(seed)
        self.w_self = Parameter(glorot(rng, in_dim, out_dim), f"{name}.Wself")
        self.w_nbr = Parameter(glorot(rng, in_dim, out_dim), f"{name}.Wnbr")
        self.bias = Parameter(np.zeros(out_dim), f"{name}.b")
        self._h: np.ndarray | None = None
        self._agg_h: np.ndarray | None = None
        self._adj_norm: sp.csr_matrix | None = None

    def parameters(self) -> list[Parameter]:
        return [self.w_self, self.w_nbr, self.bias]

    @staticmethod
    def normalize_adj(adj: sp.csr_matrix) -> sp.csr_matrix:
        """Row-normalize: mean aggregation, zero rows kept."""
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv = np.zeros_like(deg)
        nz = deg > 0
        inv[nz] = 1.0 / deg[nz]
        return sp.diags(inv) @ adj

    def forward(self, h: np.ndarray, adj_norm: sp.csr_matrix) -> np.ndarray:
        self._h = h
        self._adj_norm = adj_norm
        self._agg_h = adj_norm @ h
        return (h @ self.w_self.value + self._agg_h @ self.w_nbr.value
                + self.bias.value)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._h is not None, "backward before forward"
        self.w_self.grad += self._h.T @ dout
        self.w_nbr.grad += self._agg_h.T @ dout
        self.bias.grad += dout.sum(axis=0)
        dh = dout @ self.w_self.value.T
        d_agg = dout @ self.w_nbr.value.T
        dh += self._adj_norm.T @ d_agg
        return dh


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean CE loss; returns ``(loss, dlogits, probs)``."""
    if len(logits) != len(labels):
        raise ValueError(
            f"logits cover {len(logits)} rows, labels {len(labels)}"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits, probs
