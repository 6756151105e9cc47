"""ShaDow-SAGE: GraphSAGE applied to per-ego PPR subgraphs.

ShaDow's [33] decoupling principle: rather than expanding neighborhoods
layer by layer, build one *bounded* subgraph per ego node (here: the top-K
personalized-PageRank nodes) and run an arbitrarily deep GNN on it, reading
out the ego's representation.  The model below runs two mean-SAGE
convolutions over the batch subgraph and classifies the ego rows.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.data import Batch
from repro.gnn.layers import (
    Linear,
    Parameter,
    SageConv,
    relu,
    relu_grad,
    softmax_cross_entropy,
)
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive


#: SAGE convolutions before the read-out head
N_LAYERS = 2


class ShadowSage:
    """A small, fully hand-differentiated ShaDow-SAGE classifier."""

    def __init__(self, in_dim: int, hidden_dim: int, n_classes: int, *,
                 seed=0) -> None:
        check_positive("in_dim", in_dim)
        check_positive("hidden_dim", hidden_dim)
        check_positive("n_classes", n_classes)
        rng = rng_from_seed(seed)
        dims = [in_dim] + [hidden_dim] * N_LAYERS
        self.convs = [
            SageConv(dims[i], dims[i + 1],
                     seed=rng.integers(0, 2**31), name=f"conv{i}")
            for i in range(N_LAYERS)
        ]
        # One draw per conv is skipped (once the seeds of rate-0 dropout
        # layers) so a seed keeps its head weights, and the GNN case
        # study's gated losses and accuracy stay bitwise.
        for _ in range(N_LAYERS):
            rng.integers(0, 2**31)
        self.head = Linear(hidden_dim, n_classes,
                           seed=rng.integers(0, 2**31), name="head")
        self._pre_acts: list[np.ndarray] = []
        self._ego_idx: np.ndarray | None = None
        self._n_rows = 0

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for conv in self.convs:
            params.extend(conv.parameters())
        params.extend(self.head.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward/backward ---------------------------------------------------
    def forward(self, batch: Batch) -> np.ndarray:
        """Logits for the batch's ego nodes, shape ``(n_egos, n_classes)``."""
        adj_norm = SageConv.normalize_adj(batch.adj)
        h = batch.x
        self._pre_acts = []
        for conv in self.convs:
            z = conv.forward(h, adj_norm)
            self._pre_acts.append(z)
            h = relu(z)
        self._ego_idx = batch.ego_idx
        self._n_rows = h.shape[0]
        return self.head.forward(h[batch.ego_idx])

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for the last forward pass."""
        assert self._ego_idx is not None, "backward before forward"
        d_ego = self.head.backward(dlogits)
        dh = np.zeros((self._n_rows, d_ego.shape[1]))
        dh[self._ego_idx] = d_ego
        for conv, z in zip(reversed(self.convs), reversed(self._pre_acts)):
            dh = conv.backward(relu_grad(z, dh))

    def loss_and_grad(self, batch: Batch) -> tuple[float, float]:
        """One training step's compute: returns ``(loss, accuracy)``.

        Gradients are *accumulated* into the parameters; callers zero them
        per step and run the optimizer after (optionally) all-reducing.
        """
        logits = self.forward(batch)
        loss, dlogits, probs = softmax_cross_entropy(logits, batch.y)
        self.backward(dlogits)
        acc = float((probs.argmax(axis=1) == batch.y).mean())
        return loss, acc

    # -- DDP plumbing ----------------------------------------------------------
    def flatten_grads(self) -> np.ndarray:
        """All gradients as one flat vector (all-reduce payload)."""
        return np.concatenate([p.grad.ravel() for p in self.parameters()])

    def load_flat_grads(self, flat: np.ndarray) -> None:
        """Inverse of :meth:`flatten_grads`."""
        offset = 0
        for p in self.parameters():
            n = p.size
            p.grad[...] = flat[offset:offset + n].reshape(p.value.shape)
            offset += n
        if offset != len(flat):
            raise ValueError(
                f"flat gradient has {len(flat)} entries, model needs {offset}"
            )

    def state_copy(self) -> list[np.ndarray]:
        """Snapshot of parameter values (replica-sync checks in tests)."""
        return [p.value.copy() for p in self.parameters()]
