"""Distributed node2vec walks — second-order biased random walks.

Random-walk-based GNN pipelines (PinSage [29], GraphSAINT [32] — both cited
by the paper) often use node2vec-style biased walks rather than uniform
ones.  The bias is *second order*: the probability of stepping to candidate
``x`` from current node ``v`` depends on the previous node ``t``:

* ``w(v,x) / p``  if ``x == t``          (return parameter),
* ``w(v,x)``       if ``x`` neighbors ``t`` (stay close),
* ``w(v,x) / q``  otherwise             (in-out parameter).

Distribution-wise this is a harder workload than uniform walks: each step
needs the *full* neighbor row of every walker (not one sample), fetched
with the same per-shard batched ``get_neighbor_infos`` the PPR engine uses,
plus the previous step's rows retained per walker for the neighbor test —
a second demonstration that the storage API generalizes beyond PPR.
"""

from __future__ import annotations

import numpy as np

from repro.simt.events import Wait
from repro.storage.build import ShardedGraph
from repro.storage.dist_storage import DistGraphStorage
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive


def _biased_choice(rng, candidates: np.ndarray, weights: np.ndarray,
                   prev: int, prev_neighbors: np.ndarray,
                   p: float, q: float) -> int:
    """Sample one candidate index under node2vec biases."""
    bias = np.full(len(candidates), 1.0 / q)
    if len(prev_neighbors):
        close = np.isin(candidates, prev_neighbors, assume_unique=False)
        bias[close] = 1.0
    bias[candidates == prev] = 1.0 / p
    scores = weights * bias
    total = scores.sum()
    if total <= 0:
        return int(rng.integers(0, len(candidates)))
    return int(np.searchsorted(np.cumsum(scores),
                               rng.random() * total).clip(0, len(scores) - 1))


def distributed_node2vec_walk(g: DistGraphStorage, proc, roots: np.ndarray,
                              sharded: ShardedGraph, walk_length: int, *,
                              p: float = 1.0, q: float = 1.0, seed=0):
    """Coroutine: node2vec walks for the given roots (node ids).

    Returns the walk summary ``(n_roots, walk_length + 1)`` in caller ids.
    ``p`` is the return parameter, ``q`` the in-out parameter (both 1.0
    degenerates to a weighted first-order walk).
    """
    check_positive("walk_length", walk_length)
    check_positive("p", p)
    check_positive("q", q)
    rng = rng_from_seed(seed)
    n_roots = len(roots)
    prev = np.full(n_roots, -1, dtype=np.int64)
    # previous step's neighbor sets per walker (node ids)
    prev_neighbors: list[np.ndarray] = [np.empty(0, np.int64)] * n_roots
    summary = np.empty((n_roots, walk_length + 1), dtype=np.int64)
    summary[:, 0] = roots

    for step in range(1, walk_length + 1):
        cur = summary[:, step - 1]
        with proc.measured("pop"):
            masks = g.shard_masks(cur)
        futs = {}
        for j, mask in masks.items():
            futs[j] = g.get_neighbor_infos(j, cur[mask])
        for j, fut in futs.items():
            infos = yield Wait(fut)
            indptr, nbr_ids, weights, _wd, _src = infos.to_arrays()
            walker_rows = masks[j]  # index array: walker rows directly
            with proc.measured("push"):
                for i, walker in enumerate(walker_rows):
                    s, e = indptr[i], indptr[i + 1]
                    if s == e:  # stuck walker stays put
                        summary[walker, step] = cur[walker]
                        prev[walker] = cur[walker]
                        prev_neighbors[walker] = np.empty(0, np.int64)
                        continue
                    pick = _biased_choice(
                        rng, nbr_ids[s:e], weights[s:e],
                        int(prev[walker]), prev_neighbors[walker], p, q,
                    )
                    prev[walker] = cur[walker]
                    prev_neighbors[walker] = nbr_ids[s:e].copy()
                    summary[walker, step] = nbr_ids[s + pick]
    return sharded.globals_of(summary)
