"""Single-machine parallel (frontier-batched) Forward Push [Shun et al.].

Processes the whole activated set per iteration with vectorized gathers and
scatter-adds.  This is the algorithmic base the paper adopts because "there
are no dependencies within a set of activated vertices", making it
"naturally suitable for request batching" — the distributed engine in
:mod:`repro.ppr.distributed` runs exactly this schedule over sharded
storage.  The single-machine version here is used for correctness
cross-checks and the push-count ablation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph, row_blocks
from repro.ppr.forward_push_seq import PushStats
from repro.ppr.params import PPRParams


def forward_push_parallel(graph: CSRGraph, source: int, params: PPRParams,
                          *, max_iterations: int = 100_000
                          ) -> tuple[np.ndarray, np.ndarray, PushStats]:
    """Frontier-batched Forward Push; returns ``(ppr, residual, stats)``."""
    n = graph.n_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range [0, {n})")
    ppr = np.zeros(n)
    residual = np.zeros(n)
    residual[source] = 1.0
    wdeg = graph.weighted_degrees
    alpha, eps = params.alpha, params.epsilon

    frontier = np.array([source], dtype=np.int64)
    touched = np.zeros(n, dtype=bool)
    touched[source] = True
    n_pushes = 0
    n_iterations = 0

    while len(frontier):
        n_iterations += 1
        if n_iterations > max_iterations:
            raise ConvergenceError(
                f"parallel forward push exceeded {max_iterations} iterations"
            )
        r_f = residual[frontier].copy()
        d_f = wdeg[frontier]
        dangling = d_f <= 0.0
        ppr[frontier] += np.where(dangling, r_f, alpha * r_f)
        residual[frontier] = 0.0
        n_pushes += len(frontier)

        spreaders = frontier[~dangling]
        if len(spreaders):
            scale = (1.0 - alpha) * r_f[~dangling] / d_f[~dangling]
            offsets, idx = row_blocks(graph.indptr, spreaders)
            nbrs = graph.indices[idx]
            contrib = graph.weights[idx] * np.repeat(scale,
                                                     np.diff(offsets))
            np.add.at(residual, nbrs, contrib)
            touched[nbrs] = True

        # New frontier: every node above threshold (including frontier
        # members that received mass from peers in this same round).
        active = residual > eps * wdeg
        active |= (residual > 0.0) & (wdeg <= 0.0)
        frontier = np.flatnonzero(active)

    stats = PushStats(n_pushes=n_pushes, n_iterations=n_iterations,
                      n_touched=int(touched.sum()))
    return ppr, residual, stats
