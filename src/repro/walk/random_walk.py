"""Distributed random walk — the Figure 4 (right) loop, verbatim.

Each step: group the walkers by the shard currently owning them, issue one
``sample_one_neighbor`` batch per shard (local resolves synchronously,
remote in parallel), then scatter the sampled next-hops back into the
walker state and record them in the walk summary — kept in node ids and
translated to caller ids once, on the way out.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.simt.compute import COMPUTE
from repro.simt.events import Wait
from repro.storage.build import ShardedGraph
from repro.storage.dist_storage import DistGraphStorage
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive


def distributed_random_walk(g: DistGraphStorage, proc, roots: np.ndarray,
                            sharded: ShardedGraph, walk_length: int):
    """Coroutine: walk ``len(roots)`` walkers for ``walk_length`` steps.

    ``roots`` are node ids.  Returns the walk summary, shape
    ``(n_roots, walk_length + 1)``, in caller ids (column 0 = roots).
    """
    check_positive("walk_length", walk_length)
    summary = np.empty((len(roots), walk_length + 1), dtype=np.int64)
    summary[:, 0] = roots

    for step in range(1, walk_length + 1):
        node_ids = summary[:, step - 1]
        masks = g.shard_masks(node_ids)
        proc.compute("pop", COMPUTE.route(len(node_ids)))
        futs = {}
        for j, mask in masks.items():
            # per-step salt: draws depend on (shard seed, step, rows), not
            # on the order requests happen to reach the server
            futs[j] = g.sample_one_neighbor(j, node_ids[mask], salt=step)
        for j, fut in futs.items():
            next_ids = yield Wait(fut)
            summary[masks[j], step] = next_ids
            proc.compute("push", COMPUTE.frontier())
    return sharded.globals_of(summary)


def single_machine_random_walk(graph: CSRGraph, roots: np.ndarray,
                               walk_length: int, *, seed=None) -> np.ndarray:
    """Reference walker on the unsharded graph (for distribution tests).

    Not sample-for-sample identical to the distributed version (separate
    RNG streams); used for structural validation: every consecutive pair in
    a walk must be an edge (or a stalled isolated node).
    """
    check_positive("walk_length", walk_length)
    rng = rng_from_seed(seed)
    roots = np.asarray(roots, dtype=np.int64)
    current = roots.copy()
    summary = np.empty((len(roots), walk_length + 1), dtype=np.int64)
    summary[:, 0] = roots
    for step in range(1, walk_length + 1):
        starts = graph.indptr[current]
        counts = graph.indptr[current + 1] - starts
        offsets = rng.integers(0, np.maximum(counts, 1))
        pick = np.minimum(starts + offsets, max(graph.n_arcs - 1, 0))
        has = counts > 0
        current = np.where(has, graph.indices[pick], current)
        summary[:, step] = current
    return summary
