"""Balanced BFS region-growing partitioner.

Grows ``n_parts`` regions breadth-first from spread-out seeds, capping each
region at the ideal size.  Used standalone as a mid-quality baseline and as
the initial-partition step of the multilevel scheme on the coarsest graph
(where it also honours node weights).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionResult, Partitioner
from repro.utils.rng import rng_from_seed

UNASSIGNED = -1


def grow_regions(graph: CSRGraph, n_parts: int, node_weights: np.ndarray,
                 rng) -> np.ndarray:
    """Core region-growing routine over weighted nodes.

    Returns an assignment array.  The first ``n_parts`` nodes of a random
    permutation seed the regions, which then grow breadth-first in
    round-robin order; each region stops absorbing once it reaches the
    ideal weight.  Leftover nodes (disconnected or budget-capped) go to the
    lightest neighboring region, or the lightest region overall.

    Both loops are sequential, so they run over Python lists and floats:
    reading a NumPy array one element at a time is their slow path.  Each
    popped node's row is read with one ``tolist()``.
    """
    n = graph.n_nodes
    budget = float(node_weights.sum()) / n_parts
    weight = np.asarray(node_weights, dtype=np.float64).tolist()
    indptr = graph.indptr.tolist()
    assignment = [UNASSIGNED] * n
    part_weight = [0.0] * n_parts

    frontiers: list[deque] = []
    for p, seed in enumerate(rng.permutation(n)[:n_parts].tolist()):
        assignment[seed] = p
        part_weight[p] += weight[seed]
        frontiers.append(deque([seed]))

    # Round-robin BFS expansion under the weight budget, until every node
    # has a part.
    unassigned = n - len(frontiers)
    active = True
    while active and unassigned:
        active = False
        for p, frontier in enumerate(frontiers):
            if not frontier or part_weight[p] >= budget:
                continue
            v = frontier.popleft()
            for u in graph.indices[indptr[v]:indptr[v + 1]].tolist():
                if assignment[u] == UNASSIGNED:
                    assignment[u] = p
                    part_weight[p] += weight[u]
                    frontier.append(u)
                    unassigned -= 1
                    if part_weight[p] >= budget:
                        break
            if frontier:
                active = True

    # Stragglers: the lightest neighboring part keeps locality, ties go to
    # the smaller part id.
    for v in [v for v, p in enumerate(assignment) if p == UNASSIGNED]:
        row = graph.indices[indptr[v]:indptr[v + 1]].tolist()
        parts = sorted({assignment[u] for u in row} - {UNASSIGNED})
        p = min(parts or range(n_parts), key=part_weight.__getitem__)
        assignment[v] = p
        part_weight[p] += weight[v]
    return np.array(assignment, dtype=np.int64)


class BfsPartitioner(Partitioner):
    """Region-growing partitioner without multilevel refinement."""

    def __init__(self, seed=None) -> None:
        self.seed = seed

    def partition(self, graph: CSRGraph, n_parts: int) -> PartitionResult:
        self._check_args(graph, n_parts)
        rng = rng_from_seed(self.seed)
        weights = np.ones(graph.n_nodes)
        assignment = grow_regions(graph, n_parts, weights, rng)
        return PartitionResult(assignment, n_parts)
