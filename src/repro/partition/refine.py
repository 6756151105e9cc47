"""Fiduccia-Mattheyses-style k-way boundary refinement.

Given an assignment, repeatedly move boundary nodes to the neighboring part
with the highest *gain* (external connectivity minus internal connectivity),
subject to a balance constraint on part weight.  Gains are computed for all
nodes at once via the sparse product ``A @ X`` (n x k connectivity matrix),
then applied greedily in gain order with incremental part-weight
bookkeeping — the standard vectorized FM approximation.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def connectivity_matrix(graph: CSRGraph, assignment: np.ndarray,
                        n_parts: int) -> np.ndarray:
    """Dense ``(n, k)``: total edge weight from each node into each part."""
    adj = graph.to_scipy()
    x = np.zeros((graph.n_nodes, n_parts))
    x[np.arange(graph.n_nodes), assignment] = 1.0
    return np.asarray(adj @ x)


def refine(graph: CSRGraph, assignment: np.ndarray, node_weights: np.ndarray,
           n_parts: int, *, imbalance: float = 0.05,
           max_passes: int = 6) -> np.ndarray:
    """Refine ``assignment`` in place-sized passes; returns the new array.

    ``imbalance`` is the allowed overshoot of any part's weight over the
    ideal ``total / n_parts`` (METIS's default ubfactor is ~3-5%).
    """
    assignment = assignment.copy()
    node_weights = np.asarray(node_weights, dtype=np.float64)
    total = float(node_weights.sum())
    ideal = total / n_parts
    # At least one node of slack above the ideal, so perfectly-full parts
    # can still exchange nodes (otherwise interleaved assignments are stuck).
    cap = max((1.0 + imbalance) * ideal,
              ideal + (node_weights.max() if len(node_weights) else 0.0))
    part_weight = np.bincount(assignment, weights=node_weights,
                              minlength=n_parts)

    for _ in range(max_passes):
        conn = connectivity_matrix(graph, assignment, n_parts)
        internal = conn[np.arange(graph.n_nodes), assignment]
        # Best alternative part per node.
        conn_masked = conn.copy()
        conn_masked[np.arange(graph.n_nodes), assignment] = -np.inf
        best_part = np.argmax(conn_masked, axis=1)
        best_external = conn_masked[np.arange(graph.n_nodes), best_part]
        gain = best_external - internal

        candidates = np.flatnonzero(gain > 1e-12)
        if len(candidates) == 0:
            break
        order = candidates[np.argsort(-gain[candidates])]
        moved = 0
        for v in order:
            target = best_part[v]
            source = assignment[v]
            if target == source:
                continue
            wv = node_weights[v]
            if part_weight[target] + wv > cap:
                continue
            # Keep parts nonempty.
            if part_weight[source] - wv <= 0:
                continue
            assignment[v] = target
            part_weight[source] -= wv
            part_weight[target] += wv
            moved += 1
        if moved == 0:
            break
    return assignment
