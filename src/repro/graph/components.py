"""Connected-component utilities.

Real-world graph dumps often carry small disconnected fragments; PPR
queries from inside a fragment never leave it, which skews throughput
measurements.  The paper's datasets are used as-is, but downstream users
loading arbitrary graphs get these helpers to inspect and (optionally)
restrict to the largest connected component.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph as csgraph

from repro.graph.csr import CSRGraph, row_blocks


def connected_components(graph: CSRGraph) -> tuple[int, np.ndarray]:
    """``(n_components, labels)`` treating the graph as undirected."""
    n, labels = csgraph.connected_components(
        graph.to_scipy(), directed=False
    )
    return int(n), labels


def component_sizes(graph: CSRGraph) -> np.ndarray:
    """Sizes of all components, descending."""
    _, labels = connected_components(graph)
    sizes = np.bincount(labels)
    return np.sort(sizes)[::-1]


def largest_component(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph of the largest component.

    Returns ``(subgraph, node_map)`` where ``node_map[i]`` is the original
    global ID of the subgraph's node ``i``.
    """
    n_comp, labels = connected_components(graph)
    if n_comp <= 1:
        return graph, np.arange(graph.n_nodes)
    keep_label = int(np.argmax(np.bincount(labels)))
    keep = np.flatnonzero(labels == keep_label)
    return induced_subgraph(graph, keep), keep


def induced_subgraph(graph: CSRGraph, nodes: np.ndarray) -> CSRGraph:
    """Induced subgraph over ``nodes`` (sorted unique), relabeled 0..k-1."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= graph.n_nodes):
        raise ValueError("nodes out of range")
    offsets, idx = row_blocks(graph.indptr, nodes)
    rows = np.repeat(np.arange(len(nodes)), np.diff(offsets))
    nbrs = graph.indices[idx]
    keep = np.isin(nbrs, nodes)
    cols = np.searchsorted(nodes, nbrs[keep])
    import scipy.sparse as sp

    adj = sp.coo_matrix(
        (graph.weights[idx][keep], (rows[keep], cols)),
        shape=(len(nodes), len(nodes)),
    ).tocsr()
    return CSRGraph.from_scipy(adj)
