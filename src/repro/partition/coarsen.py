"""Graph coarsening by heavy-edge mutual matching.

Each coarsening level contracts a matching of the current graph: every node
proposes its heaviest-weight unmatched neighbor, and mutual proposals are
contracted into one coarse node.  Mutual matching is fully vectorizable and
removes 30-50% of nodes per level on typical graphs — the same mechanism
(and rationale: heavy edges should not be cut, so hide them inside coarse
nodes) as METIS's HEM phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph


@dataclass
class CoarseLevel:
    """One level of the multilevel hierarchy."""

    graph: CSRGraph
    node_weights: np.ndarray      # original nodes folded into each coarse node
    fine_to_coarse: np.ndarray    # maps finer-level IDs -> this level's IDs


def heaviest_neighbor(graph: CSRGraph, eligible: np.ndarray) -> np.ndarray:
    """For each node, its heaviest eligible neighbor (-1 if none).

    ``eligible`` is a boolean mask over nodes; an arc counts only when both
    of its endpoints are eligible.  Among a row's heaviest such arcs the
    larger neighbor ID wins, so the result is deterministic.

    One segment arg-max per CSR row: ineligible arcs are masked to ``-inf``
    (weights are finite, :class:`CSRGraph` checks), ``reduceat`` takes each
    row's best weight and then the largest neighbor ID among the arcs that
    attain it.  Empty rows are left out of the segment starts — ``reduceat``
    would read the next row's first arc for them.
    """
    proposal = np.full(graph.n_nodes, -1, dtype=np.int64)
    if graph.n_arcs == 0:
        return proposal
    degree = np.diff(graph.indptr)
    rows = np.flatnonzero(degree)
    starts = graph.indptr[rows]
    col = graph.indices
    live = np.repeat(eligible, degree)
    live &= eligible[col]
    w = np.where(live, graph.weights, -np.inf)
    best = np.maximum.reduceat(w, starts)
    live &= w == np.repeat(best, degree[rows])
    del w
    proposal[rows] = np.maximum.reduceat(np.where(live, col, -1), starts)
    return proposal


def match_mutual(graph: CSRGraph, *, rounds: int = 3) -> np.ndarray:
    """Heavy-edge mutual matching; returns ``mate`` array (-1 = unmatched).

    In each round every unmatched node proposes to its heaviest unmatched
    neighbor — equal weights go to the larger neighbor ID, the rule of
    :func:`heaviest_neighbor` — and two nodes that propose to each other
    are matched.
    """
    n = graph.n_nodes
    mate = np.full(n, -1, dtype=np.int64)
    for _ in range(rounds):
        eligible = mate == -1
        if not eligible.any():
            break
        proposal = heaviest_neighbor(graph, eligible)
        has = proposal >= 0
        ids = np.flatnonzero(has)
        # mutual: proposal[proposal[i]] == i, count each pair once (i < mate)
        mutual = ids[proposal[proposal[ids]] == ids]
        mutual = mutual[mutual < proposal[mutual]]
        mate[mutual] = proposal[mutual]
        mate[proposal[mutual]] = mutual
    return mate


def contract(graph: CSRGraph, node_weights: np.ndarray,
             mate: np.ndarray) -> CoarseLevel:
    """Contract matched pairs into coarse nodes, summing parallel edges."""
    n = graph.n_nodes
    # Cluster representative: min(i, mate[i]) for matched, i for unmatched.
    rep = np.arange(n)
    matched = mate >= 0
    rep[matched] = np.minimum(rep[matched], mate[matched])
    reps, fine_to_coarse = np.unique(rep, return_inverse=True)
    n_coarse = len(reps)

    coarse_weights = np.bincount(fine_to_coarse, weights=node_weights,
                                 minlength=n_coarse)

    if graph.n_arcs:
        # A deployment's memory high-water mark sits in this block: coarse
        # endpoints are built in scipy's index width (COO downcasts wider
        # ones itself) and each E-sized temporary goes as soon as its
        # consumer holds the result.
        coarse_of = fine_to_coarse.astype(sp.get_index_dtype(maxval=n_coarse))
        row = np.repeat(coarse_of, np.diff(graph.indptr))
        col = coarse_of[graph.indices]
        keep = row != col  # intra-cluster arcs disappear
        coo = sp.coo_matrix(
            (graph.weights[keep], (row[keep], col[keep])),
            shape=(n_coarse, n_coarse),
        )
        del row, col, keep
        adj = coo.tocsr()
        del coo
        adj.sum_duplicates()
        # ``adj`` is ours, so its arrays go in without ``from_scipy``'s
        # defensive copies.
        coarse = CSRGraph(n_coarse, adj.indptr, adj.indices, adj.data)
    else:
        coarse = CSRGraph.from_edges(n_coarse, [], [])
    return CoarseLevel(coarse, coarse_weights, fine_to_coarse)


def coarsen_to(graph: CSRGraph, target_nodes: int,
               *, max_levels: int = 30) -> list[CoarseLevel]:
    """Build the multilevel hierarchy down to ~``target_nodes``.

    Returns levels ordered fine -> coarse; level 0 is the input graph with
    unit node weights and an identity map.  Stops early when matching can no
    longer shrink the graph by at least 5%.
    """
    levels = [CoarseLevel(graph, np.ones(graph.n_nodes),
                          np.arange(graph.n_nodes))]
    while levels[-1].graph.n_nodes > target_nodes and len(levels) < max_levels:
        current = levels[-1]
        mate = match_mutual(current.graph)
        nxt = contract(current.graph, current.node_weights, mate)
        if nxt.graph.n_nodes > 0.95 * current.graph.n_nodes:
            break
        levels.append(nxt)
    return levels
