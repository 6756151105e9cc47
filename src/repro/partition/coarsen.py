"""Graph coarsening by heavy-edge mutual matching.

Each coarsening level contracts a matching of the current graph: every node
proposes its heaviest-weight unmatched neighbor, and mutual proposals are
contracted into one coarse node — the same mechanism (and rationale: heavy
edges should not be cut, so hide them inside coarse nodes) as METIS's HEM
phase.  Mutual matching is fully vectorizable but stalls on the stand-ins:
``products`` coarsens 25 000 -> 16 208 -> 14 148 nodes and ``twitter``
41 700 -> 32 923, against a 240-node target at 4 parts (ROADMAP item 8).

Only work whose result is kept is done.  A matching round after the first
re-proposes only for the unmatched nodes whose pick was just matched (every
other pick still stands, see :func:`match_mutual`).  And a stall is read off
the matching: contraction leaves one node per matched pair and per
unmatched node, so :func:`coarsen_to` stops before contracting a level that
would shrink by less than 5%.
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


def _propose(graph: CSRGraph, proposal: np.ndarray,
             rows: np.ndarray | None = None,
             eligible: np.ndarray | None = None) -> None:
    """The proposal kernel: one segment arg-max per CSR row.

    Sets ``proposal[r]`` for each of ``rows`` (ascending and non-empty;
    ``None`` = every non-empty row, whose arcs are read in place, while a
    subset's arcs are gathered first) to the largest neighbor ID among the
    row's heaviest arcs into ``eligible`` (-1 if none; ``None`` admits
    every node).  Ineligible arcs are masked to ``-inf`` (weights are
    finite, :class:`CSRGraph` checks), ``reduceat`` takes each row's best
    weight and then the largest neighbor ID among the arcs that attain it.
    Empty rows never start a segment — ``reduceat`` would read the next
    row's first arc for them.
    """
    degree = np.diff(graph.indptr)
    if rows is None:
        rows = np.flatnonzero(degree)
        lengths = degree[rows]
        starts = graph.indptr[rows]
        col, w = graph.indices, graph.weights
    else:
        lengths = degree[rows]
        starts = np.cumsum(lengths) - lengths
        arcs = np.repeat(graph.indptr[rows] - starts, lengths)
        arcs += np.arange(len(arcs))
        col, w = graph.indices[arcs], graph.weights[arcs]
        del arcs
    if not len(rows):
        return
    if eligible is None:
        top = w == np.repeat(np.maximum.reduceat(w, starts), lengths)
    else:
        top = eligible[col]
        w = np.where(top, w, -np.inf)
        top &= w == np.repeat(np.maximum.reduceat(w, starts), lengths)
    del w
    proposal[rows] = np.maximum.reduceat(np.where(top, col, -1), starts)


def heaviest_neighbor(graph: CSRGraph, eligible: np.ndarray) -> np.ndarray:
    """For each node, its heaviest eligible neighbor (-1 if none).

    ``eligible`` is a boolean mask over nodes; an arc counts only when both
    of its endpoints are eligible.  Among a row's heaviest such arcs the
    larger neighbor ID wins, so the result is deterministic.
    """
    proposal = np.full(graph.n_nodes, -1, dtype=np.int64)
    _propose(graph, proposal, eligible=eligible)
    proposal[~eligible] = -1
    return proposal


def match_mutual(graph: CSRGraph, *, rounds: int = 3) -> np.ndarray:
    """Heavy-edge mutual matching; returns ``mate`` array (-1 = unmatched).

    In each round every unmatched node proposes to its heaviest unmatched
    neighbor — equal weights go to the larger neighbor ID, the rule of
    :func:`heaviest_neighbor` — and two nodes that propose to each other
    are matched.

    Round 1 (everyone unmatched) runs the kernel without eligibility masks.
    Later rounds re-propose only for the unmatched nodes whose pick was
    just matched.  Any other pick stands: the unmatched set only shrinks,
    so a pick that is still unmatched is still the heaviest arc and still
    wins its ties.  Matched nodes propose nothing.
    """
    n = graph.n_nodes
    mate = np.full(n, -1, dtype=np.int64)
    proposal = np.full(n, -1, dtype=np.int64)
    for round_ in range(rounds):
        if round_ == 0:
            _propose(graph, proposal)
        else:
            ids = np.flatnonzero(proposal >= 0)
            _propose(graph, proposal, ids[mate[proposal[ids]] >= 0],
                     mate == -1)
        ids = np.flatnonzero(proposal >= 0)
        if not len(ids):
            break
        # mutual: proposal[proposal[i]] == i, count each pair once (i < mate)
        mutual = ids[proposal[proposal[ids]] == ids]
        mutual = mutual[mutual < proposal[mutual]]
        partner = proposal[mutual]
        mate[mutual] = partner
        mate[partner] = mutual
        proposal[mutual] = proposal[partner] = -1
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
    longer shrink the graph by at least 5%, without contracting that level.
    """
    levels = [CoarseLevel(graph, np.ones(graph.n_nodes),
                          np.arange(graph.n_nodes))]
    while levels[-1].graph.n_nodes > target_nodes and len(levels) < max_levels:
        current = levels[-1]
        n = current.graph.n_nodes
        mate = match_mutual(current.graph)
        # contraction leaves one node per matched pair and per unmatched
        # node, so a level that would shrink by < 5% is never built
        if n - np.count_nonzero(mate >= 0) // 2 > 0.95 * n:
            break
        levels.append(contract(current.graph, current.node_weights, mate))
    return levels
