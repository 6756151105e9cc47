"""Distributed weakly-connected components — label propagation.

A Pregel-style min-label propagation on the engine's storage API: every
node starts with its own node id as its label; each
round, frontier nodes send their label to neighbors, which adopt it when it
is smaller.  Converges in O(diameter) rounds; each round is one
:func:`~repro.storage.dist_storage.fetch_round`, the same call the PPR
drivers make.

Each machine runs the propagation for its *own core nodes* as sources; the
engine facade unions the results — labels are globally consistent because
min-label is order-independent.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.ppr.hashmap import ShardedMap, fit_values
from repro.simt.compute import COMPUTE
from repro.storage.dist_storage import DistGraphStorage, fetch_round


class WccState:
    """Label table + frontier for a label-propagation run over the node
    ids ``[0, n_nodes)``."""

    def __init__(self, seeds: np.ndarray, n_nodes: int) -> None:
        self.map = ShardedMap(n_nodes)
        self.labels = np.zeros(1024, dtype=np.int64)
        seeds = np.asarray(seeds, dtype=np.int64)
        idx, _ = self.map.get_or_insert(seeds)
        (self.labels,) = fit_values(self.map, self.labels)
        self.labels[idx] = seeds  # own id = initial label
        self.frontier = np.unique(seeds)
        self.rounds = 0

    def pop(self) -> np.ndarray:
        ids = self.frontier
        self.frontier = np.empty(0, dtype=np.int64)
        self.rounds += 1
        return ids

    def relax(self, infos, ids: np.ndarray) -> None:
        """Propagate source labels to neighbors; queue improved nodes."""
        indptr, nbr_ids = infos.to_arrays()[:2]
        if len(nbr_ids) == 0:
            return
        src_labels = self.labels[self.map.lookup(ids)]
        counts = np.diff(indptr)
        sent = np.repeat(src_labels, counts)
        before = len(self.map)
        slots, fresh = self.map.get_or_insert(nbr_ids)
        if len(fresh):
            (self.labels,) = fit_values(self.map, self.labels)
            self.labels[before:len(self.map)] = nbr_ids[fresh]  # own id
        # min-label adoption: scatter-min via sorting-free two-pass
        # (numpy minimum.at is adequate here: entries per round are small)
        old = self.labels[slots]
        np.minimum.at(self.labels, slots, sent)
        queue = self.labels[slots] < old
        # Improved nodes re-broadcast; first-touched nodes must broadcast
        # their own (possibly smaller) label at least once.
        queue[fresh] = True
        if queue.any():
            self.frontier = np.unique(np.concatenate(
                [self.frontier, nbr_ids[queue]]
            ))

    def results(self) -> tuple[np.ndarray, np.ndarray]:
        """``(node ids, labels)`` for every touched node."""
        n = len(self.map)
        return self.map.keys(), self.labels[:n]


def distributed_wcc(g: DistGraphStorage, proc, seeds: np.ndarray):
    """Coroutine: label propagation from this shard's given core nodes (ids).

    Returns the finished :class:`WccState`.  Seeding with *all* of the
    shard's core nodes yields labels for the whole reachable region.
    """
    state = WccState(seeds, int(g.base[-1]))  # node ids: [0, base[-1])
    while True:
        node_ids = state.pop()
        proc.compute("pop", COMPUTE.frontier())
        if len(node_ids) == 0:
            break
        yield from fetch_round(g, proc, node_ids, state.relax,
                               cost=COMPUTE.relax)
    return state


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel each class of equal ``labels`` by its smallest position."""
    _, inverse = np.unique(labels, return_inverse=True)
    first = np.full(len(labels), len(labels), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(labels)))
    return first[inverse]


def single_machine_wcc(graph: CSRGraph) -> np.ndarray:
    """Reference: component label per node (smallest member's global ID)."""
    from repro.graph.components import connected_components

    _, labels = connected_components(graph)
    return canonical_labels(labels)
