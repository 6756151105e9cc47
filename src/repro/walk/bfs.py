"""Distributed BFS — the engine's generality demonstration.

The paper names BFS (GraphSAGE-style neighborhood collection) among the
graph-processing algorithms that need hashmap-like frontier state rather
than tensors (Section 1).  This driver implements level-synchronous BFS on
the distributed storage with exactly the engine's idioms: a frontier of
node ids, the engine's own per-shard batched round
(:func:`~repro.storage.dist_storage.fetch_round`), and a visited set in a
:class:`~repro.ppr.hashmap.ShardedMap`.

Returns hop distances from the source for every reached node.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, row_blocks
from repro.ppr.hashmap import ShardedMap, fit_values
from repro.simt.compute import COMPUTE
from repro.storage.dist_storage import DistGraphStorage, fetch_round


class BfsState:
    """Visited set + frontier for one BFS traversal over the node ids
    ``[0, n_nodes)``."""

    def __init__(self, source: int, n_nodes: int) -> None:
        self.map = ShardedMap(n_nodes)
        self.depths = np.zeros(1024, dtype=np.int64)
        self.frontier = np.array([int(source)], dtype=np.int64)
        idx, _ = self.map.get_or_insert(self.frontier)
        self.depths[idx[0]] = 0
        self.level = 0

    def pop(self) -> np.ndarray:
        """Current frontier as node ids (empty = done)."""
        ids = self.frontier
        self.frontier = np.empty(0, dtype=np.int64)
        return ids

    def expand(self, infos, ids) -> None:
        """Mark unvisited neighbors at ``level + 1``; queue them.

        The answered sources ``ids`` (every ``fetch_round`` ``apply`` gets
        them) are unused: BFS keeps no per-source state.
        """
        nbr_ids = infos.to_arrays()[1]
        if len(nbr_ids) == 0:
            return
        before = len(self.map)
        _, fresh = self.map.get_or_insert(nbr_ids)
        if len(fresh):
            (self.depths,) = fit_values(self.map, self.depths)
            self.depths[before:len(self.map)] = self.level + 1
            # fresh names each new id once: sort to keep ids ascending
            self.frontier = np.concatenate([self.frontier,
                                            np.sort(nbr_ids[fresh])])

    def results(self) -> tuple[np.ndarray, np.ndarray]:
        """``(node ids, depths)`` of every reached node."""
        n = len(self.map)
        return self.map.keys(), self.depths[:n]

    def dense_depths(self, sharded, n_nodes: int) -> np.ndarray:
        """Hop distances as a dense vector (-1 = unreached)."""
        out = np.full(n_nodes, -1, dtype=np.int64)
        ids, depths = self.results()
        out[sharded.globals_of(ids)] = depths
        return out


def distributed_bfs(g: DistGraphStorage, proc, source: int, *,
                    max_depth: int | None = None):
    """Coroutine: level-synchronous BFS from a core node (id) of ``g``'s
    shard.

    Returns the finished :class:`BfsState`.
    """
    state = BfsState(source, int(g.base[-1]))  # node ids: [0, base[-1])
    while True:
        node_ids = state.pop()
        proc.compute("pop", COMPUTE.frontier())
        if len(node_ids) == 0:
            break
        if max_depth is not None and state.level >= max_depth:
            break
        yield from fetch_round(g, proc, node_ids, state.expand,
                               cost=COMPUTE.expand)
        state.level += 1
    return state


def single_machine_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference BFS on the unsharded graph (-1 = unreached)."""
    n = graph.n_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range [0, {n})")
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        _, idx = row_blocks(graph.indptr, frontier)
        nbrs = np.unique(graph.indices[idx])
        fresh = nbrs[depths[nbrs] == -1]
        depths[fresh] = level
        frontier = fresh
    return depths
