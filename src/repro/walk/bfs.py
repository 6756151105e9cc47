"""Distributed BFS — the engine's generality demonstration.

The paper names BFS (GraphSAGE-style neighborhood collection) among the
graph-processing algorithms that need hashmap-like frontier state rather
than tensors (Section 1).  This driver implements level-synchronous BFS on
the distributed storage with exactly the engine's idioms: a frontier of
``(local ID, shard ID)`` pairs, per-shard batched ``get_neighbor_infos``
fetches, and a visited set in a :class:`~repro.ppr.hashmap.ShardedMap`.

Returns hop distances from the source for every reached node.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.ppr.hashmap import ShardedMap, fit_values
from repro.simt.events import Wait
from repro.storage.dist_storage import DistGraphStorage


class BfsState:
    """Visited set + frontier for one BFS traversal."""

    def __init__(self, source_local: int, source_shard: int,
                 n_shards: int) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be > 0, got {n_shards}")
        self.n_shards = int(n_shards)
        self.map = ShardedMap()
        self.depths = np.zeros(1024, dtype=np.int64)
        key = np.array([int(source_local) * n_shards + int(source_shard)],
                       dtype=np.int64)
        idx, _ = self.map.get_or_insert(key)
        self.depths[idx[0]] = 0
        self.frontier = key
        self.level = 0

    def pop(self) -> tuple[np.ndarray, np.ndarray]:
        """Current frontier as ``(local_ids, shard_ids)`` (empty = done)."""
        keys = self.frontier
        self.frontier = np.empty(0, dtype=np.int64)
        return keys // self.n_shards, keys % self.n_shards

    def expand(self, infos) -> None:
        """Mark unvisited neighbors at ``level + 1``; queue them."""
        (_indptr, nbr_local, nbr_shard, _g, _w, _wd, _src) = infos.to_arrays()
        if len(nbr_local) == 0:
            return
        keys = nbr_local.astype(np.int64) * self.n_shards + nbr_shard
        slots, new = self.map.get_or_insert(keys)
        if new.any():
            (self.depths,) = fit_values(self.map, self.depths)
            self.depths[slots[new]] = self.level + 1
            # dedupe new keys (duplicates share slots; keep one each)
            uniq_keys = np.unique(keys[new])
            self.frontier = np.concatenate([self.frontier, uniq_keys])

    def advance_level(self) -> None:
        self.level += 1

    def results(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, depths)`` of every reached node."""
        n = len(self.map)
        return self.map.keys(), self.depths[:n]

    def dense_depths(self, sharded, n_nodes: int) -> np.ndarray:
        """Hop distances as a dense vector (-1 = unreached)."""
        out = np.full(n_nodes, -1, dtype=np.int64)
        keys, depths = self.results()
        gids = sharded.global_of(keys // self.n_shards,
                                 keys % self.n_shards)
        out[gids] = depths
        return out


def distributed_bfs(g: DistGraphStorage, proc, source_local: int, *,
                    max_depth: int | None = None):
    """Coroutine: level-synchronous BFS from a core node of ``g``'s shard.

    Returns the finished :class:`BfsState`.
    """
    state = BfsState(source_local, g.shard_id, g.n_shards)
    while True:
        with proc.measured("pop"):
            node_ids, shard_ids = state.pop()
        if len(node_ids) == 0:
            break
        if max_depth is not None and state.level >= max_depth:
            break
        with proc.measured("pop"):
            masks = g.shard_masks(shard_ids)
        futs = {}
        for j, mask in masks.items():
            if j != g.shard_id:
                futs[j] = g.get_neighbor_infos(j, node_ids[mask])
        local_mask = masks.get(g.shard_id)
        if local_mask is not None:
            infos = yield Wait(g.get_neighbor_infos(g.shard_id,
                                                    node_ids[local_mask]))
            with proc.measured("push"):
                state.expand(infos)
        for j in futs:
            infos = yield Wait(futs[j])
            with proc.measured("push"):
                state.expand(infos)
        state.advance_level()
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
        counts = np.diff(graph.indptr)[frontier]
        starts = graph.indptr[frontier]
        offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        idx = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
        nbrs = np.unique(graph.indices[idx])
        fresh = nbrs[depths[nbrs] == -1]
        depths[fresh] = level
        frontier = fresh
    return depths
