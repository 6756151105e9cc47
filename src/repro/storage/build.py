"""Partition-to-shard preprocessing (Section 3.2's "Graph Shard Preprocessing").

Given a graph and a partition assignment, build one :class:`GraphShard` per
part plus the global address book: every global node ID maps to its owner
``(shard ID, local ID)`` pair, where the local ID is the node's rank within
its shard's ascending global-ID list.  All of it is vectorized gathers — no
Python-level per-edge loops.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShardError
from repro.graph.csr import CSRGraph, row_blocks
from repro.partition.base import PartitionResult
from repro.storage.shard import GraphShard


class ShardedGraph:
    """All shards of one graph plus global <-> (local, shard) translation."""

    def __init__(self, graph: CSRGraph, result: PartitionResult,
                 shards: list[GraphShard]) -> None:
        #: zero-arg source of the whole-graph view.  The shards are the
        #: live truth; a streaming session points this at its mirror's
        #: ``snapshot`` so the view is materialised by whoever reads it,
        #: never on the ingest path, and can never be stale.
        self.graph_source = lambda: graph
        self.result = result
        self.shards = shards
        self.n_shards = result.n_parts
        # Address book: owner shard and owner-local ID per global node.
        self.owner_shard = result.assignment
        self.owner_local = np.empty(graph.n_nodes, dtype=np.int64)
        for shard in shards:
            self.owner_local[shard.core_global] = np.arange(shard.n_core)

    @property
    def graph(self) -> CSRGraph:
        """The frozen whole-graph view the shards currently hold."""
        return self.graph_source()

    def address_of(self, global_ids) -> tuple[np.ndarray, np.ndarray]:
        """Translate global IDs -> ``(local_ids, shard_ids)``."""
        gids = np.asarray(global_ids, dtype=np.int64)
        if len(gids) and (gids.min() < 0
                          or gids.max() >= len(self.owner_local)):
            raise ShardError("global_ids out of range")
        return self.owner_local[gids], self.owner_shard[gids]

    def global_of(self, local_ids, shard_ids) -> np.ndarray:
        """Translate ``(local, shard)`` pairs back to global IDs."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        shard_ids = np.asarray(shard_ids, dtype=np.int64)
        if len(shard_ids) and (shard_ids.min() < 0
                               or shard_ids.max() >= self.n_shards):
            raise ShardError("shard_ids out of range")
        out = np.empty(len(local_ids), dtype=np.int64)
        for p, shard in enumerate(self.shards):
            mask = shard_ids == p
            if mask.any():
                ids = local_ids[mask]
                if ids.max(initial=-1) >= shard.n_core:
                    raise ShardError(f"local_ids out of range for shard {p}")
                out[mask] = shard.core_global[ids]
        return out

    def keys_of(self, global_ids) -> np.ndarray:
        """Encode global IDs as the engine's flat ``local*K + shard`` keys."""
        local, shard = self.address_of(global_ids)
        return local * self.n_shards + shard

    def globals_from_keys(self, keys) -> np.ndarray:
        """Decode flat keys back to global IDs."""
        keys = np.asarray(keys, dtype=np.int64)
        return self.global_of(keys // self.n_shards, keys % self.n_shards)

    def total_memory_nbytes(self) -> int:
        return sum(s.memory_nbytes() for s in self.shards)

    def describe(self) -> list[dict]:
        return [s.describe() for s in self.shards]


def build_shards(graph: CSRGraph, result: PartitionResult, *,
                 seed=0, halo_hops: int = 1) -> ShardedGraph:
    """Convert a partitioned graph into per-shard CSR storage.

    ``halo_hops=1`` (default) caches only halo *metadata* (addresses and
    weighted degrees inline in the neighbor arrays — the paper's scheme).
    ``halo_hops=2`` additionally caches the full adjacency *rows* of every
    1-hop halo node, so requests for them are answered locally — the
    memory-for-communication trade the paper describes in Section 3.2.1.
    """
    if halo_hops not in (1, 2):
        raise ShardError(f"halo_hops must be 1 or 2, got {halo_hops}")
    if result.n_nodes != graph.n_nodes:
        raise ShardError(
            f"partition covers {result.n_nodes} nodes, graph has {graph.n_nodes}"
        )
    n_shards = result.n_parts
    assignment = result.assignment

    # Owner-local IDs for every node (rank within its part's sorted list).
    owner_local = np.empty(graph.n_nodes, dtype=np.int64)
    part_nodes = []
    for p in range(n_shards):
        nodes = np.flatnonzero(assignment == p)
        part_nodes.append(nodes)
        owner_local[nodes] = np.arange(len(nodes))

    shards = []
    for p in range(n_shards):
        core = part_nodes[p]
        # Flat gather of all core rows out of the global CSR.
        indptr, idx = row_blocks(graph.indptr, core)
        nbr_global = graph.indices[idx]
        shards.append(GraphShard(
            shard_id=p,
            n_shards=n_shards,
            core_global=core,
            indptr=indptr,
            nbr_local=owner_local[nbr_global],
            nbr_shard=assignment[nbr_global],
            nbr_global=nbr_global,
            nbr_weight=graph.weights[idx],
            nbr_wdeg=graph.weighted_degrees[nbr_global],
            core_wdeg=graph.weighted_degrees[core],
            seed=None if seed is None else seed + p,
        ))

    if halo_hops == 2:
        n_shards_i = n_shards
        for shard in shards:
            halos = shard.halo_globals()
            # Sort halos by packed owner key so cache lookups can binary
            # search.
            halo_keys = owner_local[halos] * n_shards_i + assignment[halos]
            order = np.argsort(halo_keys)
            halos, halo_keys = halos[order], halo_keys[order]
            cache_indptr, idx = row_blocks(graph.indptr, halos)
            nbr_global = graph.indices[idx]
            shard.install_halo_cache(
                halo_keys,
                cache_indptr,
                (owner_local[nbr_global], assignment[nbr_global],
                 nbr_global, graph.weights[idx],
                 graph.weighted_degrees[nbr_global]),
                graph.weighted_degrees[halos],
            )
    return ShardedGraph(graph, result, shards)
