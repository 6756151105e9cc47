"""Partition-to-shard preprocessing (Section 3.2's "Graph Shard Preprocessing").

Given a graph and a partition assignment, build one :class:`GraphShard` per
part plus the address book.  Every node gets one **node id**: shard ``s``
owns the contiguous range ``[base[s], base[s+1])`` and a node's id is
``base[owner]`` plus its rank in its owner's ascending caller-id list.  The
id alone says where the node lives (owner = one ``searchsorted`` over the
K+1 entries of ``base``, row = ``id - base[owner]``) — the paper's
``<local ID, shard ID>`` addressing with one integer instead of two, and the
shape of DistDGL's contiguous-range partition book.  Everything below the
engine facade speaks node ids; the caller's (global) ids exist only at
:class:`ShardedGraph`'s boundary functions.  All of it is vectorized
gathers — no Python-level per-edge loops.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShardError
from repro.graph.csr import CSRGraph, row_blocks
from repro.partition.base import PartitionResult
from repro.storage.neighbor_batch import NeighborBatch
from repro.storage.shard import GraphShard


class ShardedGraph:
    """All shards of one graph plus caller id <-> node id translation."""

    def __init__(self, graph: CSRGraph, result: PartitionResult,
                 shards: list[GraphShard], base: np.ndarray,
                 to_node: np.ndarray, to_global: np.ndarray) -> None:
        #: zero-arg source of the whole-graph view.  The shards are the
        #: live truth; a streaming session points this at its mirror's
        #: ``snapshot`` so the view is materialised by whoever reads it,
        #: never on the ingest path, and can never be stale.
        self.graph_source = lambda: graph
        self.result = result
        self.shards = shards
        self.n_shards = result.n_parts
        #: shard ``s`` owns node ids ``[base[s], base[s+1])``
        self.base = base
        #: the two |V| permutations of the boundary: caller id -> node id
        #: and back.  A rebalance rebuilds all three (a relabel epoch).
        self.to_node = to_node
        self.to_global = to_global

    @property
    def graph(self) -> CSRGraph:
        """The frozen whole-graph view the shards currently hold."""
        return self.graph_source()

    def nodes_of(self, global_ids) -> np.ndarray:
        """Translate caller ids -> node ids (the way in; range-checked)."""
        return self._translate(self.to_node, global_ids, "global_ids")

    def globals_of(self, ids) -> np.ndarray:
        """Translate node ids -> caller ids (the way out; range-checked)."""
        return self._translate(self.to_global, ids, "node ids")

    @staticmethod
    def _translate(perm: np.ndarray, ids, what: str) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(perm)):
            raise ShardError(
                f"{what} out of range [0, {len(perm)}): "
                f"[{ids.min()}, {ids.max()}]"
            )
        return perm[ids]

    def owner_of(self, ids) -> np.ndarray:
        """Owner shard of each node id."""
        return np.searchsorted(self.base, ids, side="right") - 1

    def total_memory_nbytes(self) -> int:
        return sum(s.memory_nbytes() for s in self.shards)

    def describe(self) -> list[dict]:
        return [s.describe() for s in self.shards]


def _rows_of_graph(graph: CSRGraph, nodes: np.ndarray,
                   to_node: np.ndarray, degrees: np.ndarray) -> NeighborBatch:
    """The adjacency rows of ``nodes`` (caller ids) as one row block over
    the node-indexed degree table ``degrees``."""
    indptr, idx = row_blocks(graph.indptr, nodes)
    return NeighborBatch(indptr, to_node[graph.indices[idx]],
                         graph.weights[idx], None, None, check=False,
                         degrees=degrees, src_ids=to_node[nodes])


def build_shards(graph: CSRGraph, result: PartitionResult, *,
                 seed=0, halo_hops: int = 1) -> ShardedGraph:
    """Convert a partitioned graph into per-shard CSR storage.

    ``halo_hops=1`` (default) caches only halo *metadata* (ids in the
    neighbor arrays and weighted degrees in one node-indexed table, which
    every shard shares until its first stage — the paper's scheme).
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
    # One stable argsort lays the nodes out shard by shard, ascending
    # caller id inside each shard: position in that layout is the node id.
    to_global = np.argsort(result.assignment, kind="stable")
    to_node = np.empty(graph.n_nodes, dtype=np.int64)
    to_node[to_global] = np.arange(graph.n_nodes)
    base = np.zeros(n_shards + 1, dtype=np.int64)
    np.cumsum(np.bincount(result.assignment, minlength=n_shards),
              out=base[1:])
    degrees = graph.weighted_degrees[to_global]
    for book in (base, to_node, to_global, degrees):
        book.flags.writeable = False

    shards = []
    for p in range(n_shards):
        core = to_global[base[p]:base[p + 1]]
        shards.append(GraphShard(
            p, base, core, _rows_of_graph(graph, core, to_node, degrees),
            seed=None if seed is None else seed + p,
        ))

    if halo_hops == 2:
        for shard in shards:
            halo_ids = shard.halo_nodes()
            shard.install_halo_cache(
                halo_ids,
                _rows_of_graph(graph, to_global[halo_ids], to_node, degrees))
    return ShardedGraph(graph, result, shards, base, to_node, to_global)
