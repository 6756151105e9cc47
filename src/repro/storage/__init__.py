"""``repro.storage`` — distributed graph storage (paper Section 3.2).

Implements the storage stack exactly as the paper lays it out:

* :class:`GraphShard` — one partition's data in CSR form: rows are *core
  nodes* (the partition's METIS assignment), columns are core + *halo*
  nodes (1-hop neighbors cached with their shard IDs, local IDs, edge
  weights, and weighted degrees — Figures 2 and 3).  Keeping neighbor
  weighted degrees on the shard (one node-indexed table every row reads
  from) is what lets Forward Push threshold-check remotely-owned nodes
  without extra RPCs.
* :class:`VertexProp` — the zero-copy local-fetch result: the requested
  rows of the shard's arena, "a vector of shared pointers ... without
  taking ownership of the original data".
* :class:`NeighborBatch` — the CSR rows format (the *Compress*
  optimization): five flat arrays instead of a list of small per-node
  tensors.  A remote fetch answers with a
  :class:`~repro.storage.vertex_prop.RowSelection` of the serving arena,
  priced as the ``NeighborBatch`` it names and gathered by the consumer.
  :class:`NeighborLists` is the uncompressed list-of-lists response kept
  for the Table 3 ablation.
* :class:`ShardedGraph` / :func:`build_shards` — partition-to-shard
  preprocessing, including the global -> (local ID, shard ID) address
  translation the engine uses everywhere.
* :class:`DistGraphStorage` — the per-process facade of Figure 4:
  ``get_neighbor_infos`` and ``sample_one_neighbor`` against local or
  remote shards through RRefs.
* :class:`NeighborFetchService` / :class:`FetchCache` — the facade
  subclass every compressed-path driver holds, and the per-machine
  ledger it records remote demand (heat) in.
"""

from repro.storage.build import ShardedGraph, build_shards
from repro.storage.dist_storage import DistGraphStorage
from repro.storage.fetch import FetchCache, NeighborFetchService
from repro.storage.neighbor_batch import NeighborBatch, NeighborLists
from repro.storage.shard import GraphShard
from repro.storage.vertex_prop import VertexProp

__all__ = [
    "DistGraphStorage",
    "FetchCache",
    "GraphShard",
    "NeighborBatch",
    "NeighborFetchService",
    "NeighborLists",
    "ShardedGraph",
    "VertexProp",
    "build_shards",
]
