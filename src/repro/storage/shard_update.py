"""The staged-update payload one shard receives during stream ingestion.

A :class:`ShardUpdate` carries everything shard ``p`` needs to apply one
update batch without further communication, as two blocks of CSR rows
(:class:`~repro.storage.neighbor_batch.NeighborBatch`, keyed by node id):

* **row replacements** (``row_ids`` / ``rows``) — for every *core*
  vertex of ``p`` whose adjacency changed, the complete new row (targets
  in caller-id order, with their node ids, weights, and new weighted
  degrees; ``src_wdeg`` is the vertex's own new degree), whose ids and
  weights replace the old row wholesale: the shard appends them to its
  arena's buffer and points the row at them, so staging costs these
  rows, not the arena.  Row replacement is idempotent and
  order-insensitive, which keeps retried RPCs and split/merged batches
  convergent.
* **changed rows** (``changed_ids`` / ``changed_rows``) — the same
  complete rows for *every* vertex the batch changed, anywhere in the
  graph, identical for all shards.  Its rows are the **halo row
  refresh**: shards holding a 2-hop halo cache replace the cached
  adjacency of changed vertices in place (cached content always equals
  the owner's current row; coverage of *new* halo vertices is left to
  rebalancing/replication).

Both blocks' degree columns are the **degree broadcast**.  A shard keeps
every degree once per node id, in one table its arena and halo cache
read from; staging copies that table and scatters into it each block's
``wdeg`` by neighbor id, then each block's ``src_wdeg`` by row id (the 1-hop
degree halo stays coherent without a second RPC round).  Every degree
column shipped is read there: ``src_wdeg`` is the only carrier of a
changed vertex's own degree when no changed row names it (a vertex that
lost its last edge), and the per-entry ``wdeg`` carries the mirror's
degree of each neighbor a changed row names.

Both blocks travel packed (one ``indptr``), whatever layout the shard
keeps.  Built by :func:`repro.stream.ingest.build_shard_payloads` from
the rows :meth:`~repro.stream.dynamic.DynamicGraph.apply` laid out;
consumed by :meth:`repro.storage.shard.GraphShard.stage_updates`.  Implements
``rpc_tensors`` so the RPC cost model prices the ingest traffic like
any other message.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShardError
from repro.storage.neighbor_batch import NeighborBatch


class ShardUpdate:
    """One shard's view of one update batch (see module docstring)."""

    __slots__ = ("row_ids", "rows", "changed_ids", "changed_rows")

    def __init__(self, row_ids, rows: NeighborBatch, changed_ids,
                 changed_rows: NeighborBatch) -> None:
        self.row_ids = np.ascontiguousarray(row_ids, dtype=np.int64)
        self.rows = rows
        self.changed_ids = np.ascontiguousarray(changed_ids, dtype=np.int64)
        self.changed_rows = changed_rows
        for name, ids, block in (("row", self.row_ids, rows),
                                 ("changed", self.changed_ids, changed_rows)):
            if block.n_sources != len(ids):
                raise ShardError(f"{name}_ids / {name} rows length mismatch")
            if len(ids) and bool(np.any(np.diff(ids) <= 0)):
                raise ShardError(f"{name}_ids must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return int(self.row_ids.shape[0])

    @property
    def n_changed(self) -> int:
        return int(self.changed_ids.shape[0])

    def rpc_tensors(self):
        """The two id arrays, then both row blocks' tensors."""
        return [(self.row_ids.dtype, self.row_ids.nbytes),
                (self.changed_ids.dtype, self.changed_ids.nbytes),
                *self.rows.rpc_tensors(), *self.changed_rows.rpc_tensors()]
