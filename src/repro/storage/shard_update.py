"""The staged-update payload one shard receives during stream ingestion.

A :class:`ShardUpdate` carries everything shard ``p`` needs to apply one
update batch without further communication, as two blocks of CSR rows
(:class:`~repro.storage.neighbor_batch.NeighborBatch`, keyed by node id):

* **row replacements** (``row_ids`` / ``rows``) — for every *core*
  vertex of ``p`` whose adjacency changed, the complete new row (targets
  in caller-id order, with their node ids, weights, and new weighted
  degrees; ``src_wdeg`` is the vertex's own new degree), spliced
  wholesale over the old row.  Row replacement is idempotent and
  order-insensitive, which keeps retried RPCs and split/merged batches
  convergent.
* **changed rows** (``changed_ids`` / ``changed_rows``) — the same
  complete rows for *every* vertex the batch changed, anywhere in the
  graph, identical for all shards.  Its ``(changed_ids, src_wdeg)``
  columns are the **degree broadcast**: the shard patches the neighbor-
  degree column of its arena and halo cache with them (the 1-hop degree
  halo stays coherent without a second RPC round).  Its rows are the
  **halo row refresh**: shards holding a 2-hop halo cache replace the
  cached adjacency of changed vertices in place (cached content always
  equals the owner's current row; coverage of *new* halo vertices is
  left to rebalancing/replication).

Built by :func:`repro.stream.ingest.build_shard_payloads`; consumed by
:meth:`repro.storage.shard.GraphShard.stage_updates`.  Implements
``rpc_payload`` so the RPC cost model prices the ingest traffic like
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

    def rpc_payload(self) -> tuple[int, int]:
        """The two id arrays plus the two row blocks, each priced as a
        response of its own."""
        nbytes = self.row_ids.nbytes + self.changed_ids.nbytes
        n_tensors = 2
        for block in (self.rows, self.changed_rows):
            block_nbytes, block_tensors = block.rpc_payload()
            nbytes += block_nbytes
            n_tensors += block_tensors
        return nbytes, n_tensors
