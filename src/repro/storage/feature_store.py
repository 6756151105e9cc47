"""Cross-machine node-feature store (the GNN case study's data side).

The paper's ``convert_batch`` "slices corresponding features from a
cross-machine feature store": node features are partitioned exactly like the
graph (rows of a shard's core nodes live on its machine) and mini-batch
construction gathers rows for an arbitrary global-ID set with one batched
RPC per owning shard.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShardError
from repro.rpc.handlers import rpc_handler
from repro.rpc.rref import RRef
from repro.storage.build import ShardedGraph
from repro.storage.dist_storage import shard_masks


class FeatureShard:
    """Feature rows for one shard's core nodes (hosted on its server)."""

    def __init__(self, shard_id: int, first_id: int,
                 features: np.ndarray) -> None:
        if features.ndim != 2:
            raise ShardError(
                f"features must be 2-D (n_core, dim), got {features.shape}"
            )
        self.shard_id = shard_id
        #: the shard owns node ids ``[first_id, first_id + n_rows)``
        self.first_id = int(first_id)
        self.features = features

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @rpc_handler
    def gather(self, ids) -> np.ndarray:
        """Rows for the given core-node ids (copy, RPC-safe)."""
        rows = np.asarray(ids, dtype=np.int64) - self.first_id
        if len(rows) and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ShardError(
                f"feature ids out of range for shard {self.shard_id}"
            )
        return self.features[rows].copy()


def split_features(sharded: ShardedGraph,
                   features: np.ndarray) -> list[FeatureShard]:
    """Partition a global feature matrix into per-shard feature shards."""
    if features.shape[0] != sharded.graph.n_nodes:
        raise ShardError(
            f"features cover {features.shape[0]} nodes, graph has "
            f"{sharded.graph.n_nodes}"
        )
    return [
        FeatureShard(p, sharded.base[p], features[shard.core_global])
        for p, shard in enumerate(sharded.shards)
    ]


class DistFeatureStore:
    """Per-process handle gathering feature rows across machines."""

    def __init__(self, rrefs: list[RRef], caller: str) -> None:
        self.rrefs = rrefs
        self.caller = caller

    def gather_futures(self, sharded: ShardedGraph, global_ids: np.ndarray):
        """Issue one gather per owning shard.

        Returns ``(futures, masks)``: ``futures[j]`` resolves to the rows of
        ``global_ids[masks[j]]`` (``masks`` are :func:`shard_masks`
        selections).  The caller reassembles rows in request order (see
        :func:`assemble_rows`).
        """
        ids = sharded.nodes_of(global_ids)
        masks = shard_masks(sharded.base, ids)
        futures = {j: self.rrefs[j].rpc_async(self.caller, "gather",
                                              ids[mask])
                   for j, mask in masks.items()}
        return futures, masks


def assemble_rows(n_rows: int, dim: int, parts: dict[int, np.ndarray],
                  masks: dict[int, np.ndarray]) -> np.ndarray:
    """Scatter per-shard row blocks back into request order."""
    out = np.empty((n_rows, dim))
    for j, rows in parts.items():
        out[masks[j]] = rows
    return out
