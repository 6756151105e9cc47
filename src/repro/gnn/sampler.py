"""PPR-based mini-batch construction — the paper's ``convert_batch``.

Following ShaDow's design principle, each ego node's subgraph is the set of
its top-K SSPPR nodes; a mini-batch merges the per-ego node sets, induces
the subgraph over the union (adjacency fetched shard-by-shard through the
distributed storage), and slices features from the cross-machine feature
store.  All cross-machine traffic is batched per shard, like every other
engine operation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.gnn.data import Batch
from repro.ppr.multi_query import QueryView
from repro.simt.events import Wait, WaitAll
from repro.storage.build import ShardedGraph
from repro.storage.dist_storage import DistGraphStorage, shard_masks
from repro.storage.feature_store import DistFeatureStore, assemble_rows
from repro.utils.validation import check_positive


def topk_ppr_nodes(state: QueryView, sharded: ShardedGraph, k: int,
                   *, include: np.ndarray | None = None) -> np.ndarray:
    """Global IDs of the top-``k`` PPR nodes of a finished query.

    ``include`` forces specific globals (the ego itself) into the set.
    """
    check_positive("k", k)
    gids, values = state.results_global(sharded)
    if len(gids) > k:
        part = np.argpartition(-values, k - 1)[:k]
        gids = gids[part]
    if include is not None:
        gids = np.union1d(gids, include)
    return np.sort(gids)


def induce_subgraph(sharded: ShardedGraph, g: DistGraphStorage,
                    node_set: np.ndarray):
    """Coroutine: induced adjacency over ``node_set`` via batched fetches.

    Fetches the neighbor lists of every node in the set (one RPC per owning
    shard), keeps only arcs whose endpoint is also in the set, and relabels
    to subgraph-local rows.  Returns ``scipy.sparse.csr_matrix``.
    """
    node_set = np.asarray(node_set, dtype=np.int64)
    ids = sharded.nodes_of(node_set)
    masks = shard_masks(sharded.base, ids)
    futs = {j: g.get_neighbor_infos(j, ids[mask])
            for j, mask in masks.items()}
    rows_parts, cols_parts, data_parts = [], [], []
    for j, fut in futs.items():
        infos = yield Wait(fut)
        indptr, nbr_ids, weights, _wd, _src = infos.to_arrays()
        nbr_gids = sharded.globals_of(nbr_ids)
        counts = np.diff(indptr)
        row_ids = np.repeat(np.arange(len(ids))[masks[j]], counts)
        keep = np.isin(nbr_gids, node_set)
        col_ids = np.searchsorted(node_set, nbr_gids[keep])
        rows_parts.append(row_ids[keep])
        cols_parts.append(col_ids)
        data_parts.append(weights[keep])
    n = len(node_set)
    if rows_parts:
        adj = sp.coo_matrix(
            (np.concatenate(data_parts),
             (np.concatenate(rows_parts), np.concatenate(cols_parts))),
            shape=(n, n),
        ).tocsr()
    else:
        adj = sp.csr_matrix((n, n))
    return adj


def convert_batch(sharded: ShardedGraph, g: DistGraphStorage,
                  feats: DistFeatureStore, node_set: np.ndarray,
                  ego_global: np.ndarray, labels_of_ego: np.ndarray):
    """Coroutine: assemble one ShaDow :class:`~repro.gnn.data.Batch`.

    ``node_set`` must be sorted and contain every ego.  Fetches features and
    adjacency concurrently (both are per-shard batched RPCs).
    """
    node_set = np.asarray(node_set, dtype=np.int64)
    ego_global = np.asarray(ego_global, dtype=np.int64)
    missing = np.setdiff1d(ego_global, node_set)
    if len(missing):
        raise ValueError(f"ego nodes missing from node_set: {missing[:5]}")

    feat_futs, feat_masks = feats.gather_futures(sharded, node_set)
    adj = yield from induce_subgraph(sharded, g, node_set)
    order = sorted(feat_futs)
    parts_list = yield WaitAll([feat_futs[j] for j in order])
    parts = dict(zip(order, parts_list))
    dim = next(iter(parts.values())).shape[1]
    x = assemble_rows(len(node_set), dim, parts, feat_masks)
    ego_idx = np.searchsorted(node_set, ego_global)
    return Batch(x=x, adj=adj, ego_idx=ego_idx, y=labels_of_ego,
                 global_ids=node_set)
