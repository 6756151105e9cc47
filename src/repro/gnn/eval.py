"""Model evaluation with PPR-sampled subgraphs.

Inference mirrors training's data path (ShaDow's principle: the model only
ever sees top-K PPR subgraphs), but runs single-machine against the sharded
storage directly — evaluation is embarrassingly parallel and needs no
virtual cluster.  Used for held-out accuracy in examples/benches and for
replica-consistency checks in tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.gnn.data import Batch
from repro.graph.csr import row_blocks
from repro.gnn.model import ShadowSage
from repro.gnn.sampler import topk_ppr_nodes
from repro.ppr.forward_push_parallel import forward_push_parallel
from repro.ppr.params import PPRParams
from repro.storage.build import ShardedGraph
from repro.utils.validation import check_positive


def local_ppr_batch(sharded: ShardedGraph, features: np.ndarray,
                    labels: np.ndarray, egos: np.ndarray, *,
                    topk: int = 32,
                    params: PPRParams | None = None) -> Batch:
    """Build one evaluation batch: merged top-K PPR subgraphs of ``egos``.

    Runs the single-machine Forward Push per ego (no RPC) and induces the
    union subgraph from the global CSR — the evaluation-time shortcut for
    the distributed ``convert_batch``.
    """
    check_positive("topk", topk)
    params = params if params is not None else PPRParams(epsilon=1e-5)
    graph = sharded.graph
    egos = np.asarray(egos, dtype=np.int64)
    node_sets = []
    for ego in egos.tolist():
        ppr, _, _ = forward_push_parallel(graph, ego, params)
        # dense top-k (evaluation-time shortcut)
        k = min(topk, np.count_nonzero(ppr > 0))
        if k == 0:
            node_sets.append(np.array([ego], dtype=np.int64))
            continue
        top = np.argpartition(-ppr, k - 1)[:k]
        node_sets.append(np.union1d(top, [ego]))
    node_set = np.unique(np.concatenate(node_sets))

    # Induce the adjacency over node_set from the global CSR.
    local_index = {int(g): i for i, g in enumerate(node_set)}
    offsets, idx = row_blocks(graph.indptr, node_set)
    rows = np.repeat(np.arange(len(node_set)), np.diff(offsets))
    nbrs = graph.indices[idx]
    keep = np.isin(nbrs, node_set)
    cols = np.searchsorted(node_set, nbrs[keep])
    adj = sp.coo_matrix(
        (graph.weights[idx][keep], (rows[keep], cols)),
        shape=(len(node_set), len(node_set)),
    ).tocsr()
    del local_index
    return Batch(
        x=features[node_set],
        adj=adj,
        ego_idx=np.searchsorted(node_set, egos),
        y=labels[egos],
        global_ids=node_set,
    )


def evaluate(model: ShadowSage, sharded: ShardedGraph, features: np.ndarray,
             labels: np.ndarray, egos: np.ndarray, *, topk: int = 32,
             batch_size: int = 32,
             params: PPRParams | None = None) -> dict:
    """Accuracy (and per-class recall) of ``model`` on the given egos."""
    egos = np.asarray(egos, dtype=np.int64)
    model.train_mode(False)
    correct = 0
    preds = np.empty(len(egos), dtype=np.int64)
    try:
        for start in range(0, len(egos), batch_size):
            chunk = egos[start:start + batch_size]
            batch = local_ppr_batch(sharded, features, labels, chunk,
                                    topk=topk, params=params)
            p = model.predict(batch)
            preds[start:start + len(chunk)] = p
            correct += int((p == batch.y).sum())
    finally:
        model.train_mode(True)
    accuracy = correct / max(len(egos), 1)
    n_classes = int(labels.max()) + 1
    recall = {}
    for c in range(n_classes):
        mask = labels[egos] == c
        if mask.any():
            recall[c] = float((preds[mask] == c).mean())
    return {"accuracy": accuracy, "n_egos": len(egos),
            "per_class_recall": recall}
