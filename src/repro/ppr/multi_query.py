"""Batched multi-query SSPPR — inter-query RPC sharing.

The paper batches RPCs *within* one query's iteration (all activated
vertices per destination shard).  This module extends the same idea across
queries, as suggested by the production setting of Section 3.1 ("each
machine processes a batch of SSPPR queries in parallel"): a
:class:`MultiSSPPR` advances B queries in lockstep, and each iteration
fetches the **union** of their activated vertices — one RPC per destination
shard for the whole batch, with every fetched adjacency row reused by every
query that needs it.

State layout: the slot-table key packs ``(node, query)`` as
``id * B + qid``; the frontier is the queued flags of the
touched pair slots.  Pops dedupe at the *node* level for fetching while
retaining the per-(node, query) activation pairs — node, query and slot,
sorted by pair key — for the push expansion.  Total push work equals
running the queries separately — the savings are pure communication (fewer,
larger RPCs; shared rows).
"""

from __future__ import annotations

import numpy as np

from repro.ppr.params import PPRParams
from repro.ppr.ppr_ops import PushState


class MultiSSPPR(PushState):
    """Lockstep state for a batch of SSPPR queries sharing fetches."""

    def __init__(self, sources, params: PPRParams, source_wdegs) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        source_wdegs = np.asarray(source_wdegs, dtype=np.float64)
        if len(sources) == 0:
            raise ValueError("MultiSSPPR needs at least one source")
        if len(source_wdegs) != len(sources):
            raise ValueError("source_wdegs length mismatch")
        if np.any(source_wdegs < 0):
            raise ValueError("source_wdegs must be >= 0")
        self.n_queries = len(sources)
        # The popped pairs sorted by pair key, as (node ids, query ids,
        # slots); None once a pop found nothing activated.
        self._pending: tuple | None = None
        qids = np.arange(self.n_queries, dtype=np.int64)
        self._seed(params, sources * self.n_queries + qids, source_wdegs)

    # -- operators -----------------------------------------------------------
    def pop(self) -> np.ndarray:
        """Unique activated *nodes* across all queries -> fetch list.

        The per-(node, query) pairs are retained internally for push.
        Returned node ids are ascending (the order push expects back via
        its ``ids`` argument).
        """
        slots = self._drain()
        if len(slots) == 0:
            self._pending = None
            return slots
        pairs = self.map.keys()[slots]
        order = np.argsort(pairs)
        # pairs are sorted, so pair_nodes is sorted: dedupe with one diff
        # scan instead of a second np.unique sort, and cache for push().
        pair_nodes, pair_qids = np.divmod(pairs[order], self.n_queries)
        self._pending = (pair_nodes, pair_qids, slots[order])
        first = np.empty(len(pair_nodes), dtype=bool)
        first[0] = True
        np.not_equal(pair_nodes[1:], pair_nodes[:-1], out=first[1:])
        return pair_nodes[first]

    def push(self, infos, ids: np.ndarray) -> None:
        """Apply one fetched chunk to every query activated on its nodes."""
        indptr, nbr_ids, weights, nbr_wdeg, src_wdeg = infos.to_arrays()
        if len(indptr) - 1 != len(ids):
            raise ValueError(
                f"infos cover {len(indptr) - 1} sources, got "
                f"{len(ids)} popped ids"
            )
        if len(ids) == 0 or self._pending is None:
            return
        pair_nodes, pair_qids, pair_slots = self._pending
        chunk_nodes = np.asarray(ids, dtype=np.int64)
        # Pair range for each chunk node (pairs are sorted by pair key,
        # hence by node id first).
        starts = np.searchsorted(pair_nodes, chunk_nodes, side="left")
        ends = np.searchsorted(pair_nodes, chunk_nodes, side="right")
        pair_counts = ends - starts
        total_pairs = int(pair_counts.sum())
        if total_pairs == 0:
            return
        # Flatten: for chunk node i, its active pairs.
        offsets = np.zeros(len(pair_counts) + 1, dtype=np.int64)
        np.cumsum(pair_counts, out=offsets[1:])
        pair_sel = (np.repeat(starts - offsets[:-1], pair_counts)
                    + np.arange(total_pairs))
        sel_qids = pair_qids[pair_sel]
        # chunk-node index each pair belongs to
        pair_chunk_idx = np.repeat(np.arange(len(chunk_nodes)), pair_counts)

        scale = self._take(pair_slots[pair_sel], src_wdeg[pair_chunk_idx])
        # Expand each pair over its node's adjacency row.
        row_counts = indptr[1:] - indptr[:-1]
        pair_row_counts = row_counts[pair_chunk_idx]
        total_entries = int(pair_row_counts.sum())
        if total_entries == 0:
            return
        row_starts = indptr[:-1][pair_chunk_idx]
        entry_offsets = np.zeros(total_pairs + 1, dtype=np.int64)
        np.cumsum(pair_row_counts, out=entry_offsets[1:])
        entry_idx = np.repeat(row_starts - entry_offsets[:-1],
                              pair_row_counts) + np.arange(total_entries)
        self._spread(nbr_ids[entry_idx] * self.n_queries
                     + np.repeat(sel_qids, pair_row_counts),
                     weights[entry_idx] * np.repeat(scale, pair_row_counts),
                     nbr_wdeg, entry_idx)

    # -- results ------------------------------------------------------------
    def results_for(self, qid: int) -> tuple[np.ndarray, np.ndarray]:
        """``(node ids, ppr)`` of one query's positive-mass nodes."""
        if not 0 <= qid < self.n_queries:
            raise ValueError(f"qid {qid} out of range [0, {self.n_queries})")
        n = len(self.map)
        keys = self.map.keys()
        mine = keys % self.n_queries == qid
        ppr = self.ppr[:n][mine]
        pos = ppr > 0
        return (keys[mine][pos] // self.n_queries), ppr[pos]

    def dense_result_for(self, qid: int, sharded, n_nodes: int) -> np.ndarray:
        """One query's PPR as a dense |V| vector."""
        ids, values = self.results_for(qid)
        out = np.zeros(n_nodes)
        out[sharded.globals_of(ids)] = values
        return out

    def residuals_for(self, qid: int) -> tuple[np.ndarray, np.ndarray]:
        """``(node ids, residual)`` of one query's nonzero residuals."""
        if not 0 <= qid < self.n_queries:
            raise ValueError(f"qid {qid} out of range [0, {self.n_queries})")
        n = len(self.map)
        keys = self.map.keys()
        mine = keys % self.n_queries == qid
        res = self.residual[:n][mine]
        nz = res != 0
        return (keys[mine][nz] // self.n_queries), res[nz]

    def dense_residual_for(self, qid: int, sharded,
                           n_nodes: int) -> np.ndarray:
        """One query's residual as a dense |V| vector.

        The residual is the other half of the forward-push invariant;
        the streaming layer seeds incremental maintenance
        (:mod:`repro.ppr.incremental`) from the exact ``(p, r)`` pair.
        """
        ids, values = self.residuals_for(qid)
        out = np.zeros(n_nodes)
        out[sharded.globals_of(ids)] = values
        return out
