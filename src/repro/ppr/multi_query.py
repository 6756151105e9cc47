"""The PPR operators of Section 3.3 — one push state for every query.

The paper's production setting (Section 3.1) has each machine process "a
batch of SSPPR queries in parallel".  :class:`MultiSSPPR` is that batch as
one Forward-Push state: B queries advance in lockstep, and each iteration
fetches the **union** of their activated vertices — one RPC per
destination shard for the whole batch, every fetched adjacency row reused
by every query that needs it.  One query is a batch of one
(:class:`~repro.ppr.ppr_ops.SSPPR` only names that case), so ``pop`` /
``push`` are written once.

State: a :class:`~repro.ppr.hashmap.ShardedMap` from ``(node, query)`` pair
keys ``node * B + qid`` to dense slots, and four slot-indexed value arrays
(residual, PPR score, weighted degree, queued flag).  The activated set
*is* the queued flags of the touched slots, so only ``push`` resolves keys.
Work per iteration is proportional to the *touched frontier*, never to |V|
— the property that separates the PPR Engine from the tensor baseline.
A state is told its node domain ``n_nodes`` and declares the pair-key
domain ``n_nodes * B`` to its key-indexed table: an O(domain) fill once per
state, and each iteration stays O(frontier) — one gather per pushed entry.

Semantics follow the parallel Forward Push of Shun et al. [22] as adapted
by the paper, and run exactly the schedule of
:func:`~repro.ppr.forward_push_parallel.forward_push_parallel`: ``pop``
drains the activated set, deduped to *nodes* for fetching, and takes every
popped pair's residual out of ``residual`` into a pop-time stash (the
reference's ``r_f = residual[frontier].copy(); residual[frontier] = 0``).
``push`` consumes sources *with their neighbor information* (local
VertexProp, remote RowSelection or NeighborLists) and pushes each popped
pair once from that stash: it converts ``alpha * r`` into PPR mass, spreads
``(1 - alpha) * r`` over out-neighbors weighted by ``W(v,u)/d_w(v)``, and
re-activates any pair whose residual crosses ``epsilon * d_w``.  The
spread is one ``bincount`` over the pushed entries' slots, and the
threshold is tested only on the slots it *hit* (non-zero sum), never per
entry.  That is exact because of an invariant that holds after every
``push``: each touched slot above ``epsilon * d_w`` is already queued.
``pop`` zeroes the residual of every slot it dequeues, a slot's ``d_w``
never changes once recorded, and a slot the spread did not hit gains
``+0.0``, so its residual is bit for bit the one last tested.  Mass a
frontier node receives from its peers in the same iteration stays in
``residual`` for the next one, so the visit order of an iteration's
sources changes no count, and the batched driver applies the whole round
as one ``push``.  Total push work equals running the queries separately —
batching saves communication only.

Dangling nodes (weighted degree 0) absorb their entire residual into their
PPR score, so every query conserves its mass: ``sum(ppr) + sum(residual) +
abandoned_mass == 1`` at every step, popped residual not yet pushed
counted as residual (``abandon`` is the ``skip_remote`` write-off).
:class:`QueryView` is the one per-query result surface.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ppr.hashmap import ShardedMap, fit_values
from repro.ppr.params import PPRParams
from repro.storage.vertex_prop import gather_rows
from repro.utils.validation import check_int

_NOT_POPPED = "push received sources that were never touched or not popped"
_TWICE = "push received sources already pushed or abandoned this iteration"


class _Popped(NamedTuple):
    """The last pop's pairs, sorted by pair key."""

    nodes: np.ndarray     # node id of each pair
    qids: np.ndarray      # query id of each pair
    slots: np.ndarray     # slot of each pair
    residual: np.ndarray  # each pair's residual at pop time (the stash)
    claimed: np.ndarray   # whether the pair was pushed or abandoned yet
    one_each: bool        # whether every node carries exactly one pair


def split_residual(r_v: np.ndarray, src_wdeg: np.ndarray,
                   alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """What pushed sources keep and spread: ``(gained, scale)``.

    A source converts ``alpha * r`` into PPR mass and scales its out-edge
    weights by ``(1 - alpha) * r / d_w``; a dangling one (``d_w == 0``)
    absorbs its whole residual and spreads nothing.
    """
    gained = alpha * r_v
    scale = (1.0 - alpha) * r_v
    dangling = src_wdeg <= 0.0
    if dangling.any():
        gained[dangling] = r_v[dangling]
        scale /= np.where(dangling, 1.0, src_wdeg)
        scale[dangling] = 0.0
    else:
        scale /= src_wdeg
    return gained, scale


class MultiSSPPR:
    """Lockstep Forward-Push state for a batch of SSPPR queries.

    ``n_nodes`` is the node-id domain ``[0, n_nodes)`` every source and
    neighbor lies in; the slot table declares the pair-key domain
    ``n_nodes * B``.
    """

    def __init__(self, sources, params: PPRParams, source_wdegs,
                 n_nodes: int) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        source_wdegs = np.asarray(source_wdegs, dtype=np.float64)
        if len(sources) == 0:
            raise ValueError("MultiSSPPR needs at least one source")
        if len(source_wdegs) != len(sources):
            raise ValueError("source_wdegs length mismatch")
        if np.any(source_wdegs < 0):
            raise ValueError(f"source_wdegs must be >= 0, got {source_wdegs}")
        check_int("n_nodes", n_nodes, positive=True)
        self.params = params
        self.n_queries = b = len(sources)
        # pair keys live in [0, n_nodes * B)
        self.map = ShardedMap(n_nodes * b)
        cap = 1024
        self.residual = np.zeros(cap)
        self.ppr = np.zeros(cap)
        self.wdeg = np.zeros(cap)
        self.queued = np.zeros(cap, dtype=bool)  # the activated set
        # Operator statistics (push-count ablation, workload accounting).
        self.n_pushes = 0
        self.n_entries_processed = 0
        self.n_iterations = 0
        # skip_remote accounting, per query: residual written off because
        # its shard could not be fetched, and the fetches it was lost in.
        self.abandoned_mass = np.zeros(b)
        self.skipped_fetches = np.zeros(b, dtype=np.int64)
        # The last pop's pairs; None once the activated set is empty.
        self._pending: _Popped | None = None
        idx, _ = self.map.get_or_insert(sources * b + np.arange(b))
        self._fit_values()
        self.residual[idx] = 1.0
        self.wdeg[idx] = source_wdegs
        self.queued[idx] = True

    def _fit_values(self) -> None:
        (self.residual, self.ppr, self.wdeg, self.queued) = fit_values(
            self.map, self.residual, self.ppr, self.wdeg, self.queued)

    # -- operators -----------------------------------------------------------
    def pop(self) -> np.ndarray:
        """Drain the activated set -> node ids, ascending, and clear it.

        The paper: "the pop operator first returns the local ID tensor and
        the shard ID tensor from the current activated vertex set and then
        clears the set" — one id tensor here, because a node id names its
        shard; ascending ids are shard-major.  A node active in several
        queries is returned once: one fetch serves them all.  The scan is
        one flag per *touched* slot — O(touched) bytes, never |V|.

        Each popped pair's residual moves to the pop-time stash ``push``
        reads, and ``residual`` restarts at zero for the mass peers send
        it during this iteration.
        """
        slots = np.flatnonzero(self.queued[: len(self.map)])
        if len(slots) == 0:
            self._pending = None
            return slots
        self.queued[slots] = False
        self.n_iterations += 1
        pairs = self.map.keys()[slots]
        order = pairs.argsort()
        slots = slots[order]
        stash = self.residual[slots]
        self.residual[slots] = 0.0
        if self.n_queries == 1:  # a pair key is its node id
            unique = nodes = pairs[order]
            qids = np.zeros(len(nodes), dtype=np.int64)
        else:
            # sorted pairs give sorted nodes: dedupe with one diff scan
            nodes, qids = np.divmod(pairs[order], self.n_queries)
            first = np.empty(len(nodes), dtype=bool)
            first[0] = True
            np.not_equal(nodes[1:], nodes[:-1], out=first[1:])
            unique = nodes[first]
        self._pending = _Popped(nodes, qids, slots, stash,
                                np.zeros(len(nodes), dtype=bool),
                                len(unique) == len(nodes))
        return unique

    @property
    def n_popped(self) -> int:
        """Pairs the last pop returned (0 once the batch has drained)."""
        return 0 if self._pending is None else len(self._pending.nodes)

    def push(self, infos, ids: np.ndarray) -> None:
        """Push nodes of the last pop, for every query activated on them.

        ``infos`` is one response exposing ``to_arrays()`` (VertexProp,
        RowSelection, NeighborBatch, NeighborLists), or a round's list of
        them, whose rows are gathered once into one set of round buffers
        (:func:`~repro.storage.vertex_prop.gather_rows`); ``ids`` are
        the nodes the rows answer, in row order.  Each popped pair is
        pushed at most once, from its pop-time residual.
        """
        indptr, nbr_ids, weights, nbr_wdeg, src_wdeg = (
            gather_rows(infos) if isinstance(infos, list)
            else infos.to_arrays())
        if len(indptr) - 1 != len(ids):
            raise ValueError(
                f"infos cover {len(indptr) - 1} sources, got "
                f"{len(ids)} popped ids"
            )
        if len(ids) == 0:
            return
        if self._pending is None:
            raise ValueError(_NOT_POPPED)
        nodes, qids = self._pending.nodes, self._pending.qids
        b = self.n_queries
        row_counts = indptr[1:] - indptr[:-1]
        if self._pending.one_each:
            # One pair per node: the response's rows are the entries, in
            # order — the general path's expansion is the identity.
            sel = nodes.searchsorted(ids)
            if (nodes.take(sel, mode="clip") != ids).any():
                raise ValueError(_NOT_POPPED)
            scale = self._take(sel, src_wdeg)
            # with B = 1 a pair key is the node id itself
            keys = nbr_ids if b == 1 else \
                nbr_ids * b + np.repeat(qids[sel], row_counts)
            self._spread(keys, weights * np.repeat(scale, row_counts),
                         nbr_wdeg)
            return
        sel, pair_counts = self._select(ids)
        row_of = np.repeat(np.arange(len(ids)), pair_counts)
        scale = self._take(sel, src_wdeg[row_of])
        # Expand each pair over its node's adjacency row.
        pair_row_counts = row_counts[row_of]
        entry_offsets = np.zeros(len(sel) + 1, dtype=np.int64)
        np.cumsum(pair_row_counts, out=entry_offsets[1:])
        entry_idx = (np.repeat(indptr[:-1][row_of] - entry_offsets[:-1],
                               pair_row_counts)
                     + np.arange(entry_offsets[-1]))
        self._spread(nbr_ids[entry_idx] * b
                     + np.repeat(qids[sel], pair_row_counts),
                     weights[entry_idx] * np.repeat(scale, pair_row_counts),
                     nbr_wdeg, entry_idx)

    def abandon(self, ids: np.ndarray) -> None:
        """Write off popped sources whose neighbor fetch failed for good.

        The ``skip_remote`` degradation mode calls this instead of ``push``
        when a shard's batch could not be fetched within the retry budget:
        every active pair's pop-time residual is dropped and charged to its
        query's ``abandoned_mass``, bounding that query's accuracy loss —
        the same quantity the forward-push L1 error bound is built on.
        Each query that lost a pair counts one skipped fetch.
        """
        if len(ids) == 0:
            return
        sel, _ = self._select(ids)
        self._claim(sel)
        lost = self._pending.residual[sel]
        owners = self._pending.qids[sel]
        for q in np.unique(owners).tolist():
            self.abandoned_mass[q] += lost[owners == q].sum()
            self.skipped_fetches[q] += 1

    # -- internals ----------------------------------------------------------
    def _select(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``ids``' pairs in the last pop, grouped by id, and
        the pair count of each id."""
        if self._pending is None:
            raise ValueError(_NOT_POPPED)
        nodes = self._pending.nodes
        starts = nodes.searchsorted(ids, side="left")
        counts = nodes.searchsorted(ids, side="right") - starts
        if not counts.all():
            raise ValueError(_NOT_POPPED)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        sel = (np.repeat(starts - offsets[:-1], counts)
               + np.arange(offsets[-1]))
        return sel, counts

    def _claim(self, sel: np.ndarray) -> None:
        """Mark the last pop's pairs ``sel`` spent; each spends once."""
        claimed = self._pending.claimed
        before = np.count_nonzero(claimed)
        claimed[sel] = True
        if np.count_nonzero(claimed) - before != len(sel):
            raise ValueError(_TWICE)

    def _take(self, sel: np.ndarray, src_wdeg: np.ndarray) -> np.ndarray:
        """Push the last pop's pairs ``sel``: bank ``alpha * r`` of their
        pop-time residual ``r``.

        Returns the per-source ``scale`` their out-edge weights spread by.
        """
        self._claim(sel)
        gained, scale = split_residual(self._pending.residual[sel],
                                       src_wdeg, self.params.alpha)
        self.ppr[self._pending.slots[sel]] += gained
        self.n_pushes += len(sel)
        return scale

    def _spread(self, keys: np.ndarray, contrib: np.ndarray,
                nbr_wdeg: np.ndarray, pos: np.ndarray | None = None) -> None:
        """Add ``contrib[i]`` to the residual of ``keys[i]``; activate.

        The weighted degree of ``keys[i]`` is ``nbr_wdeg[i]``, or
        ``nbr_wdeg[pos[i]]`` when entries are an expansion of the
        response's columns.
        """
        self.n_entries_processed += len(contrib)
        if len(contrib) == 0:
            return
        # Resolve target slots in one vectorized pass (duplicates fine).
        before = len(self.map)
        slots, fresh = self.map.get_or_insert(keys)
        touched = len(self.map)
        if touched > before:
            self._fit_values()
            # The newcomers took slots before..touched-1, in fresh's order.
            self.wdeg[before:touched] = nbr_wdeg[fresh if pos is None
                                                 else pos[fresh]]
        # Scatter-add over the *dense slot domain*: O(touched), never O(|V|).
        # This aggregation confined to touched nodes is the engine's win.
        acc = np.bincount(slots, weights=contrib, minlength=touched)
        self.residual[:touched] += acc
        # Only slots that received mass can have crossed their threshold.
        hit = np.flatnonzero(acc != 0.0)
        above = self.residual[hit] > self.params.epsilon * self.wdeg[hit]
        self.queued[hit[above]] = True

    # -- results ------------------------------------------------------------
    def query(self, qid: int) -> "QueryView":
        """The result surface of query ``qid``."""
        return QueryView(self, qid)

    def total_mass(self) -> float:
        """``sum(ppr) + sum(residual)`` over the batch — ``B`` minus the
        abandoned mass.  Popped residual not yet pushed counts as residual."""
        n = len(self.map)
        return float(self.ppr[:n].sum() + self.residual[:n].sum()
                     + self._unspent().sum())

    def _unspent(self) -> np.ndarray:
        """Pop-time residual of the last pop's pairs not yet pushed or
        abandoned, one entry per pair (empty between iterations)."""
        if self._pending is None:
            return np.zeros(0)
        return np.where(self._pending.claimed, 0.0, self._pending.residual)

    def stats(self) -> dict[str, int]:
        """Operator statistics, named for the ``ppr.*`` metrics namespace.

        Pure counts of operator work (runtime-independent); a run sums them
        over its distinct states, so a shared batch counts once.
        """
        return {
            "ppr.pushes": self.n_pushes,
            "ppr.entries": self.n_entries_processed,
            "ppr.iterations": self.n_iterations,
            "ppr.touched": len(self.map),
            "ppr.skipped_fetches": int(self.skipped_fetches.sum()),
        }


class QueryView:
    """One query of a :class:`MultiSSPPR`: its per-query result surface.

    What ``QueryRunResult.states`` and ``QueryHandle.result()`` hold for
    every hashmap run, engine or batched; ``multi`` is the push state the
    query shares with the rest of its batch.
    """

    __slots__ = ("multi", "qid")

    def __init__(self, multi: MultiSSPPR, qid: int) -> None:
        if not 0 <= qid < multi.n_queries:
            raise ValueError(
                f"qid {qid} out of range [0, {multi.n_queries})")
        self.multi = multi
        self.qid = qid

    def _mine(self) -> np.ndarray:
        """Mask over the touched slots: this query's ones."""
        return self.multi.map.keys() % self.multi.n_queries == self.qid

    def _column(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(node ids, values)`` over this query's touched slots."""
        mine = self._mine()
        return (self.multi.map.keys()[mine] // self.multi.n_queries,
                values[: len(mine)][mine])

    def results(self) -> tuple[np.ndarray, np.ndarray]:
        """``(node ids, ppr)`` for every node with positive PPR mass."""
        ids, ppr = self._column(self.multi.ppr)
        pos = ppr > 0.0
        return ids[pos], ppr[pos]

    def results_global(self, sharded) -> tuple[np.ndarray, np.ndarray]:
        """``(caller ids, ppr)`` via a ShardedGraph's address book."""
        ids, values = self.results()
        return sharded.globals_of(ids), values

    def dense_result(self, sharded, n_nodes: int) -> np.ndarray:
        """PPR scores scattered into a dense |V| vector (caller ids)."""
        return _dense(*self.results(), sharded, n_nodes)

    def dense_residual(self, sharded, n_nodes: int) -> np.ndarray:
        """The residual as a dense |V| vector (caller ids).

        The other half of the forward-push invariant; the streaming layer
        seeds incremental maintenance (:mod:`repro.ppr.incremental`) from
        the exact ``(p, r)`` pair.
        """
        return _dense(*self._column(self.multi.residual), sharded, n_nodes)

    def total_mass(self) -> float:
        """``sum(ppr) + sum(residual)`` — one minus ``abandoned_mass``."""
        mine = self._mine()
        n = len(mine)
        pending = self.multi._pending
        unspent = 0.0 if pending is None else \
            self.multi._unspent()[pending.qids == self.qid].sum()
        return float(self.multi.ppr[:n][mine].sum()
                     + self.multi.residual[:n][mine].sum() + unspent)

    @property
    def n_touched(self) -> int:
        """Number of distinct nodes that ever received this query's mass."""
        return int(np.count_nonzero(self._mine()))

    @property
    def n_iterations(self) -> int:
        """Lockstep iterations of the batch (this query's, when B = 1)."""
        return self.multi.n_iterations

    @property
    def abandoned_mass(self) -> float:
        return float(self.multi.abandoned_mass[self.qid])

    @property
    def skipped_fetches(self) -> int:
        return int(self.multi.skipped_fetches[self.qid])


def _dense(ids: np.ndarray, values: np.ndarray, sharded,
           n_nodes: int) -> np.ndarray:
    out = np.zeros(n_nodes)
    out[sharded.globals_of(ids)] = values
    return out
