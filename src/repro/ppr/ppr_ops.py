"""Local PPR operators (paper Section 3.3): slot-table ``pop`` / ``push``.

:class:`PushState` holds the state of in-flight Forward Push: a
:class:`~repro.ppr.hashmap.ShardedMap` from keys to dense slots (node ids
for one :class:`SSPPR` query, ``(node, query)`` pairs for a fused
:class:`~repro.ppr.multi_query.MultiSSPPR` batch), and dense value arrays
(residual, PPR score, weighted degree, queued flag) indexed by slot.  The
activated set *is* the queued flags of the touched slots, so only ``push``
resolves keys.  Work per iteration is proportional to the *touched
frontier*, never to |V| — the property that separates the PPR Engine from
the tensor baseline.  Slots are numbered by first touch, so ``results()``
enumerates nodes in the order the query reached them.

Semantics follow the parallel Forward Push of Shun et al. [22] as adapted by
the paper: ``pop`` drains the activated set; ``push`` consumes a batch of
sources *with their neighbor information* (local VertexProp or remote
NeighborBatch/NeighborLists), converts ``alpha * r`` into PPR mass, spreads
``(1 - alpha) * r`` over out-neighbors weighted by ``W(v,u)/d_w(v)``, and
re-activates any node whose residual crosses ``epsilon * d_w``.

Dangling nodes (weighted degree 0) absorb their entire residual into their
PPR score — the limit behaviour of a restart-only walk stuck at the node —
keeping total mass conserved: ``sum(ppr) + sum(residual) == 1`` at every
step (a property the test suite checks with hypothesis).
"""

from __future__ import annotations

import numpy as np

from repro.ppr.hashmap import ShardedMap, fit_values
from repro.ppr.params import PPRParams


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


class PushState:
    """The slot table, its four value arrays and the operator counters.

    Subclasses decide what a key is and how a response expands into
    entries; taking a source's residual, the scatter-add and the
    ``r > eps * d_w`` activation rule are written here, once.
    """

    def _seed(self, params: PPRParams, keys: np.ndarray, wdegs) -> None:
        """Fresh state with residual 1 queued on each of ``keys``."""
        self.params = params
        self.map = ShardedMap()
        cap = 1024
        self.residual = np.zeros(cap)
        self.ppr = np.zeros(cap)
        self.wdeg = np.zeros(cap)
        self.queued = np.zeros(cap, dtype=bool)  # the activated set
        # Operator statistics (push-count ablation, workload accounting).
        self.n_pushes = 0
        self.n_entries_processed = 0
        self.n_iterations = 0
        idx, _ = self.map.get_or_insert(keys)
        self._fit_values()
        self.residual[idx] = 1.0
        self.wdeg[idx] = wdegs
        self.queued[idx] = True

    def _fit_values(self) -> None:
        (self.residual, self.ppr, self.wdeg, self.queued) = fit_values(
            self.map, self.residual, self.ppr, self.wdeg, self.queued)

    def _drain(self) -> np.ndarray:
        """Slots of the activated set, ascending; clears it.

        One flag per *touched* slot, so this scans O(touched) bytes (never
        |V|) and needs no dedup however many entries activated a key.
        """
        slots = np.flatnonzero(self.queued[: len(self.map)])
        if len(slots):
            self.queued[slots] = False
            self.n_iterations += 1
        return slots

    def _take(self, idx_v: np.ndarray, src_wdeg: np.ndarray) -> np.ndarray:
        """Push sources at slots ``idx_v``: bank ``alpha * r``, zero ``r``.

        Returns the per-source ``scale`` their out-edge weights spread by.
        """
        r_v = self.residual[idx_v]
        self.residual[idx_v] = 0.0
        gained, scale = split_residual(r_v, src_wdeg, self.params.alpha)
        self.ppr[idx_v] += gained
        self.n_pushes += len(idx_v)
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
        touched = len(self.map)
        slots, new = self.map.get_or_insert(keys)
        if len(self.map) > touched:
            self._fit_values()
            # Record the newcomers' weighted degrees (duplicates write the
            # same global value, so no per-key dedup is needed).
            self.wdeg[slots[new]] = nbr_wdeg[new if pos is None
                                             else pos[new]]
            touched = len(self.map)
        # Scatter-add over the *dense slot domain*: O(touched), never O(|V|).
        # This aggregation confined to touched nodes is the engine's win.
        self.residual[:touched] += np.bincount(slots, weights=contrib,
                                               minlength=touched)

        threshold = self.params.epsilon * self.wdeg[slots]
        above = self.residual[slots] > threshold
        self.queued[slots[above]] = True

    def total_mass(self) -> float:
        """``sum(ppr) + sum(residual)`` — invariantly one per query."""
        n = len(self.map)
        return float(self.ppr[:n].sum() + self.residual[:n].sum())


class SSPPR(PushState):
    """State and operators for one SSPPR query."""

    def __init__(self, source: int, params: PPRParams,
                 source_wdeg: float) -> None:
        if source_wdeg < 0:
            raise ValueError(f"source_wdeg must be >= 0, got {source_wdeg}")
        self._seed(params, np.array([int(source)], dtype=np.int64),
                   float(source_wdeg))
        # Degradation accounting (skip_remote fault handling): residual mass
        # written off because its shard could not be fetched.  Invariantly
        # sum(ppr) + sum(residual) + abandoned_mass == 1.
        self.abandoned_mass = 0.0
        self.skipped_fetches = 0

    # -- operators -----------------------------------------------------------
    def pop(self) -> np.ndarray:
        """Drain the activated set -> node ids, ascending, and clear it.

        The paper: "the pop operator first returns the local ID tensor and
        the shard ID tensor from the current activated vertex set and then
        clears the set" — one id tensor here, because a node id names its
        shard.  Ascending ids are shard-major: each shard's sources form
        one run, in row order.
        """
        return np.sort(self.map.keys()[self._drain()])

    def push(self, infos, ids: np.ndarray) -> None:
        """Apply one batch of pushes given fetched neighbor information.

        ``infos`` is any response exposing ``to_arrays()`` (VertexProp,
        NeighborBatch, NeighborLists); ``ids`` are the popped sources this
        response answers, in request order.
        """
        indptr, nbr_ids, weights, nbr_wdeg, src_wdeg = infos.to_arrays()
        if len(indptr) - 1 != len(ids):
            raise ValueError(
                f"infos cover {len(indptr) - 1} sources, got "
                f"{len(ids)} popped ids"
            )
        if len(ids) == 0:
            return
        idx_v = self.map.lookup(ids)
        if idx_v.min() < 0:
            raise ValueError("push received sources that were never touched")
        scale = self._take(idx_v, src_wdeg)
        # Per-entry contribution: w(v,u) / d_w(v) * (1 - alpha) * r(v).
        counts = indptr[1:] - indptr[:-1]
        self._spread(nbr_ids, weights * np.repeat(scale, counts), nbr_wdeg)

    def abandon(self, ids: np.ndarray) -> float:
        """Write off popped sources whose neighbor fetch failed for good.

        The ``skip_remote`` degradation mode calls this instead of ``push``
        when a shard's batch could not be fetched within the retry budget:
        the sources' residual mass is dropped (they were already dequeued by
        ``pop``), bounding the query's accuracy loss by the returned mass —
        the same quantity the forward-push L1 error bound is built on.
        """
        if len(ids) == 0:
            return 0.0
        idx = self.map.lookup(ids)
        idx = idx[idx >= 0]
        lost = float(self.residual[idx].sum())
        self.residual[idx] = 0.0
        self.abandoned_mass += lost
        self.skipped_fetches += 1
        return lost

    # -- results ------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Operator statistics, named for the ``ppr.*`` metrics namespace.

        The engine sums these across collected query states into its
        :class:`~repro.obs.MetricsRegistry`; they are pure counts of operator
        work, so the totals are runtime-independent.
        """
        return {
            "ppr.pushes": self.n_pushes,
            "ppr.entries": self.n_entries_processed,
            "ppr.iterations": self.n_iterations,
            "ppr.touched": self.n_touched,
            "ppr.skipped_fetches": self.skipped_fetches,
        }

    @property
    def n_touched(self) -> int:
        """Number of distinct nodes that ever received mass."""
        return len(self.map)

    def frontier_size(self) -> int:
        """Nodes currently queued for the next iteration."""
        return int(np.count_nonzero(self.queued[: len(self.map)]))

    def results(self) -> tuple[np.ndarray, np.ndarray]:
        """``(node ids, ppr_values)`` for every node with positive PPR mass."""
        n = len(self.map)
        ppr = self.ppr[:n]
        mask = ppr > 0.0
        return self.map.keys()[mask], ppr[mask]

    def results_global(self, sharded) -> tuple[np.ndarray, np.ndarray]:
        """``(caller ids, ppr_values)`` via a ShardedGraph's address book."""
        ids, values = self.results()
        return sharded.globals_of(ids), values

    def dense_result(self, sharded, n_nodes: int) -> np.ndarray:
        """PPR scores scattered into a dense |V| vector (for comparisons)."""
        out = np.zeros(n_nodes)
        gids, values = self.results_global(sharded)
        out[gids] = values
        return out
