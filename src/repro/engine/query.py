"""Per-process query drivers and batch scheduling.

The paper's throughput protocol (Section 2.1.2): a batch of SSPPR queries
whose root nodes are spread across machines; each query runs on a computing
process of the machine owning its source (owner-compute rule); throughput is
``n_queries / makespan`` including synchronization.

:func:`assign_queries` reproduces that dispatch; :func:`multi_query_driver`
is the coroutine body of one computing process, looping its assigned queries
through :func:`~repro.ppr.distributed.distributed_sppr_query` (or the tensor
baseline driver).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.ppr.distributed import (
    DegradationMode,
    OptLevel,
    distributed_multi_query,
    distributed_sppr_query,
    distributed_tensor_query,
)
from repro.ppr.params import PPRParams
from repro.storage.build import ShardedGraph
from repro.storage.dist_storage import DistGraphStorage, shard_masks
from repro.utils.rng import rng_from_seed


def sample_sources(sharded: ShardedGraph, n_queries: int, *,
                   seed=0) -> np.ndarray:
    """Root nodes spread evenly across machines (the paper's query sets).

    Draws ``n_queries / K`` core nodes per shard (remainder round-robin),
    preferring nodes with at least one edge.
    """
    if n_queries <= 0:
        raise ValueError(f"n_queries must be > 0, got {n_queries}")
    rng = rng_from_seed(seed)
    k = sharded.n_shards
    per_shard = np.full(k, n_queries // k)
    per_shard[: n_queries % k] += 1
    picks = []
    for p, shard in enumerate(sharded.shards):
        candidates = shard.core_global[np.diff(shard.rows.indptr) > 0]
        if len(candidates) == 0:
            candidates = shard.core_global
        if len(candidates) == 0:
            raise SimulationError(f"shard {p} has no core nodes to query")
        picks.append(rng.choice(candidates, size=per_shard[p],
                                replace=per_shard[p] > len(candidates)))
    return np.concatenate(picks)


def assign_queries(sharded: ShardedGraph, sources: np.ndarray,
                   procs_per_machine: int) -> dict[tuple[int, int], np.ndarray]:
    """Owner-compute dispatch: ``(machine, proc) -> source node ids``.

    ``sources`` are node ids — callers translate (and thereby validate)
    caller ids with :meth:`ShardedGraph.nodes_of` first.
    """
    if procs_per_machine <= 0:
        raise ValueError("procs_per_machine must be > 0")
    assignment: dict[tuple[int, int], np.ndarray] = {}
    for m, mask in shard_masks(sharded.base, sources).items():
        mine = sources[mask]
        for p in range(procs_per_machine):
            chunk = mine[p::procs_per_machine]
            if len(chunk):
                assignment[(m, p)] = chunk
    return assignment


def _owned_globals(g: DistGraphStorage, sharded: ShardedGraph,
                   sources: np.ndarray) -> list[int]:
    """Caller ids of a driver's ``sources``, which its shard must own."""
    if np.any(g.owner_of(sources) != g.shard_id):
        raise SimulationError(
            "owner-compute violation: driver received foreign sources"
        )
    return sharded.globals_of(sources).tolist()


def multi_query_driver(g: DistGraphStorage, proc, sources: np.ndarray,
                       sharded: ShardedGraph, params: PPRParams, *,
                       opt: OptLevel, collect: dict | None = None,
                       latencies: dict | None = None,
                       degradation: DegradationMode = DegradationMode.FAIL_FAST,
                       fault_stats: dict | None = None):
    """Coroutine: run each assigned query to completion, in order.

    ``sources`` are node ids; ``collect`` and ``latencies`` (optional, the
    engine's latency-percentile reporting) are keyed by the sources'
    caller ids.

    ``fault_stats`` (optional, shared across the batch's drivers) aggregates
    ``skip_remote`` degradation: queries that lost at least one remote fetch
    and the total residual mass written off.
    """
    for gid, source in zip(_owned_globals(g, sharded, sources),
                           sources.tolist()):
        started = proc.clock
        with proc.span("query", source=gid):
            state = yield from distributed_sppr_query(
                g, proc, source, params, opt=opt, degradation=degradation
            )
        if latencies is not None:
            latencies[gid] = proc.clock - started
        if fault_stats is not None and state.skipped_fetches > 0:
            fault_stats["degraded_queries"] += 1
            fault_stats["abandoned_mass"] += state.abandoned_mass
        if collect is not None:
            collect[gid] = state
    return len(sources)


def multi_query_batched_driver(g: DistGraphStorage, proc,
                               sources: np.ndarray,
                               sharded: ShardedGraph, params: PPRParams, *,
                               collect: dict | None = None):
    """Coroutine: one process's whole chunk as a lockstep MultiSSPPR.

    On completion, per-query views are extracted and stored into
    ``collect`` as lightweight result adapters compatible with the
    single-query state's ``results_global``/``dense_result`` surface.
    """
    gids = _owned_globals(g, sharded, sources)
    with proc.span("query_batch", n_queries=len(sources)):
        multi = yield from distributed_multi_query(g, proc, sources, params)
    if collect is not None:
        for qid, gid in enumerate(gids):
            collect[gid] = MultiQueryResultView(multi, qid)
    return len(sources)


class MultiQueryResultView:
    """Single-query adapter over a finished MultiSSPPR."""

    __slots__ = ("multi", "qid")

    def __init__(self, multi, qid: int) -> None:
        self.multi = multi
        self.qid = qid

    @property
    def n_touched(self) -> int:
        keys = self.multi.map.keys()
        return int(np.count_nonzero(keys % self.multi.n_queries == self.qid))

    @property
    def n_iterations(self) -> int:
        return self.multi.n_iterations

    def total_mass(self) -> float:
        _ids, values = self.multi.results_for(self.qid)
        # residual part of this query's mass
        keys = self.multi.map.keys()
        mine = keys % self.multi.n_queries == self.qid
        n = len(self.multi.map)
        return float(values.sum() + self.multi.residual[:n][mine].sum())

    def results_global(self, sharded) -> tuple[np.ndarray, np.ndarray]:
        ids, values = self.multi.results_for(self.qid)
        return sharded.globals_of(ids), values

    def dense_result(self, sharded, n_nodes: int) -> np.ndarray:
        return self.multi.dense_result_for(self.qid, sharded, n_nodes)


def multi_query_tensor_driver(g: DistGraphStorage, proc,
                              sources: np.ndarray,
                              sharded: ShardedGraph, params: PPRParams, *,
                              collect: dict | None = None):
    """Coroutine: tensor-baseline counterpart of :func:`multi_query_driver`."""
    for gid, source in zip(_owned_globals(g, sharded, sources),
                           sources.tolist()):
        with proc.span("query", source=gid, mode="tensor"):
            state = yield from distributed_tensor_query(
                g, proc, source, params, sharded.to_node
            )
        if collect is not None:
            collect[gid] = state
    return len(sources)
