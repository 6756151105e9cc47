"""Distributed SSPPR drivers — the iteration loops of Figure 4.

Both drivers are generator coroutines runnable on either runtime (the
virtual-time scheduler for benchmarks, real threads for concurrency tests).
They yield :class:`~repro.simt.events.Wait` effects on remote futures and
wrap real compute in ``proc.measured(category)`` blocks, which is where the
Figure 6 / Table 3 breakdowns come from.

:func:`distributed_sppr_query` is the PPR Engine (hashmap ops) with the
cumulative optimization levels of Table 3:

* ``SINGLE``   — one activated vertex per RPC, uncompressed;
* ``BATCH``    — per-shard batched RPCs, list-of-lists responses;
* ``COMPRESS`` — batched + CSR-compressed responses + zero-copy local path;
* ``OVERLAP``  — compress + remote calls issued before local work.

:func:`distributed_tensor_query` is the "PyTorch Tensor" baseline: the same
storage and batched/compressed RPCs, but dense |V|-length state with
full-vector activation scans.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import RpcTimeoutError, WorkerCrashedError
from repro.ppr.params import PPRParams
from repro.ppr.ppr_ops import SSPPR
from repro.ppr.tensor_ops import DenseSSPPR
from repro.simt.events import Wait
from repro.storage.dist_storage import DistGraphStorage

#: transport-level failures the degradation modes may absorb.  Handler
#: errors (ShardError etc.) always propagate: they are bugs, not faults.
TRANSPORT_ERRORS = (RpcTimeoutError, WorkerCrashedError)


class DegradationMode(enum.Enum):
    """What a query does when a remote fetch exhausts its retries.

    * ``FAIL_FAST``   — re-raise; the whole batch run fails loudly.
    * ``SKIP_REMOTE`` — write off the unreachable sources' residual mass
      (:meth:`~repro.ppr.ppr_ops.SSPPR.abandon`) and keep going, mirroring
      the halo-cache fallback's serve-what-you-have philosophy.  The query
      completes with bounded accuracy loss, accounted in
      ``abandoned_mass`` / ``skipped_fetches`` on the state and surfaced as
      ``degraded_queries`` on the run result.
    """

    FAIL_FAST = "fail_fast"
    SKIP_REMOTE = "skip_remote"


class OptLevel(enum.Enum):
    """Cumulative RPC optimization levels (Table 3 rows)."""

    SINGLE = "single"
    BATCH = "batch"
    COMPRESS = "compress"
    OVERLAP = "overlap"

    @property
    def batched(self) -> bool:
        return self is not OptLevel.SINGLE

    @property
    def compressed(self) -> bool:
        return self in (OptLevel.COMPRESS, OptLevel.OVERLAP)

    @property
    def overlapped(self) -> bool:
        return self is OptLevel.OVERLAP


def distributed_sppr_query(g: DistGraphStorage, proc, source: int,
                           params: PPRParams, *,
                           opt: OptLevel = OptLevel.OVERLAP,
                           degradation: DegradationMode = DegradationMode.FAIL_FAST):
    """Coroutine computing one SSPPR query on the PPR Engine.

    The query's source (a node id) must be a core node of the caller's
    shard (the owner-compute rule dispatches each query to the machine
    hosting its source).  Returns the finished
    :class:`~repro.ppr.ppr_ops.SSPPR` state.

    ``degradation`` selects the response to a remote fetch that fails at
    the transport level (retry budget exhausted against a lossy network or
    crashed server): fail fast, or skip the unreachable batch with bounded,
    accounted accuracy loss.
    """
    if g.compress != opt.compressed:
        raise ValueError(
            f"storage compress={g.compress} inconsistent with opt={opt}"
        )
    skip = degradation is DegradationMode.SKIP_REMOTE
    shard = g.shard_id
    wfut = g.source_weighted_degrees(
        shard, np.array([source], dtype=np.int64)
    )
    src_wdeg = (yield Wait(wfut))[0]
    m = SSPPR(source, params, float(src_wdeg))

    while True:
        with proc.measured("pop"):
            node_ids = m.pop()
        if len(node_ids) == 0:
            break

        if not opt.batched:
            # Single mode: sequential per-vertex fetch + push.  push reads
            # residuals at push time, so the visit order is observable
            # (push counts, Table 3's RPC column): keep the paper's
            # <local ID, shard ID> order — ascending row index, then shard —
            # rather than pop's shard-major one.
            with proc.measured("pop"):
                owners = g.owner_of(node_ids)
                order = np.lexsort((owners, node_ids - g.base[owners]))
                node_ids = node_ids[order]
                # Convert once per frontier, not one int() per vertex.
                node_list = node_ids.tolist()
                shard_list = owners[order].tolist()
            for i in range(len(node_list)):
                fut = g.get_neighbor_infos_single(shard_list[i], node_list[i])
                try:
                    with proc.span("fetch", shard=shard_list[i]):
                        infos = yield Wait(fut)
                except TRANSPORT_ERRORS:
                    if not skip:
                        raise
                    m.abandon(node_ids[i:i + 1])
                    continue
                with proc.measured("push"):
                    m.push(infos, node_ids[i:i + 1])
            continue

        with proc.measured("pop"):
            masks = g.shard_masks(node_ids)

        # Issue remote batches first (they are asynchronous either way; the
        # overlap flag decides whether we wait before or after local work).
        # shard_masks entries are non-empty index arrays by construction.
        futs = {}
        for j, mask in masks.items():
            if j != shard:
                futs[j] = g.get_neighbor_infos(j, node_ids[mask])

        remote_infos = {}
        if not opt.overlapped:
            for j, fut in futs.items():
                try:
                    with proc.span("fetch", shard=j):
                        remote_infos[j] = yield Wait(fut)
                except TRANSPORT_ERRORS:
                    if not skip:
                        raise
                    remote_infos[j] = None

        local_mask = masks.get(shard)
        if local_mask is not None:
            lfut = g.get_neighbor_infos(shard, node_ids[local_mask])
            infos = yield Wait(lfut)  # local calls resolve synchronously
            with proc.measured("push"):
                m.push(infos, node_ids[local_mask])

        for j in futs:
            jm = masks[j]
            if opt.overlapped:
                try:
                    with proc.span("fetch", shard=j):
                        infos = yield Wait(futs[j])
                except TRANSPORT_ERRORS:
                    if not skip:
                        raise
                    infos = None
            else:
                infos = remote_infos[j]
            if infos is None:  # skip_remote: write off this shard's batch
                m.abandon(node_ids[jm])
                continue
            with proc.measured("push"):
                m.push(infos, node_ids[jm])
    return m


def distributed_multi_query(g: DistGraphStorage, proc,
                            sources: np.ndarray, params: PPRParams):
    """Coroutine: a batch of SSPPR queries advanced in lockstep.

    Extension of the paper's batching to the inter-query level: each
    iteration fetches the union of all queries' activated vertices — one
    RPC per destination shard for the whole batch.  Requires compressed
    storage (the batched responses are CSR).  Returns the finished
    :class:`~repro.ppr.multi_query.MultiSSPPR`.
    """
    from repro.ppr.multi_query import MultiSSPPR

    if not g.compress:
        raise ValueError("multi-query batching requires compressed storage")
    shard = g.shard_id
    sources = np.asarray(sources, dtype=np.int64)
    wfut = g.source_weighted_degrees(shard, sources)
    src_wdegs = yield Wait(wfut)
    m = MultiSSPPR(sources, params, src_wdegs)

    while True:
        with proc.measured("pop"):
            node_ids = m.pop()
        if len(node_ids) == 0:
            break
        with proc.measured("pop"):
            masks = g.shard_masks(node_ids)
        futs = {}
        for j, mask in masks.items():
            if j != shard:
                futs[j] = g.get_neighbor_infos(j, node_ids[mask])
        local_mask = masks.get(shard)
        if local_mask is not None:
            infos = yield Wait(g.get_neighbor_infos(shard,
                                                    node_ids[local_mask]))
            with proc.measured("push"):
                m.push(infos, node_ids[local_mask])
        for j in futs:
            infos = yield Wait(futs[j])
            with proc.measured("push"):
                m.push(infos, node_ids[masks[j]])
    return m


def distributed_tensor_query(g: DistGraphStorage, proc, source: int,
                             params: PPRParams, to_node: np.ndarray):
    """Coroutine computing one SSPPR query with the dense tensor baseline.

    Uses the same distributed storage (batched + compressed RPCs — the
    baseline's best configuration) but dense |V| state; every iteration pays
    the full activation scan in ``pop``.
    """
    shard = g.shard_id
    wfut = g.source_weighted_degrees(
        shard, np.array([source], dtype=np.int64)
    )
    src_wdeg = (yield Wait(wfut))[0]
    m = DenseSSPPR(source, params, to_node)
    m.seed_source_degree(float(src_wdeg))

    while True:
        with proc.measured("pop"):
            node_ids = m.pop()
        if len(node_ids) == 0:
            break
        with proc.measured("pop"):
            masks = g.shard_masks(node_ids)

        futs = {}
        for j, mask in masks.items():
            if j != shard:
                futs[j] = g.get_neighbor_infos(j, node_ids[mask])
        # Figure 6 configuration: no overlap — wait before local work.
        remote_infos = {}
        for j, fut in futs.items():
            remote_infos[j] = yield Wait(fut)

        local_mask = masks.get(shard)
        if local_mask is not None:
            lfut = g.get_neighbor_infos(shard, node_ids[local_mask])
            infos = yield Wait(lfut)
            with proc.measured("push"):
                m.push(infos, node_ids[local_mask])
        for j, infos in remote_infos.items():
            with proc.measured("push"):
                m.push(infos, node_ids[masks[j]])
    return m
