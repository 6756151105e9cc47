"""Distributed SSPPR drivers — the iteration loops of Figure 4.

The drivers are generator coroutines runnable on either runtime (the
virtual-time scheduler for benchmarks, real threads for concurrency tests).
Each is a ``while pop:`` header around one
:func:`~repro.storage.dist_storage.fetch_round`, which yields
:class:`~repro.simt.events.Wait` effects on remote futures and wraps real
compute in ``proc.measured(category)`` blocks — where the Figure 6 /
Table 3 breakdowns come from.

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

from repro.ppr.multi_query import MultiSSPPR
from repro.ppr.params import PPRParams
from repro.ppr.ppr_ops import SSPPR
from repro.ppr.tensor_ops import DenseSSPPR
from repro.simt.events import Wait
from repro.storage.dist_storage import DistGraphStorage, await_fetch, \
    fetch_round


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
    wfut = g.source_weighted_degrees(g.shard_id,
                                     np.array([source], dtype=np.int64))
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
            for i, (j, v) in enumerate(zip(shard_list, node_list)):
                one = node_ids[i:i + 1]
                infos = yield from await_fetch(
                    proc, j, g.get_neighbor_infos_single(j, v), skip)
                if infos is None:  # skip_remote: write this vertex off
                    m.abandon(one)
                    continue
                with proc.measured("push"):
                    m.push(infos, one)
            continue

        yield from fetch_round(g, proc, node_ids, m.push,
                               overlap=opt.overlapped,
                               lost=m.abandon if skip else None)
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
    if not g.compress:
        raise ValueError("multi-query batching requires compressed storage")
    sources = np.asarray(sources, dtype=np.int64)
    wfut = g.source_weighted_degrees(g.shard_id, sources)
    src_wdegs = yield Wait(wfut)
    m = MultiSSPPR(sources, params, src_wdegs)

    while True:
        with proc.measured("pop"):
            node_ids = m.pop()
        if len(node_ids) == 0:
            break
        yield from fetch_round(g, proc, node_ids, m.push)
    return m


def distributed_tensor_query(g: DistGraphStorage, proc, source: int,
                             params: PPRParams, to_node: np.ndarray):
    """Coroutine computing one SSPPR query with the dense tensor baseline.

    Uses the same distributed storage (batched + compressed RPCs — the
    baseline's best configuration) but dense |V| state; every iteration pays
    the full activation scan in ``pop``.
    """
    wfut = g.source_weighted_degrees(g.shard_id,
                                     np.array([source], dtype=np.int64))
    src_wdeg = (yield Wait(wfut))[0]
    m = DenseSSPPR(source, params, to_node)
    m.seed_source_degree(float(src_wdeg))

    while True:
        with proc.measured("pop"):
            node_ids = m.pop()
        if len(node_ids) == 0:
            break
        # Figure 6 configuration: no overlap — wait before local work.
        yield from fetch_round(g, proc, node_ids, m.push, overlap=False)
    return m
