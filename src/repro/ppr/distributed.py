"""Distributed SSPPR drivers — the iteration loops of Figure 4.

The drivers are generator coroutines runnable on either runtime (the
virtual-time scheduler for benchmarks, real threads for concurrency tests).
Each is a ``while pop:`` header around one
:func:`~repro.storage.dist_storage.fetch_round`, which yields
:class:`~repro.simt.events.Wait` effects on remote futures; ``proc.compute``
charges every pop and push over its counts — the Figure 6 / Table 3
breakdowns.

:func:`distributed_sppr_query` is the PPR Engine (hashmap ops) — one
query, or a batch of them sharing every fetch — with the cumulative
optimization levels of Table 3:

* ``SINGLE``   — one activated vertex per RPC, uncompressed;
* ``BATCH``    — per-shard batched RPCs, list-of-lists responses;
* ``COMPRESS`` — batched + CSR-compressed responses + zero-copy local path;
* ``OVERLAP``  — compress + remote calls issued before the local fetch.

It runs the schedule of
:func:`~repro.ppr.forward_push_parallel.forward_push_parallel`: ``pop``
takes the frontier's residuals, and every level pushes each popped node
once from them, so all four levels make the same pushes in the same
iterations.  The batched levels push an iteration's answered responses
as one ``push`` (one fused gather–scale–scatter over the frontier); the
single level pushes vertex by vertex as each response arrives.

:func:`distributed_tensor_query` is the "PyTorch Tensor" baseline: the same
storage and batched/compressed RPCs, but dense |V|-length state with
full-vector activation scans.
"""

from __future__ import annotations

import enum
from functools import partial

import numpy as np

from repro.ppr.multi_query import MultiSSPPR
from repro.ppr.params import PPRParams
from repro.ppr.ppr_ops import SSPPR
from repro.ppr.tensor_ops import DenseSSPPR
from repro.simt.compute import COMPUTE
from repro.simt.events import Wait
from repro.storage.dist_storage import DistGraphStorage, await_fetch, \
    fetch_round


class DegradationMode(enum.Enum):
    """What a query does when a remote fetch exhausts its retries.

    * ``FAIL_FAST``   — re-raise; the whole batch run fails loudly.
    * ``SKIP_REMOTE`` — write off the unreachable sources' residual mass
      (:meth:`~repro.ppr.multi_query.MultiSSPPR.abandon`, per query) and
      keep going, in engine and batched runs alike, mirroring
      the halo-cache fallback's serve-what-you-have philosophy.  The query
      completes with bounded accuracy loss, accounted in
      ``abandoned_mass`` / ``skipped_fetches`` on the state and surfaced as
      ``degraded_queries`` on the run result.
    """

    FAIL_FAST = "fail_fast"
    SKIP_REMOTE = "skip_remote"


class OptLevel(enum.Enum):
    """Cumulative RPC optimization levels (Table 3 rows).

    ``OVERLAP`` issues the remote calls before the local fetch, so the
    local fetch hides under the remote flights; the iteration's one push
    still waits for the last response.
    """

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


def distributed_sppr_query(g: DistGraphStorage, proc, sources,
                           params: PPRParams, *,
                           opt: OptLevel = OptLevel.OVERLAP,
                           degradation: DegradationMode = DegradationMode.FAIL_FAST):
    """Coroutine computing SSPPR on the PPR Engine: one query or a batch.

    ``sources`` is one node id — an :class:`~repro.ppr.ppr_ops.SSPPR`
    query — or an array of them, advanced in lockstep as one
    :class:`~repro.ppr.multi_query.MultiSSPPR`: each iteration fetches the
    union of the batch's activated vertices, one RPC per destination shard
    for the whole batch (the paper's batching, extended across queries).
    Every source must be a core node of the caller's shard (the
    owner-compute rule dispatches each query to the machine hosting its
    source).  Returns the finished state.

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
    ids = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    src_wdegs = yield Wait(g.source_weighted_degrees(g.shard_id, ids))
    n_nodes = int(g.base[-1])  # every node id is in [0, n_nodes)
    if np.ndim(sources) == 0:
        m = SSPPR(int(ids[0]), params, src_wdegs[0], n_nodes)
    else:
        m = MultiSSPPR(ids, params, src_wdegs, n_nodes)

    def push(infos, ids):
        entries, touched = m.n_entries_processed, len(m.map)
        m.push(infos, ids)
        proc.compute("push", COMPUTE.push(m.n_entries_processed - entries,
                                          len(m.map) - touched))

    batched, overlap = opt.batched, opt.overlapped
    lost = m.abandon if skip else None
    while True:
        node_ids = m.pop()
        proc.compute("pop", COMPUTE.pop(m.n_popped))
        if len(node_ids) == 0:
            break

        if not batched:
            # Single mode: sequential per-vertex fetch + push.  Every push
            # reads its pop-time residual, so the visit order changes no
            # count: visit pop's order.
            owners = g.owner_of(node_ids).tolist()
            proc.compute("pop", COMPUTE.route(len(node_ids)))
            for i, (j, v) in enumerate(zip(owners, node_ids.tolist())):
                one = node_ids[i:i + 1]
                infos = yield from await_fetch(
                    proc, j, g.get_neighbor_infos_single(j, v), skip)
                if infos is None:  # skip_remote: write this vertex off
                    m.abandon(one)
                    continue
                push(infos, one)
            continue

        # Batched modes: collect the round's answered responses in
        # fetch_round's apply order, then push the frontier once; the push
        # gathers every response's rows straight into its round buffers.
        answered, parts = [], []

        def collect(infos, part):
            answered.append(infos)
            parts.append(part)

        yield from fetch_round(g, proc, node_ids, collect, cost=None,
                               overlap=overlap, lost=lost)
        if answered:
            push(answered, parts[0] if len(parts) == 1
                 else np.concatenate(parts))
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
        node_ids = m.pop()
        proc.compute("pop", COMPUTE.scan(m.n_nodes))
        if len(node_ids) == 0:
            break
        # Figure 6 configuration: no overlap — wait before local work.
        yield from fetch_round(g, proc, node_ids, m.push, overlap=False,
                               cost=partial(COMPUTE.dense_push, m.n_nodes))
    return m
