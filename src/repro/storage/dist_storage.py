"""Per-process facade over local + remote graph shards (Figure 4's ``g``).

A :class:`DistGraphStorage` is constructed per computing process from the
list of storage RRefs (one per shard) and the process's own shard ID.  Its
methods mirror the paper's interface:

* ``get_neighbor_infos(dest_shard, ids)`` — asynchronous batched
  fetch.  Same-machine requests take the zero-copy :class:`VertexProp`
  path; cross-machine requests return a CSR-compressed
  :class:`NeighborBatch` (or the uncompressed list-of-lists when the
  *Compress* optimization is disabled, for the Table 3 ablation).
* ``get_neighbor_infos_single(dest_shard, node_id)`` — one node per RPC,
  the unbatched ablation baseline.
* ``sample_one_neighbor(dest_shard, ids)`` — random-walk step.

Nodes are addressed by node id throughout; ``dest_shard`` is the routing
decision the caller already made with :func:`shard_masks` (one
``searchsorted`` over the address book ``base``).

All methods return a future (already resolved for local calls), so driver
code is identical with and without overlap — and is written once:
:func:`fetch_round` is Figure 4's loop body (route, one batched fetch per
shard, push what comes back), called by every frontier driver.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TRANSPORT_ERRORS
from repro.rpc.rref import RRef, check_rrefs
from repro.simt.events import Wait


def shard_masks(base: np.ndarray, ids: np.ndarray) -> dict[int, np.ndarray]:
    """Index array per destination shard (Figure 4's ``mask_dict``).

    ``base`` is the address book (shard ``j`` owns ``[base[j], base[j+1])``).
    Each entry holds the ascending positions in ``ids`` of the nodes that
    shard owns — equivalent to ``np.flatnonzero(owner == j)`` for every
    present shard, but built in one ``np.argsort`` pass instead of one
    comparison scan per shard.  Only shards actually present get an entry,
    in ascending shard order — at high machine counts a frontier usually
    touches a few shards, and building all K masks per iteration is
    O(K·frontier) waste.  Callers must treat absent shards as empty
    (``masks.get(j)``).
    """
    if len(ids) == 0:
        return {}
    owner = np.searchsorted(base, ids, side="right") - 1
    order = np.argsort(owner, kind="stable")
    boundaries = np.flatnonzero(np.diff(owner[order])) + 1
    return {int(owner[g[0]]): g for g in np.split(order, boundaries)}


def await_fetch(proc, shard: int, fut, absorb: bool):
    """Coroutine: one response inside a ``fetch`` span.

    A transport-level failure (retry budget exhausted) re-raises, or
    returns ``None`` when ``absorb`` is set; handler errors always
    propagate.
    """
    try:
        with proc.span("fetch", shard=shard):
            return (yield Wait(fut))
    except TRANSPORT_ERRORS:
        if not absorb:
            raise
        return None


def fetch_round(g, proc, ids: np.ndarray, apply, *, overlap: bool = True,
                lost=None):
    """Coroutine: one round of Figure 4 — route, fetch per shard, apply.

    Routes ``ids`` with ``g.shard_masks`` (charged as ``pop``), issues one
    ``get_neighbor_infos`` per remote shard in ascending shard order, then
    the local one, and calls ``apply(infos, ids_of_that_shard)`` (charged
    as ``push``) for the local response first and the remote ones in issue
    order.  With ``overlap`` the remote responses are awaited one by one
    after the local work (Table 3's ``+Overlap``); without it they are all
    awaited before it.  Every remote wait is a ``fetch`` span.

    A remote wait that fails at the transport level (retry budget
    exhausted) re-raises, unless ``lost`` is given: then the round goes on
    and ``lost(ids_of_that_shard)`` stands in for that shard's ``apply``.
    Handler errors always propagate.
    """
    with proc.measured("pop"):
        masks = g.shard_masks(ids)
    local = masks.pop(g.shard_id, None)
    remote = []
    for j, mask in masks.items():
        part = ids[mask]
        remote.append((j, part, g.get_neighbor_infos(j, part)))
    absorb = lost is not None
    early = []
    if not overlap:
        for j, _part, fut in remote:
            early.append((yield from await_fetch(proc, j, fut, absorb)))
    if local is not None:
        part = ids[local]
        # local calls resolve synchronously
        infos = yield Wait(g.get_neighbor_infos(g.shard_id, part))
        with proc.measured("push"):
            apply(infos, part)
    for k, (j, part, fut) in enumerate(remote):
        if overlap:
            infos = yield from await_fetch(proc, j, fut, absorb)
        else:
            infos = early[k]
        if infos is None:  # absorbed loss: write off this shard's batch
            lost(part)
            continue
        with proc.measured("push"):
            apply(infos, part)


class DistGraphStorage:
    """Figure 4's distributed graph storage handle."""

    def __init__(self, rrefs: list[RRef], shard_id: int, caller: str, *,
                 compress: bool = True) -> None:
        check_rrefs(rrefs, len(rrefs))
        if not 0 <= shard_id < len(rrefs):
            raise ValueError(
                f"shard_id {shard_id} out of range [0, {len(rrefs)})"
            )
        self.rrefs = rrefs
        self.shard_id = int(shard_id)
        self.caller = caller
        self.compress = compress
        #: the address book, as held by this machine's own shard
        self.base = rrefs[self.shard_id].local_value().base

    @property
    def n_shards(self) -> int:
        return len(self.rrefs)

    def is_local(self, dest_shard: int) -> bool:
        """Whether ``dest_shard``'s storage lives on the caller's machine."""
        return self.rrefs[dest_shard].is_owner(self.caller)

    def owner_of(self, ids: np.ndarray) -> np.ndarray:
        """Owner shard of each node id."""
        return np.searchsorted(self.base, ids, side="right") - 1

    def get_neighbor_infos(self, dest_shard: int, ids: np.ndarray):
        """Batched neighbor fetch; returns a future of a batch response.

        With ``compress`` on, same-machine requests take the zero-copy
        ``VertexProp`` path and remote ones return a CSR
        :class:`~repro.storage.neighbor_batch.NeighborBatch`.  With it off
        (Table 3 ablation), *both* paths return the slow per-node-wrapped
        list-of-lists — the paper introduces the shared-pointer local path
        as part of the compression optimization ("tensor wrapping dominates
        the local fetch time").
        """
        rref = self.rrefs[dest_shard]
        if self.compress:
            if self.is_local(dest_shard):
                return rref.rpc_async(self.caller, "get_vertex_props", ids)
            # 2-hop halo cache: if the local shard caches every requested
            # node's row, answer from shared memory instead of the network.
            local_rref = self.rrefs[self.shard_id]
            local_shard = local_rref.local_value()
            if (local_shard.has_halo_cache
                    and local_shard.cache_mask(ids).all()):
                return local_rref.rpc_async(
                    self.caller, "get_cached_batch", ids
                )
            return rref.rpc_async(self.caller, "get_neighbor_batch", ids)
        return rref.rpc_async(self.caller, "get_neighbor_lists", ids)

    def get_neighbor_infos_single(self, dest_shard: int, node_id: int):
        """Single-node fetch (the unbatched, uncompressed ablation baseline)."""
        return self.rrefs[dest_shard].rpc_async(
            self.caller, "get_single", int(node_id)
        )

    def sample_one_neighbor(self, dest_shard: int, ids: np.ndarray,
                            salt: int | None = None):
        """Sample one out-neighbor per node (random-walk step).

        ``salt`` (e.g. the walk step number) makes sampling independent of
        request arrival order — see GraphShard.sample_one_neighbor.
        """
        return self.rrefs[dest_shard].rpc_async(
            self.caller, "sample_one_neighbor", ids, salt
        )

    def source_weighted_degrees(self, dest_shard: int, ids: np.ndarray):
        """Fetch own weighted degrees (used to seed SSPPR queries)."""
        return self.rrefs[dest_shard].rpc_async(
            self.caller, "source_weighted_degrees", ids
        )

    def shard_masks(self, ids: np.ndarray) -> dict[int, np.ndarray]:
        """:func:`shard_masks` over this process's address book."""
        return shard_masks(self.base, ids)
