"""Per-process facade over local + remote graph shards (Figure 4's ``g``).

A :class:`DistGraphStorage` is constructed per computing process from the
list of storage RRefs (one per shard) and the process's own shard ID.  Its
methods mirror the paper's interface:

* ``get_neighbor_infos(dest_shard, ids)`` — asynchronous batched
  fetch.  Same-machine requests take the zero-copy :class:`VertexProp`
  path; cross-machine requests return a
  :class:`~repro.storage.vertex_prop.RowSelection` of the serving arena,
  priced as a CSR-compressed :class:`NeighborBatch` and gathered by the
  consumer (or the uncompressed list-of-lists when the *Compress*
  optimization is disabled, for the Table 3 ablation).
* ``get_neighbor_infos_single(dest_shard, node_id)`` — one node per RPC,
  the unbatched ablation baseline.
* ``sample_one_neighbor(dest_shard, ids, salt)`` — random-walk step.

Nodes are addressed by node id throughout; ``dest_shard`` is the routing
decision the caller already made with :func:`shard_masks` (one
``searchsorted`` between the ids and the address book ``base``).  Which
shards are local, and the caller's own shard, are resolved once per
facade.

All methods return a future (already resolved for local calls), so driver
code is identical with and without overlap — and is written once:
:func:`fetch_round` is Figure 4's loop body (route, one batched fetch per
shard, push what comes back), called by every frontier driver.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TRANSPORT_ERRORS, ShardError
from repro.rpc.rref import RRef, check_rrefs
from repro.simt.compute import COMPUTE
from repro.simt.events import Wait


def shard_masks(base: np.ndarray,
                ids: np.ndarray) -> dict[int, slice | np.ndarray]:
    """Index into ``ids`` per destination shard (Figure 4's ``mask_dict``).

    ``base`` is the address book (shard ``j`` owns ``[base[j], base[j+1])``).
    Entry ``j`` selects the ids shard ``j`` owns, in their order in ``ids``
    (``ids[masks[j]]``).  Only shards actually present get an entry, in
    ascending shard order — at high machine counts a frontier usually
    touches a few shards, and building all K masks per iteration is
    O(K·frontier) waste.  Callers must treat absent shards as empty
    (``masks.get(j)``).

    Ascending ``ids`` (every PPR and WCC pop) are shard-major, so each
    shard's ids are one run: one ``searchsorted`` of the address book into
    ``ids`` finds the runs, and each entry is a ``slice`` (``ids[mask]`` is
    a view).  Any other order is routed by one stable ``argsort`` of the
    owners, and each entry is the ascending index array
    ``np.flatnonzero(owner == j)``.  A caller that needs positions rather
    than ids takes ``np.arange(len(ids))[mask]``.
    """
    if len(ids) == 0:
        return {}
    if (ids[1:] >= ids[:-1]).all():
        # runs before base[0] and from base[-1] on belong to the out-of-range
        # owners -1 and K, as on the argsort path
        cuts = [0, *np.searchsorted(ids, base).tolist(), len(ids)]
        return {j - 1: slice(lo, hi)
                for j, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if lo < hi}
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


def fetch_round(g, proc, ids: np.ndarray, apply, *, cost,
                overlap: bool = True, lost=None):
    """Coroutine: one round of Figure 4 — route, fetch per shard, apply.

    Routes ``ids`` with ``g.shard_masks`` (charged as ``pop`` over the
    ids), issues one ``get_neighbor_infos`` per remote shard in ascending
    shard order, then the local one, and calls ``apply(infos,
    ids_of_that_shard)`` (charged as ``push``: ``cost(rows, entries)``, a
    :class:`~repro.simt.compute.Cost`; None when ``apply`` only collects)
    for the local response first and the remote ones in issue order.  With
    ``overlap`` the remote responses are awaited one by one after the local
    work (Table 3's ``+Overlap``); without it they are all awaited before
    it.  Every remote wait is a ``fetch`` span.

    A remote wait that fails at the transport level (retry budget
    exhausted) re-raises, unless ``lost`` is given: then the round goes on
    and ``lost(ids_of_that_shard)`` stands in for that shard's ``apply``.
    Handler errors always propagate.
    """
    masks = g.shard_masks(ids)
    proc.compute("pop", COMPUTE.route(len(ids)))
    local = masks.pop(g.shard_id, None)
    remote = []
    for j, mask in masks.items():
        part = ids[mask]
        remote.append((j, part, g.get_neighbor_infos(j, part)))
    traced = proc.tracer is not None
    # the waits in order; None is the local fetch, issued when reached
    order = [None, *remote] if overlap else [*remote, None]
    held = []  # (infos or None if lost, ids) awaiting their apply
    for step in order:
        if step is None:
            if local is not None:
                part = ids[local]
                # local calls resolve synchronously; their apply comes first
                held.insert(0, ((yield Wait(g.get_neighbor_infos(
                    g.shard_id, part))), part))
        else:
            j, part, fut = step
            try:
                if traced:
                    with proc.span("fetch", shard=j):
                        infos = yield Wait(fut)
                else:  # no span to open: skip the no-op context
                    infos = yield Wait(fut)
            except TRANSPORT_ERRORS:
                if lost is None:
                    raise
                infos = None
            held.append((infos, part))
            if not overlap:
                continue
        for infos, part in held:
            if infos is None:  # absorbed loss: write off this shard's batch
                lost(part)
                continue
            apply(infos, part)
            if cost is not None:
                proc.compute("push", cost(len(part), infos.n_entries))
        held.clear()


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
        self._local: list[bool] | None = None  # see _localities
        #: this process's own shard (its halo cache answers remote ids)
        self._own = rrefs[self.shard_id].local_value()
        #: the address book, as held by this machine's own shard
        self.base = self._own.base

    @property
    def n_shards(self) -> int:
        return len(self.rrefs)

    def _rref(self, dest_shard: int) -> RRef:
        """``dest_shard``'s storage RRef; every method routes through here."""
        if not 0 <= dest_shard < len(self.rrefs):
            raise ShardError(
                f"dest_shard {dest_shard} out of range [0, {len(self.rrefs)})"
            )
        return self.rrefs[dest_shard]

    def is_local(self, dest_shard: int) -> bool:
        """Whether ``dest_shard``'s storage lives on the caller's machine."""
        self._rref(dest_shard)  # a bad shard is a ShardError
        return self._localities()[dest_shard]

    def _localities(self) -> list[bool]:
        """Whether each shard lives on the caller's machine, resolved once:
        on first use, because a facade may be built before its caller
        registers with the RPC context."""
        if self._local is None:
            self._local = [rref.is_owner(self.caller) for rref in self.rrefs]
        return self._local

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
        rref = self._rref(dest_shard)
        if self.compress:
            if self._localities()[dest_shard]:
                return rref.rpc_async(self.caller, "get_vertex_props", ids)
            self._record_remote(ids)
            # 2-hop halo cache: if the local shard caches every requested
            # node's row, answer from shared memory instead of the network.
            if self._own.has_halo_cache and self._own.cache_mask(ids).all():
                return self.rrefs[self.shard_id].rpc_async(
                    self.caller, "get_cached_batch", ids
                )
            return rref.rpc_async(self.caller, "get_neighbor_batch", ids)
        return rref.rpc_async(self.caller, "get_neighbor_lists", ids)

    def _record_remote(self, ids: np.ndarray) -> None:
        """Called with every compressed request bound off this machine,
        once its shard is resolved; a facade that keeps demand overrides
        it."""

    def get_neighbor_infos_single(self, dest_shard: int, node_id: int):
        """Single-node fetch (the unbatched, uncompressed ablation baseline)."""
        return self._rref(dest_shard).rpc_async(
            self.caller, "get_single", int(node_id)
        )

    def sample_one_neighbor(self, dest_shard: int, ids: np.ndarray,
                            salt: int):
        """Sample one out-neighbor per node (random-walk step).

        ``salt`` (the walk step number) makes sampling independent of
        request arrival order — see GraphShard.sample_one_neighbor.
        """
        return self._rref(dest_shard).rpc_async(
            self.caller, "sample_one_neighbor", ids, salt
        )

    def source_weighted_degrees(self, dest_shard: int, ids: np.ndarray):
        """Fetch own weighted degrees (used to seed SSPPR queries)."""
        return self._rref(dest_shard).rpc_async(
            self.caller, "source_weighted_degrees", ids
        )

    def shard_masks(self, ids: np.ndarray) -> dict[int, slice | np.ndarray]:
        """:func:`shard_masks` over this process's address book."""
        return shard_masks(self.base, ids)
