"""Adaptive neighbor-fetch layer (``repro.storage.fetch``).

:class:`NeighborFetchService` is a :class:`DistGraphStorage` that makes
every remote batch as small and as rare as possible, composing three
mechanisms:

1. **Partial-hit splitting** — the raw facade's halo-cache shortcut is
   all-or-nothing: one uncached node sends the *entire* per-shard batch over
   the network.  The fetch layer splits each request with
   :meth:`GraphShard.cache_mask`, serves covered rows from the local halo
   cache, and sends only the misses.
2. **Hot-vertex cache** — a byte-budgeted cache of adjacency rows
   populated from remote responses.  Power-law hub vertices re-fetched by
   every query are fetched once per run.  A row is admitted only if it
   fits the remaining budget, and stays for the run: the cache fills once
   and then only serves hits.  Admission order is the driver's consume
   order, so the cached set is deterministic.
3. **Single-flight coalescing** — concurrent in-flight requests for
   overlapping ``(shard, node)`` sets dedup against a pending-futures table;
   late arrivals extract their rows from the first request's response.

Split responses are reassembled with the vectorized
:meth:`NeighborBatch.merge` in original request order, so results are
bitwise identical to an unsplit fetch.  Cache state mutates only at
deterministic points: classification happens when the driver *issues* a
fetch, and admission/unregistration happen when the driver first *consumes*
the response (``value()`` of the runtime's merged future), which both the
virtual-time scheduler and the thread runtime do in driver program order.  All shared state is guarded
by one lock (sanitizer-tracked when a race detector is installed).
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.simt.compute import COMPUTE
from repro.storage.dist_storage import DistGraphStorage
from repro.storage.neighbor_batch import NeighborBatch


class _HotRow:
    """One cached adjacency row: row ``index`` (entries ``start:stop``) of
    the remote response it arrived in.

    A reference, not a copy: the response's arrays stay alive as long as
    one of its rows is resident.
    """

    __slots__ = ("batch", "index", "start", "stop", "nbytes")

    def __init__(self, batch: NeighborBatch, index: int, start: int,
                 stop: int, nbytes: int) -> None:
        self.batch = batch
        self.index = index
        self.start = start
        self.stop = stop
        self.nbytes = nbytes


class FetchCache:
    """Shared per-machine fetch state: hot rows + pending-flight table.

    Keys are node ids (as in the halo cache).  ``capacity_bytes == 0``
    disables the hot-vertex cache while leaving the pending table usable.
    """

    def __init__(self, capacity_bytes: int, *, sanitizer=None) -> None:
        if capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}"
            )
        self.capacity = int(capacity_bytes)
        self.rows: dict[int, _HotRow] = {}
        #: key -> (in-flight future, row index within that request)
        self.pending: dict[int, tuple[Any, int]] = {}
        self.nbytes = 0
        self._sanitizer = sanitizer
        if sanitizer is not None:
            self.lock = sanitizer.tracked_lock("fetch.cache")
        else:
            self.lock = threading.Lock()

    def record_access(self, *, write: bool) -> None:
        """Report the shared-state access to an installed race detector."""
        if self._sanitizer is not None:
            self._sanitizer.record("fetch.cache.state", write=write)

    # The callers below hold ``self.lock``.

    def admit(self, keys: list[int], batch: NeighborBatch) -> None:
        """Cache the rows of a remote response that fit the remaining
        budget, in response order; a resident row is never replaced."""
        rows = self.rows
        room = self.capacity - self.nbytes
        # bulk conversions once per response, not per row; a row is priced
        # by what it would cost as a batch of its own
        bounds = batch.indptr.tolist()
        sizes = batch.row_nbytes().tolist()
        for i, key in enumerate(keys):
            if sizes[i] > room or key in rows:
                continue
            rows[key] = _HotRow(batch, i, bounds[i], bounds[i + 1], sizes[i])
            room -= sizes[i]
        self.nbytes = self.capacity - room

    def unregister(self, keys: list[int], fut: Any) -> None:
        """Drop pending entries that still point at ``fut`` (idempotent)."""
        for key in keys:
            ent = self.pending.get(key)
            if ent is not None and ent[0] is fut:
                del self.pending[key]


def _rows_to_batch(rows: list[_HotRow]) -> NeighborBatch:
    """Assemble cached rows (in request order) into one NeighborBatch."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.stop - r.start for r in rows], out=indptr[1:])
    # repro: allow=REP011 hot rows come from many responses; reassembly copies
    ids = np.concatenate([r.batch.ids[r.start:r.stop] for r in rows])
    weights = np.concatenate(  # repro: allow=REP011
        [r.batch.weights[r.start:r.stop] for r in rows])
    wdeg = np.concatenate(  # repro: allow=REP011
        [r.batch.wdeg[r.start:r.stop] for r in rows])
    src_wdeg = np.fromiter((r.batch.src_wdeg[r.index] for r in rows),
                           dtype=np.float64, count=len(rows))
    return NeighborBatch(indptr, ids, weights, wdeg, src_wdeg, check=False)


class NeighborFetchService(DistGraphStorage):
    """The compressed storage facade plus split / hot-cache / coalescing.

    Everything except remote ``get_neighbor_infos`` is the inherited
    :class:`DistGraphStorage` surface, so drivers are agnostic to which of
    the two they hold.  The service exists only on the compressed path.
    """

    def __init__(self, rrefs, shard_id: int, caller: str, cache: FetchCache,
                 *, split: bool = True, coalesce: bool = True, metrics=None,
                 proc=None, heat=None) -> None:
        super().__init__(rrefs, shard_id, caller, compress=True)
        self._cache = cache
        self._split = bool(split)
        self._coalesce = bool(coalesce)
        self._metrics = metrics
        self._proc = proc
        #: node id -> remote-request count; the rebalancer reads
        #: this between epochs to find hot boundary vertices
        self._heat = heat

    # -- the adaptive path ----------------------------------------------
    def get_neighbor_infos(self, dest_shard: int, ids: np.ndarray):
        if self.is_local(dest_shard):
            return super().get_neighbor_infos(dest_shard, ids)
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return super().get_neighbor_infos(dest_shard, ids)
        return self._fetch_remote(int(dest_shard), ids)

    def _inc(self, name: str, value: int = 1) -> None:
        if self._metrics is not None and value:
            self._metrics.inc(name, value)

    def _classify(self, cache, key_list, use_rows, hot_pos, hot_rows, pend):
        """Split request positions into hot hits / coalesced / misses."""
        rest: list[int] = []
        rows = cache.rows
        pending = cache.pending
        coalesce = self._coalesce
        for i, key in enumerate(key_list):
            if use_rows:
                row = rows.get(key)
                if row is not None:
                    hot_pos.append(i)
                    hot_rows.append(row)
                    continue
            if coalesce:
                ent = pending.get(key)
                if ent is not None:
                    fut, row_idx = ent
                    group = pend.get(id(fut))
                    if group is None:
                        group = pend[id(fut)] = (fut, [], [])
                    group[1].append(i)
                    group[2].append(row_idx)
                    continue
            rest.append(i)
        return rest

    def _fetch_remote(self, dest_shard: int, ids: np.ndarray):
        cache = self._cache
        coalesce = self._coalesce
        n = len(ids)
        key_list = ids.tolist()  # one bulk conversion, not n int() calls

        hot_pos: list[int] = []
        hot_rows: list[_HotRow] = []
        #: id(fut) -> (fut, positions in this request, rows in that flight)
        pend: dict[int, tuple[Any, list[int], list[int]]] = {}
        rest: list[int] = []

        with cache.lock:
            cache.record_access(write=True)
            if self._heat is not None:
                heat = self._heat
                for key in key_list:
                    heat[key] = heat.get(key, 0) + 1
            use_rows = bool(cache.rows)
            if not use_rows and not (coalesce and cache.pending):
                # nothing cached or in flight: every node is a miss
                rest = list(range(n))
            else:
                rest = self._classify(cache, key_list, use_rows,
                                      hot_pos, hot_rows, pend)
            # Partial halo-cache hits: serve covered rows locally, send
            # only the misses over the wire.
            halo_pos: list[int] = []
            miss_pos = rest
            if self._split and rest:
                local_shard = self.rrefs[self.shard_id].local_value()
                if local_shard.has_halo_cache:
                    rest_arr = np.asarray(rest, dtype=np.int64)
                    covered = local_shard.cache_mask(ids[rest_arr])
                    halo_pos = rest_arr[covered].tolist()
                    miss_pos = rest_arr[~covered].tolist()

            halo_fut = None
            if halo_pos:
                halo_fut = self.rrefs[self.shard_id].rpc_async(
                    self.caller, "get_cached_batch",
                    ids[np.asarray(halo_pos, dtype=np.int64)],
                )

            miss_fut = None
            #: keys of the rows on the wire, in response row order: built
            #: once for pending registration, unregistration and admission
            miss_keys: list[int] = []
            if miss_pos:
                miss_fut = super().get_neighbor_infos(
                    dest_shard, ids[np.asarray(miss_pos, dtype=np.int64)]
                )
                if coalesce or cache.capacity > 0:
                    miss_keys = [key_list[p] for p in miss_pos]
                if coalesce:
                    for row_idx, key in enumerate(miss_keys):
                        cache.pending[key] = (miss_fut, row_idx)

        self._inc("fetch.requests")
        self._inc("fetch.cache_hits", len(hot_pos))
        self._inc("fetch.halo_hits", len(halo_pos))
        self._inc("fetch.coalesced", n - len(hot_pos) - len(rest))
        self._inc("fetch.misses", len(miss_pos))
        self._inc("fetch.bytes_saved",
                  sum(r.nbytes for r in hot_rows))
        if self._proc is not None and (hot_pos or halo_pos or pend):
            with self._proc.span("fetch.split", shard=dest_shard,
                                 hot=len(hot_pos), halo=len(halo_pos),
                                 miss=len(miss_pos)):
                pass
        if self._proc is not None and pend:
            # Zero-duration marker per coalesced flight, linked (via the
            # origin future's client span id) to the RPC this caller is
            # piggybacking on — exporters draw the cross-process flow arrow
            # from it instead of leaving the late requester dangling.
            tracer = self._proc.tracer
            if tracer is not None:
                now = self._proc.clock
                parent = tracer.current(self._proc.name)
                for fut, positions, _rows in pend.values():
                    origin = getattr(fut, "span_id", None)
                    if origin is None:
                        continue
                    tracer.record(
                        "fetch.coalesced", self._proc.name, now, now,
                        parent_id=parent, kind="coalesce", link=origin,
                        attrs={"shard": dest_shard, "rows": len(positions)},
                    )

        # Pure hot hit: no wire, no waiting — resolve immediately.
        ctx = self.rrefs[0].ctx
        if len(hot_pos) == n:
            return ctx.resolved_future(_rows_to_batch(hot_rows),
                                       tag="fetch.hot")

        # Pure miss with nothing to merge or admit or unregister: hand the
        # raw storage future through — byte-for-byte the pre-fetch-layer
        # path.
        if miss_fut is not None and len(miss_pos) == n and not miss_keys:
            return miss_fut

        part_specs: list[tuple[Any, list[int], list[int] | None]] = []
        for fut, positions, row_idx in pend.values():
            part_specs.append((fut, positions, row_idx))
        if halo_fut is not None:
            part_specs.append((halo_fut, halo_pos, None))
        if miss_fut is not None:
            part_specs.append((miss_fut, miss_pos, None))

        def finalize(ok: bool):
            if not ok:
                if coalesce and miss_keys:
                    with cache.lock:
                        cache.record_access(write=True)
                        cache.unregister(miss_keys, miss_fut)
                return None
            merge_parts: list[tuple[np.ndarray, NeighborBatch]] = []
            saved = 0
            for fut, positions, row_idx in part_specs:
                batch = fut.value()
                if row_idx is not None:
                    batch = batch.take_rows(
                        np.asarray(row_idx, dtype=np.int64)
                    )
                    saved += batch.rpc_payload()[0]
                elif fut is halo_fut:
                    saved += batch.rpc_payload()[0]
                merge_parts.append(
                    (np.asarray(positions, dtype=np.int64), batch)
                )
            if miss_keys:
                with cache.lock:
                    cache.record_access(write=True)
                    if coalesce:
                        cache.unregister(miss_keys, miss_fut)
                    if cache.capacity > 0:
                        cache.admit(miss_keys, miss_fut.value())
            self._inc("fetch.bytes_saved", saved)
            if hot_rows:
                merge_parts.append(
                    (np.asarray(hot_pos, dtype=np.int64),
                     _rows_to_batch(hot_rows))
                )
            if self._proc is not None:
                self._proc.compute("fetch_merge", COMPUTE.merge(n))
            if (len(merge_parts) == 1
                    and np.array_equal(merge_parts[0][0], np.arange(n))):
                return merge_parts[0][1]
            return NeighborBatch.merge(n, merge_parts)

        # Merge + hot-cache admission + pending-table cleanup run when the
        # driver first consumes the future, on either runtime (charged to
        # it as ``fetch_merge``).
        return ctx.merged_future([spec[0] for spec in part_specs], finalize,
                                 tag="fetch.merge")
