"""One partition's graph data: the Graph Shard of Section 3.2.2.

Rows are the shard's *core nodes* (identified by local ID = rank within the
shard's sorted global-ID list); for every core node the shard stores its
full out-neighborhood as five parallel flat arrays:

* ``nbr_local``  — neighbor local IDs (relative to the *owner* shard),
* ``nbr_shard``  — neighbor owner shard IDs,
* ``nbr_global`` — neighbor global IDs (used by random walks / baselines),
* ``nbr_weight`` — edge weights,
* ``nbr_wdeg``   — neighbors' weighted degrees (the 1-hop halo cache: lets
  Forward Push threshold-check any touched node without a second RPC).

plus ``core_wdeg``, the core nodes' own weighted degrees.  Neighbors owned
by other shards are the shard's *halo nodes*; only their addressing and
degree metadata is cached — their adjacency stays with their owner
(Figure 3: "shards only store the data about core nodes").

Shards are immutable under queries, but support *staged* mutation for
the streaming path: :meth:`~GraphShard.stage_updates` precomputes
replacement arrays off to the side (invisible to readers),
:meth:`~GraphShard.commit_updates` swaps them in atomically while
retaining the pre-image, and :meth:`~GraphShard.rollback_updates` /
:meth:`~GraphShard.abort_updates` undo a commit / discard a stage — the
building blocks of the two-phase batch protocol in
:mod:`repro.stream.ingest`.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ShardError
from repro.graph.csr import splice_rows
from repro.rpc.handlers import rpc_handler
from repro.storage.neighbor_batch import NeighborBatch, NeighborLists
from repro.storage.shard_update import ShardUpdate
from repro.storage.vertex_prop import VertexProp
from repro.utils.rng import rng_from_seed


def _freeze(*arrays: np.ndarray) -> None:
    """Mark arrays read-only (the zero-copy arena guard)."""
    for arr in arrays:
        arr.flags.writeable = False


class GraphShard:
    """Storage for one graph partition (plus halo metadata)."""

    def __init__(self, shard_id: int, n_shards: int, core_global: np.ndarray,
                 indptr: np.ndarray, nbr_local: np.ndarray,
                 nbr_shard: np.ndarray, nbr_global: np.ndarray,
                 nbr_weight: np.ndarray, nbr_wdeg: np.ndarray,
                 core_wdeg: np.ndarray, *, seed=None) -> None:
        if not 0 <= shard_id < n_shards:
            raise ShardError(f"shard_id {shard_id} out of range [0, {n_shards})")
        n_core = len(core_global)
        if indptr.shape != (n_core + 1,):
            raise ShardError(
                f"indptr shape {indptr.shape} != ({n_core + 1},)"
            )
        n_entries = int(indptr[-1])
        for name, arr in (("nbr_local", nbr_local), ("nbr_shard", nbr_shard),
                          ("nbr_global", nbr_global), ("nbr_weight", nbr_weight),
                          ("nbr_wdeg", nbr_wdeg)):
            if len(arr) != n_entries:
                raise ShardError(f"{name} length {len(arr)} != {n_entries}")
        if len(core_wdeg) != n_core:
            raise ShardError("core_wdeg length mismatch")
        self.shard_id = int(shard_id)
        self.n_shards = int(n_shards)
        self.core_global = core_global
        self.indptr = indptr
        self.nbr_local = nbr_local
        self.nbr_shard = nbr_shard
        self.nbr_global = nbr_global
        self.nbr_weight = nbr_weight
        self.nbr_wdeg = nbr_wdeg
        self.core_wdeg = core_wdeg
        # The CSC arena is read-only: fetch responses are zero-copy views
        # into these arrays, so an in-place write anywhere would silently
        # corrupt every outstanding response.  Mutation goes through the
        # staged two-phase path, which builds fresh arrays and swaps.
        _freeze(core_global, indptr, nbr_local, nbr_shard, nbr_global,
                nbr_weight, nbr_wdeg, core_wdeg)
        self._seed = seed
        self._pool = None  # RPC buffer pool, attached by the hosting server
        self._rng = rng_from_seed(seed)
        self._rng_lock = threading.Lock()
        # Optional 2-hop halo cache (install_halo_cache): full adjacency
        # rows for this shard's 1-hop halo nodes, answerable locally.
        self._cache_keys: np.ndarray | None = None
        self._cache_indptr: np.ndarray | None = None
        self._cache_arrays: tuple | None = None
        self._cache_src_wdeg: np.ndarray | None = None
        # Streaming two-phase state: staged replacement arrays per tag
        # (invisible until commit) and the pre-image of the last commit
        # (kept until the next commit so a failed round can roll back).
        self._staged: dict[int, dict] = {}
        self._preimage: dict[int, dict] = {}

    # -- validation ---------------------------------------------------------
    @property
    def n_core(self) -> int:
        return len(self.core_global)

    @property
    def n_entries(self) -> int:
        return len(self.nbr_local)

    def halo_globals(self) -> np.ndarray:
        """Global IDs of this shard's halo nodes (remote-owned neighbors)."""
        remote = self.nbr_shard != self.shard_id
        return np.unique(self.nbr_global[remote])

    def attach_pool(self, pool) -> None:
        """Link the hosting server's RPC buffer pool for memory accounting."""
        self._pool = pool

    def memory_nbytes(self) -> int:
        """Bytes held by the shard's arrays (paper: ~1.5x the raw CSR).

        Includes the optional 2-hop halo cache when installed, and the
        hosting server's pooled RPC buffers when a pool is attached —
        rebalancing heat decisions see the true per-shard footprint.
        """
        total = sum(arr.nbytes for arr in (
            self.core_global, self.indptr, self.nbr_local, self.nbr_shard,
            self.nbr_global, self.nbr_weight, self.nbr_wdeg, self.core_wdeg,
        ))
        if self._cache_keys is not None:
            total += (self._cache_keys.nbytes + self._cache_indptr.nbytes
                      + self._cache_src_wdeg.nbytes
                      + sum(a.nbytes for a in self._cache_arrays))
        if self._pool is not None:
            total += self._pool.nbytes()
        return total

    def _check_ids(self, local_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(local_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ShardError(f"local_ids must be 1-D, got shape {ids.shape}")
        if len(ids) and (ids.min() < 0 or ids.max() >= self.n_core):
            raise ShardError(
                f"local_ids out of range for shard {self.shard_id} "
                f"(n_core={self.n_core}): [{ids.min()}, {ids.max()}]"
            )
        return ids

    # -- fetch API (the "Graph Storage" operations) --------------------------
    @rpc_handler
    def get_vertex_props(self, local_ids) -> VertexProp:
        """Zero-copy local fetch: views over the shard arrays."""
        return VertexProp(self, self._check_ids(local_ids))

    @rpc_handler
    def get_neighbor_batch(self, local_ids) -> NeighborBatch:
        """CSR-compressed batch response (remote fetch, *Compress* mode)."""
        ids = self._check_ids(local_ids)
        prop = VertexProp(self, ids)
        (indptr, local, shard, glob, w, wdeg, src_wdeg) = prop.to_arrays()
        return NeighborBatch(indptr, local, shard, glob, w, wdeg, src_wdeg,
                             check=False)

    @rpc_handler
    def get_neighbor_lists(self, local_ids) -> NeighborLists:
        """Uncompressed list-of-lists response (ablation: batch, no compress).

        Each per-node tuple copies its slices — mirroring the tensor-
        wrapping the paper identifies as the dominant cost of this format.
        """
        ids = self._check_ids(local_ids)
        entries = []
        for lid in ids:
            s, e = self.indptr[lid], self.indptr[lid + 1]
            # repro: allow=REP011 this ablation measures per-node copy cost
            entries.append((
                self.nbr_local[s:e].copy(), self.nbr_shard[s:e].copy(),  # repro: allow=REP011
                self.nbr_global[s:e].copy(), self.nbr_weight[s:e].copy(),  # repro: allow=REP011
                self.nbr_wdeg[s:e].copy(),  # repro: allow=REP011
            ))
        return NeighborLists(entries, self.core_wdeg[ids].copy())  # repro: allow=REP011

    @rpc_handler
    def get_single(self, local_id: int) -> NeighborLists:
        """One-node response (ablation: no batching at all)."""
        return self.get_neighbor_lists(np.array([local_id], dtype=np.int64))

    @rpc_handler
    def source_weighted_degrees(self, local_ids) -> np.ndarray:
        """Own weighted degrees of the given core nodes."""
        return self.core_wdeg[self._check_ids(local_ids)]

    @rpc_handler
    def sample_one_neighbor(self, local_ids, salt: int | None = None):
        """Uniformly sample one out-neighbor per requested core node.

        Returns ``(next_local, next_global, next_shard)`` arrays, matching
        the Figure 4 random-walk interface.  Nodes with no out-neighbors
        stay in place (self-transition).

        ``salt`` makes the draw a pure function of
        ``(shard seed, salt, requested ids)`` — independent of request
        *arrival order*, which carries measured-time jitter in the
        simulator.  Callers wanting run-to-run reproducible walks pass a
        per-step salt; without one, the shard's shared stream is used.
        """
        ids = self._check_ids(local_ids)
        starts = self.indptr[ids]
        counts = self.indptr[ids + 1] - starts
        if salt is not None:
            import zlib

            digest = zlib.crc32(ids.tobytes())
            base = (int(self._seed)
                    if isinstance(self._seed, (int, np.integer)) else 0)
            rng = np.random.default_rng((base, int(salt), digest))
            offsets = rng.integers(0, np.maximum(counts, 1))
        else:
            with self._rng_lock:
                offsets = self._rng.integers(0, np.maximum(counts, 1))
        has = counts > 0
        # Clamp picks for zero-degree nodes so the gather stays in bounds;
        # their values are discarded by the np.where below.
        pick = np.minimum(starts + offsets, max(self.n_entries - 1, 0))
        next_local = np.where(has, self.nbr_local[pick], ids)
        next_global = np.where(has, self.nbr_global[pick],
                               self.core_global[ids])
        next_shard = np.where(has, self.nbr_shard[pick], self.shard_id)
        return next_local, next_global, next_shard

    # -- 2-hop halo cache ----------------------------------------------------
    # Section 3.2.1: "The higher the hop value for halo nodes, the lower
    # the communication requirements and the higher the amount of stored
    # data."  With the cache installed, this shard can answer neighbor-info
    # requests for its 1-hop halo nodes locally (so the engine only goes
    # remote for nodes 2+ hops outside the partition).

    @property
    def has_halo_cache(self) -> bool:
        return self._cache_keys is not None

    def install_halo_cache(self, cache_keys: np.ndarray,
                           cache_indptr: np.ndarray, cache_arrays: tuple,
                           cache_src_wdeg: np.ndarray) -> None:
        """Attach cached adjacency rows for halo nodes.

        ``cache_keys`` are sorted packed owner addresses
        (``local * K + shard``); ``cache_arrays`` is the
        (local, shard, global, weight, wdeg) tuple of flat arrays indexed
        by ``cache_indptr``.
        """
        if len(cache_keys) and np.any(np.diff(cache_keys) <= 0):
            raise ShardError("cache_keys must be strictly increasing")
        if cache_indptr.shape != (len(cache_keys) + 1,):
            raise ShardError("cache_indptr shape mismatch")
        if len(cache_src_wdeg) != len(cache_keys):
            raise ShardError("cache_src_wdeg length mismatch")
        # The cache is part of the read-only arena: get_cached_batch hands
        # out zero-copy views into these arrays.
        _freeze(cache_keys, cache_indptr, cache_src_wdeg, *cache_arrays)
        self._cache_keys = cache_keys
        self._cache_indptr = cache_indptr
        self._cache_arrays = cache_arrays
        self._cache_src_wdeg = cache_src_wdeg

    def cache_covers(self, dest_shard: int, local_ids: np.ndarray) -> bool:
        """Whether every requested remote node is in the halo cache."""
        if self._cache_keys is None or len(local_ids) == 0:
            return self._cache_keys is not None and len(local_ids) == 0
        keys = (np.asarray(local_ids, dtype=np.int64) * self.n_shards
                + int(dest_shard))
        pos = np.searchsorted(self._cache_keys, keys)
        pos = np.minimum(pos, len(self._cache_keys) - 1)
        return bool(np.all(self._cache_keys[pos] == keys))

    def cache_mask(self, dest_shard: int, local_ids: np.ndarray) -> np.ndarray:
        """Per-node boolean mask of which remote nodes the halo cache holds.

        The partial-hit counterpart of :meth:`cache_covers`: the fetch
        layer uses it to serve covered rows locally and send only the
        misses over the wire.
        """
        ids = np.asarray(local_ids, dtype=np.int64)
        if self._cache_keys is None or len(self._cache_keys) == 0:
            return np.zeros(len(ids), dtype=bool)
        keys = ids * self.n_shards + int(dest_shard)
        pos = np.searchsorted(self._cache_keys, keys)
        pos = np.minimum(pos, len(self._cache_keys) - 1)
        return self._cache_keys[pos] == keys

    @rpc_handler
    def get_cached_batch(self, dest_shard: int,
                         local_ids) -> NeighborBatch:
        """Serve a remote shard's nodes from the local halo cache."""
        if self._cache_keys is None:
            raise ShardError(f"shard {self.shard_id} has no halo cache")
        ids = np.asarray(local_ids, dtype=np.int64)
        keys = ids * self.n_shards + int(dest_shard)
        pos = np.searchsorted(self._cache_keys, keys)
        if len(keys):
            pos_clip = np.minimum(pos, len(self._cache_keys) - 1)
            if np.any(self._cache_keys[pos_clip] != keys):
                missing = keys[self._cache_keys[pos_clip] != keys]
                raise ShardError(
                    f"halo cache miss for {len(missing)} nodes of shard "
                    f"{dest_shard} (first key {missing[0]})"
                )
            pos = pos_clip
        local, shard, glob, w, wdeg = self._cache_arrays
        n = len(ids)
        if n and pos[0] + n - 1 == pos[-1] and bool(np.all(np.diff(pos) == 1)):
            # contiguous cache run: zero-copy slices of the cache arena
            p0 = int(pos[0])
            s0 = int(self._cache_indptr[p0])
            e_last = int(self._cache_indptr[p0 + n])
            return NeighborBatch(
                self._cache_indptr[p0:p0 + n + 1] - s0,
                local[s0:e_last], shard[s0:e_last], glob[s0:e_last],
                w[s0:e_last], wdeg[s0:e_last],
                self._cache_src_wdeg[p0:p0 + n], check=False,
            )
        starts = self._cache_indptr[pos]
        counts = self._cache_indptr[pos + 1] - starts
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        # repro: allow=REP011 scattered cache rows need a gather
        idx = np.repeat(starts - indptr[:-1], counts) + np.arange(total)
        return NeighborBatch(indptr, local[idx], shard[idx], glob[idx],
                             w[idx], wdeg[idx], self._cache_src_wdeg[pos],
                             check=False)

    # -- streaming: staged batch application ---------------------------------
    # Two-phase protocol (repro.stream.ingest): the driver stages one
    # update batch on every shard, then commits everywhere; any failure
    # aborts the stage (nothing was visible) or rolls back the commit
    # (pre-image restore), so a batch is all-or-nothing across the
    # cluster.  All three mutators are idempotent under RPC retries.

    @rpc_handler
    def stage_updates(self, tag: int, update: ShardUpdate) -> int:
        """Precompute replacement arrays for one batch; nothing visible yet.

        Returns the number of core rows the stage would replace.  A tag
        that already committed is a no-op (a retried stage after a lost
        reply must not re-apply on top of the new arrays).
        """
        tag = int(tag)
        if tag in self._preimage:
            return int(len(self._staged.get(tag, {}).get("row_lids", ())))
        lids = self._check_ids(update.row_lids)

        # Core degrees from the broadcast (changed vertices only).
        core_wdeg = self.core_wdeg.copy()  # repro: allow=REP011 staged replacement
        self._patch_degrees(self.core_global, core_wdeg, update.deg_gids,
                            update.deg_wdeg)

        # Splice replacement rows over the old flat arrays.
        indptr, columns = splice_rows(
            self.indptr,
            (self.nbr_local, self.nbr_shard, self.nbr_global,
             self.nbr_weight, self.nbr_wdeg),
            lids, update.row_indptr[:-1], update.row_indptr[1:],
            (update.row_local, update.row_shard, update.row_global,
             update.row_weight, update.row_wdeg))
        arrays = dict(zip(("nbr_local", "nbr_shard", "nbr_global",
                           "nbr_weight", "nbr_wdeg"), columns))

        # Degree broadcast over every entry referencing a changed vertex.
        self._patch_degrees(arrays["nbr_global"], arrays["nbr_wdeg"],
                            update.deg_gids, update.deg_wdeg)

        staged = {"row_lids": lids, "indptr": indptr,
                  "core_wdeg": core_wdeg, **arrays}
        staged.update(self._stage_cache_refresh(update))
        self._staged[tag] = staged
        return int(len(lids))

    @staticmethod
    def _patch_degrees(gids: np.ndarray, wdeg: np.ndarray,
                       deg_gids: np.ndarray, deg_wdeg: np.ndarray) -> None:
        """Overwrite ``wdeg`` entries whose ``gids`` are in the broadcast.

        Membership is one gather through a table over ``[0, max changed
        gid]``; larger gids clip onto the table's trailing miss cell.
        """
        if not len(gids) or not len(deg_gids):
            return
        slot = np.full(int(deg_gids[-1]) + 2, -1, dtype=np.int64)
        slot[deg_gids] = np.arange(len(deg_gids))
        pos = slot.take(gids, mode="clip")
        hit = np.flatnonzero(pos >= 0)
        wdeg[hit] = deg_wdeg[pos[hit]]

    def _stage_cache_refresh(self, update: ShardUpdate) -> dict:
        """New halo-cache arrays with changed vertices' rows replaced.

        Cached content must always equal the owner's current row; rows
        this shard never cached stay uncached (coverage of *new* halo
        vertices is rebalancing's job, not ingestion's).
        """
        if self._cache_keys is None:
            return {}
        keys = self._cache_keys
        ref_idx = srcs = np.empty(0, dtype=np.int64)
        if len(keys) and len(update.halo_keys):
            pos = np.minimum(np.searchsorted(update.halo_keys, keys),
                             len(update.halo_keys) - 1)
            ref_idx = np.flatnonzero(update.halo_keys[pos] == keys)
            srcs = pos[ref_idx]
        indptr, columns = splice_rows(
            self._cache_indptr, self._cache_arrays, ref_idx,
            update.halo_indptr[srcs], update.halo_indptr[srcs + 1],
            (update.halo_local, update.halo_shard, update.halo_global,
             update.halo_weight, update.halo_wdeg))
        out = dict(zip(("c_local", "c_shard", "c_global", "c_weight",
                        "c_wdeg"), columns))
        self._patch_degrees(out["c_global"], out["c_wdeg"],
                            update.deg_gids, update.deg_wdeg)
        src_wdeg = self._cache_src_wdeg.copy()  # repro: allow=REP011 staged replacement
        src_wdeg[ref_idx] = update.halo_src_wdeg[srcs]
        return {"c_indptr": indptr, "c_src_wdeg": src_wdeg, **out}

    @rpc_handler
    def commit_updates(self, tag: int) -> int:
        """Swap staged arrays in, retaining the pre-image for rollback."""
        tag = int(tag)
        if tag in self._preimage:
            return 1  # retried commit after a lost reply: already applied
        staged = self._staged.pop(tag, None)
        if staged is None:
            raise ShardError(f"shard {self.shard_id}: commit of unknown "
                             f"tag {tag}")
        # staged arrays join the read-only arena the moment they go live
        _freeze(*(v for v in staged.values()
                  if isinstance(v, np.ndarray)))
        pre = {
            "indptr": self.indptr, "nbr_local": self.nbr_local,
            "nbr_shard": self.nbr_shard, "nbr_global": self.nbr_global,
            "nbr_weight": self.nbr_weight, "nbr_wdeg": self.nbr_wdeg,
            "core_wdeg": self.core_wdeg, "c_keys": self._cache_keys,
            "c_indptr": self._cache_indptr, "c_arrays": self._cache_arrays,
            "c_src_wdeg": self._cache_src_wdeg,
        }
        self.indptr = staged["indptr"]
        self.nbr_local = staged["nbr_local"]
        self.nbr_shard = staged["nbr_shard"]
        self.nbr_global = staged["nbr_global"]
        self.nbr_weight = staged["nbr_weight"]
        self.nbr_wdeg = staged["nbr_wdeg"]
        self.core_wdeg = staged["core_wdeg"]
        if "c_indptr" in staged:
            self._cache_indptr = staged["c_indptr"]
            self._cache_arrays = (staged["c_local"], staged["c_shard"],
                                  staged["c_global"], staged["c_weight"],
                                  staged["c_wdeg"])
            self._cache_src_wdeg = staged["c_src_wdeg"]
        self._preimage = {tag: pre}  # older pre-images are now unreachable
        return 1

    @rpc_handler
    def rollback_updates(self, tag: int) -> int:
        """Undo a commit (pre-image restore) or discard a stage.

        Idempotent: rolling back a tag that never staged/committed here
        is a no-op, so the driver can broadcast rollbacks safely.
        """
        tag = int(tag)
        pre = self._preimage.pop(tag, None)
        if pre is not None:
            self.indptr = pre["indptr"]
            self.nbr_local = pre["nbr_local"]
            self.nbr_shard = pre["nbr_shard"]
            self.nbr_global = pre["nbr_global"]
            self.nbr_weight = pre["nbr_weight"]
            self.nbr_wdeg = pre["nbr_wdeg"]
            self.core_wdeg = pre["core_wdeg"]
            self._cache_keys = pre["c_keys"]
            self._cache_indptr = pre["c_indptr"]
            self._cache_arrays = pre["c_arrays"]
            self._cache_src_wdeg = pre["c_src_wdeg"]
        self._staged.pop(tag, None)
        return 1

    @rpc_handler
    def abort_updates(self, tag: int) -> int:
        """Discard a staged (never committed) batch.  Idempotent."""
        self._staged.pop(int(tag), None)
        return 1

    @rpc_handler
    def install_halo_rows(self, keys, src_wdeg, indptr, local, shard,
                          glob, weight, wdeg) -> int:
        """Merge replacement/replica rows into the halo cache.

        ``keys`` are sorted packed owner addresses; rows for keys already
        cached replace the old content, new keys extend coverage (the
        replication path of telemetry-driven rebalancing).  Creates the
        cache if the shard had none.
        """
        keys = np.asarray(keys, dtype=np.int64)
        src_wdeg = np.asarray(src_wdeg, dtype=np.float64)
        indptr = np.asarray(indptr, dtype=np.int64)
        if len(keys) and bool(np.any(np.diff(keys) <= 0)):
            raise ShardError("install_halo_rows keys must be strictly "
                             "increasing")
        if indptr.shape != (len(keys) + 1,) or len(src_wdeg) != len(keys):
            raise ShardError("install_halo_rows header mismatch")
        new_arrays = (np.asarray(local, dtype=np.int64),
                      np.asarray(shard, dtype=np.int64),
                      np.asarray(glob, dtype=np.int64),
                      np.asarray(weight, dtype=np.float64),
                      np.asarray(wdeg, dtype=np.float64))
        if self._cache_keys is None:
            self.install_halo_cache(keys, indptr, new_arrays, src_wdeg)
            return int(len(keys))
        # Sorted merge: incoming rows win on key collision.
        merged_keys = np.union1d(self._cache_keys, keys)
        rows = []
        for key in merged_keys:
            pos = np.searchsorted(keys, key)
            if pos < len(keys) and keys[pos] == key:
                s, e = indptr[pos], indptr[pos + 1]
                rows.append((tuple(a[s:e] for a in new_arrays),
                             float(src_wdeg[pos])))
            else:
                pos = np.searchsorted(self._cache_keys, key)
                s, e = self._cache_indptr[pos], self._cache_indptr[pos + 1]
                rows.append((tuple(a[s:e] for a in self._cache_arrays),
                             float(self._cache_src_wdeg[pos])))
        counts = np.fromiter((len(r[0][0]) for r in rows), dtype=np.int64,
                             count=len(rows))
        m_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=m_indptr[1:])
        m_arrays = tuple(
            # repro: allow=REP011 cache-merge rebuild copies by design
            np.concatenate([r[0][i] for r in rows]) if rows
            else np.empty(0, dtype=a.dtype)
            for i, a in enumerate(new_arrays))
        m_src = np.array([r[1] for r in rows], dtype=np.float64)
        self.install_halo_cache(merged_keys, m_indptr, m_arrays, m_src)
        return int(len(keys))

    # -- diagnostics -----------------------------------------------------------
    def describe(self) -> dict:
        """Summary stats used by preprocessing reports."""
        return {
            "shard_id": self.shard_id,
            "n_core": self.n_core,
            "n_halo": int(len(self.halo_globals())),
            "n_entries": self.n_entries,
            "memory_mb": self.memory_nbytes() / 1e6,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GraphShard(id={self.shard_id}/{self.n_shards}, "
            f"core={self.n_core}, entries={self.n_entries})"
        )
