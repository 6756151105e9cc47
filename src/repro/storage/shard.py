"""One partition's graph data: the Graph Shard of Section 3.2.2.

Shard ``s`` owns the contiguous node-id range ``[base[s], base[s+1])``; its
rows are its *core nodes* in id order (row index = ``id - base[s]``, private
to this module).  For every core node the shard stores its full
out-neighborhood as one CSR-rows value (:class:`NeighborBatch`, the
``rows`` arena): per neighbor the node id and the edge weight.  Weighted
degrees — the neighbors' (the 1-hop degree halo: lets Forward Push
threshold-check any touched node without a second RPC) and the core
nodes' own — live once per node, in the arena's node-indexed ``degrees``
table, and every read resolves them from it, so a node has one degree
per shard whichever row names it.  At build every shard shares one
table; a shard's first stage gives it its own (8 B per node id).  An id
says who owns it — one ``searchsorted`` over ``base`` — so no
per-neighbor shard column exists.

Neighbors owned by other shards are the shard's *halo nodes*; only their
ids and degree metadata are cached — their adjacency stays with their owner
(Figure 3: "shards only store the data about core nodes").

Shards are immutable under queries, but support *staged* mutation for
the streaming path: :meth:`~GraphShard.stage_updates` precomputes
replacement rows off to the side (invisible to readers),
:meth:`~GraphShard.commit_updates` swaps them in atomically while
retaining the pre-image, and :meth:`~GraphShard.rollback_updates` /
:meth:`~GraphShard.abort_updates` undo a commit / discard a stage — the
building blocks of the two-phase batch protocol in
:mod:`repro.stream.ingest`.  A stage appends the replaced rows to the
arena's buffer and copies only the per-row extents (the arena becomes an
*extent arena*, :class:`~repro.storage.neighbor_batch.RowBuffer`); a
fixed rule compacts the live rows when an append does not fit.  So the
columns may hold dead entries, and every reader of whole columns reads
the live rows only (``halo_nodes``, ``n_entries``, ``memory_nbytes``).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import ShardError
from repro.rpc.handlers import rpc_handler
from repro.storage.neighbor_batch import NeighborBatch, NeighborLists
from repro.storage.shard_update import ShardUpdate
from repro.storage.vertex_prop import RowSelection, VertexProp


def _find_sorted(keys: np.ndarray, ids: np.ndarray):
    """``(position in keys, is present)`` per id, for ascending ``keys``;
    the position is only meaningful where present."""
    if len(keys) == 0:
        return (np.zeros(len(ids), dtype=np.int64),
                np.zeros(len(ids), dtype=bool))
    pos = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
    return pos, keys[pos] == ids


class GraphShard:
    """Storage for one graph partition (plus halo metadata)."""

    def __init__(self, shard_id: int, base: np.ndarray,
                 core_global: np.ndarray, rows: NeighborBatch, *,
                 seed=None) -> None:
        n_shards = len(base) - 1
        if not 0 <= shard_id < n_shards:
            raise ShardError(f"shard_id {shard_id} out of range [0, {n_shards})")
        n_core = int(base[shard_id + 1] - base[shard_id])
        if len(core_global) != n_core or rows.n_sources != n_core:
            raise ShardError(
                f"shard {shard_id} owns {n_core} ids but got "
                f"{len(core_global)} core nodes and {rows.n_sources} rows"
            )
        if rows.degrees is None or len(rows.degrees) != base[-1]:
            raise ShardError(f"shard {shard_id} rows need a degree table "
                             f"over all {int(base[-1])} node ids")
        self.shard_id = int(shard_id)
        #: the address book: shard ``s`` owns ids ``[base[s], base[s+1])``
        self.base = base
        self._lo, self._hi = int(base[shard_id]), int(base[shard_id + 1])
        self.core_global = core_global
        # The arena and its degree table are read-only: fetch responses
        # name rows of these arrays (or are views into them), so an
        # in-place write anywhere would silently corrupt every outstanding
        # response.  Mutation goes through the staged two-phase path, which
        # builds fresh rows and a fresh table and swaps.
        self.rows = rows.freeze()
        core_global.flags.writeable = False
        self._seed = seed
        self._pool = None  # RPC buffer pool, attached by the hosting server
        # Optional 2-hop halo cache (install_halo_cache): full adjacency
        # rows for this shard's 1-hop halo nodes, answerable locally.
        # ``halo_ids`` are the cached nodes' ids, ascending; ``halo`` holds
        # their rows in that order, over the arena's degree table.
        self.halo_ids: np.ndarray | None = None
        self.halo: NeighborBatch | None = None
        # Streaming two-phase state: staged replacement ``(rows, halo)`` per
        # tag (invisible until commit) and the pre-image ``(rows, halo_ids,
        # halo)`` of the last commit (kept until the next commit so a
        # failed round can roll back).
        self._staged: dict[int, tuple] = {}
        self._preimage: dict[int, tuple] = {}

    @property
    def n_core(self) -> int:
        return len(self.core_global)

    @property
    def n_entries(self) -> int:
        return self.rows.n_entries

    def halo_nodes(self) -> np.ndarray:
        """Ids of this shard's halo nodes (remote-owned neighbors)."""
        ids = self.rows.packed().ids
        return np.unique(ids[(ids < self._lo) | (ids >= self._hi)])

    def attach_pool(self, pool) -> None:
        """Link the hosting server's RPC buffer pool for memory accounting."""
        self._pool = pool

    def memory_nbytes(self) -> int:
        """Bytes held by the shard's arrays (paper: ~1.5x the raw CSR).

        Includes the degree table (once: arena and halo cache share it;
        shards built together share one in this process, but each
        modelled machine holds its own), the optional 2-hop halo cache
        when installed, and the hosting server's pooled RPC buffers when a
        pool is attached.  Rows count as packed (``NeighborBatch.nbytes``):
        a staged arena's dead entries and slack are not the shard's rows.
        """
        total = (self.core_global.nbytes + self.rows.nbytes
                 + self.rows.degrees.nbytes)
        if self.halo is not None:  # its rows' node ids are ``halo_ids``
            total += self.halo.nbytes
        if self._pool is not None:
            total += self._pool.nbytes()
        return total

    def _rows_of(self, ids) -> np.ndarray:
        """Row indices of core-node ``ids``; ids this shard does not own
        are an error, never another node's row."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ShardError(f"ids must be 1-D, got shape {ids.shape}")
        rows = ids - self._lo
        # ids below lo wrap past n_core as uint64: one pass checks both ends
        if len(rows) and rows.view(np.uint64).max() >= self._hi - self._lo:
            raise ShardError(
                f"ids out of range for shard {self.shard_id} "
                f"[{self._lo}, {self._hi}): [{ids.min()}, {ids.max()}]"
            )
        return rows

    # -- fetch API (the "Graph Storage" operations) --------------------------
    @rpc_handler
    def get_vertex_props(self, ids) -> VertexProp:
        """Zero-copy local fetch: the requested rows of the arena."""
        return VertexProp(self.rows, self._rows_of(ids))

    @rpc_handler
    def get_neighbor_batch(self, ids) -> RowSelection:
        """CSR-compressed batch response (remote fetch, *Compress* mode):
        the requested rows of the arena, priced as the gathered batch."""
        return RowSelection(self.rows, self._rows_of(ids))

    @rpc_handler
    def get_neighbor_lists(self, ids) -> NeighborLists:
        """Uncompressed list-of-lists response (ablation: batch, no compress).

        Each per-node tuple copies its slices — mirroring the tensor-
        wrapping the paper identifies as the dominant cost of this format.
        """
        rows = self._rows_of(ids)
        arena = self.rows
        starts, counts = arena.row_extents(rows)
        entries = []
        for s, n in zip(starts.tolist(), counts.tolist()):
            e = s + n
            # repro: allow=REP011 this ablation measures per-node copy cost
            nbrs = arena.ids[s:e].copy()
            entries.append((nbrs,
                            arena.weights[s:e].copy(),  # repro: allow=REP011
                            arena.degrees.take(nbrs)))
        return NeighborLists(entries, arena.degrees.take(arena.src_ids[rows]))

    @rpc_handler
    def get_single(self, node_id: int) -> NeighborLists:
        """One-node response (ablation: no batching at all)."""
        return self.get_neighbor_lists(np.array([node_id], dtype=np.int64))

    @rpc_handler
    def source_weighted_degrees(self, ids) -> np.ndarray:
        """Own weighted degrees of the given core nodes."""
        return self.rows.degrees.take(self._lo + self._rows_of(ids))

    @rpc_handler
    def sample_one_neighbor(self, ids, salt: int) -> np.ndarray:
        """Uniformly sample one out-neighbor (id) per requested core node.

        Nodes with no out-neighbors stay in place (self-transition).

        ``salt`` makes the draw a pure function of
        ``(shard seed, salt, requested rows)`` — independent of request
        *arrival order*, which differs between the runtimes (and between
        thread-mode runs).  Walkers pass the step number.
        """
        ids = np.asarray(ids, dtype=np.int64)
        rows = self._rows_of(ids)
        arena = self.rows
        starts, counts = arena.row_extents(rows)
        # hashed over the shard-private row indices, not the ids, so a
        # relabel epoch that keeps a shard's rows keeps its walks
        digest = zlib.crc32(rows.tobytes())
        base = (int(self._seed)
                if isinstance(self._seed, (int, np.integer)) else 0)
        rng = np.random.default_rng((base, int(salt), digest))
        offsets = rng.integers(0, np.maximum(counts, 1))
        # Clamp picks for zero-degree nodes so the gather stays in the
        # columns; their values are discarded by the np.where below.
        pick = np.minimum(starts + offsets, max(len(arena.ids) - 1, 0))
        return np.where(counts > 0, arena.ids[pick], ids)

    # -- 2-hop halo cache ----------------------------------------------------
    # Section 3.2.1: "The higher the hop value for halo nodes, the lower
    # the communication requirements and the higher the amount of stored
    # data."  With the cache installed, this shard can answer neighbor-info
    # requests for its 1-hop halo nodes locally (so the engine only goes
    # remote for nodes 2+ hops outside the partition).

    @property
    def has_halo_cache(self) -> bool:
        return self.halo is not None

    def install_halo_cache(self, halo_ids: np.ndarray,
                           rows: NeighborBatch) -> None:
        """Attach cached adjacency ``rows`` for the halo nodes ``halo_ids``
        (ascending node ids, one row each).  The cache reads its degrees
        from the arena's table, so degrees ``rows`` stores are dropped
        (every shard's table holds the same values)."""
        if len(halo_ids) and np.any(np.diff(halo_ids) <= 0):
            raise ShardError("halo_ids must be strictly increasing")
        if rows.n_sources != len(halo_ids):
            raise ShardError("halo rows / halo_ids length mismatch")
        # The cache is part of the read-only arena: get_cached_batch hands
        # out selections of these arrays.
        halo_ids.flags.writeable = False
        self.halo_ids = halo_ids
        self.halo = rows.tabled(halo_ids, self.rows.degrees).freeze()

    def cache_mask(self, ids: np.ndarray) -> np.ndarray:
        """Per-node boolean mask of which remote nodes the halo cache holds.

        The storage facade answers a request from the halo cache when
        every entry is set (``cache_mask(ids).all()``).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if self.halo is None:
            return np.zeros(len(ids), dtype=bool)
        return _find_sorted(self.halo_ids, ids)[1]

    @rpc_handler
    def get_cached_batch(self, ids) -> RowSelection:
        """Serve remote shards' nodes from the local halo cache: the
        requested rows of the cache, priced as the gathered batch."""
        if self.halo is None:
            raise ShardError(f"shard {self.shard_id} has no halo cache")
        ids = np.asarray(ids, dtype=np.int64)
        pos, cached = _find_sorted(self.halo_ids, ids)
        if not cached.all():
            missing = ids[~cached]
            raise ShardError(
                f"halo cache miss for {len(missing)} nodes "
                f"(first id {missing[0]})"
            )
        return RowSelection(self.halo, pos)

    # -- streaming: staged batch application ---------------------------------
    # Two-phase protocol (repro.stream.ingest): the driver stages one
    # update batch on every shard, then commits everywhere; any failure
    # aborts the stage (nothing was visible) or rolls back the commit
    # (pre-image restore), so a batch is all-or-nothing across the
    # cluster.  All three mutators are idempotent under RPC retries.

    @rpc_handler
    def stage_updates(self, tag: int, update: ShardUpdate) -> int:
        """Precompute replacement rows for one batch; nothing visible yet.

        Returns the number of core rows the stage would replace.  A tag
        that already committed is a no-op (a retried stage after a lost
        reply must not re-apply on top of the new rows).

        Staging costs the batch, not the arena: the replacement rows are
        appended to the arena's buffer and only the per-row extents are
        copied (:meth:`NeighborBatch.replace_rows`, which states the
        compaction rule: 9/8 of the live entries per buffer, amortized
        eight entry copies per appended entry), and likewise for the
        halo cache.  Every degree lives in the arena's node-indexed
        table, not in its rows, so the degree broadcast is a copy of the
        table plus one scatter of the degrees the batch ships — no arena
        entry is scanned or patched.  Memory: the arena holds no degree
        column, and from its first stage on the shard holds a table of
        its own (8 B per node id) instead of the one shared at build.
        """
        tag = int(tag)
        if tag in self._preimage:
            return 0
        replaced = self._rows_of(update.row_ids)
        # Copy-on-write: outstanding selections and the pre-image keep the
        # live table.  Every degree the batch ships is absorbed: both
        # blocks' neighbor degrees, then the rows' own.
        degrees = self.rows.degrees.copy()  # repro: allow=REP011 staged table
        blocks = ((update.row_ids, update.rows),
                  (update.changed_ids, update.changed_rows))
        for _, block in blocks:
            degrees[block.ids] = block.wdeg
        for ids, block in blocks:
            degrees[ids] = block.src_wdeg
        rows = self.rows.replace_rows(replaced, update.rows,
                                      np.arange(update.n_rows), degrees)
        # Cached content must always equal the owner's current row; rows
        # this shard never cached stay uncached (coverage of *new* halo
        # vertices is rebalancing's job, not ingestion's).
        halo = None
        if self.halo is not None:
            srcs, changed = _find_sorted(update.changed_ids, self.halo_ids)
            stale = np.flatnonzero(changed)
            halo = self.halo.replace_rows(stale, update.changed_rows,
                                          srcs[stale], degrees)
        self._staged[tag] = (rows, halo)
        return update.n_rows

    @rpc_handler
    def commit_updates(self, tag: int) -> int:
        """Swap staged rows in, retaining the pre-image for rollback.

        The arena references its degree table, so rows and table go live
        as one reference assignment (likewise the halo cache, over the
        same new table); a reader sees the old pair or the new pair, never
        a mix, and a selection taken before keeps reading the old pair.
        """
        tag = int(tag)
        if tag in self._preimage:
            return 1  # retried commit after a lost reply: already applied
        staged = self._staged.pop(tag, None)
        if staged is None:
            raise ShardError(f"shard {self.shard_id}: commit of unknown "
                             f"tag {tag}")
        rows, halo = staged
        # older pre-images are now unreachable
        self._preimage = {tag: (self.rows, self.halo_ids, self.halo)}
        # staged rows join the read-only arena the moment they go live
        self.rows = rows.freeze()
        if halo is not None:
            self.halo = halo.freeze()
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
            self.rows, self.halo_ids, self.halo = pre
        self._staged.pop(tag, None)
        return 1

    @rpc_handler
    def abort_updates(self, tag: int) -> int:
        """Discard a staged (never committed) batch.  Idempotent."""
        self._staged.pop(int(tag), None)
        return 1

    @rpc_handler
    def install_halo_rows(self, ids, rows) -> int:
        """Merge replacement/replica rows into the halo cache.

        ``ids`` are ascending node ids, one per row of ``rows`` (any
        ``to_arrays()`` response; the cache stores them as a
        :class:`NeighborBatch`); rows for ids already cached replace the
        old content, new ids extend coverage (the replication path of
        telemetry-driven rebalancing).  Creates the cache if the shard had
        none.
        """
        ids = np.asarray(ids, dtype=np.int64)
        rows = NeighborBatch(*rows.to_arrays())
        if self.halo is None:
            self.install_halo_cache(ids, rows)
            return int(len(ids))
        # Sorted merge: incoming rows win on id collision.
        kept = np.flatnonzero(~np.isin(self.halo_ids, ids))
        merged = np.union1d(self.halo_ids, ids)
        self.install_halo_cache(merged, NeighborBatch.merge(len(merged), [
            (np.searchsorted(merged, self.halo_ids[kept]),
             self.halo.take_rows(kept)),
            (np.searchsorted(merged, ids), rows),
        ]))
        return int(len(ids))

    # -- diagnostics -----------------------------------------------------------
    def describe(self) -> dict:
        """Summary stats used by preprocessing reports."""
        return {
            "shard_id": self.shard_id,
            "n_core": self.n_core,
            "n_halo": int(len(self.halo_nodes())),
            "n_entries": self.n_entries,
            "memory_mb": self.memory_nbytes() / 1e6,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GraphShard(id={self.shard_id}/{len(self.base) - 1}, "
            f"core={self.n_core}, entries={self.n_entries})"
        )
