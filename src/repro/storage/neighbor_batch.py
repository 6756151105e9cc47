"""The adjacency-row format, and the uncompressed ablation beside it.

:class:`NeighborBatch` is a block of CSR rows: one ``indptr`` over flat
per-neighbor columns — node ``ids``, edge ``weights`` and the neighbors'
weighted degrees ``wdeg`` — plus ``src_wdeg``, the rows' own weighted
degrees.  It is the only row format in the storage layer: a shard's
arena, its 2-hop halo cache, a staged replacement and both blocks of a
:class:`~repro.storage.shard_update.ShardUpdate` are values of this one
type, and every fetch response names rows of one
(:mod:`repro.storage.vertex_prop`), so slicing, gathering, merging and
pricing rows are each written once, here.

A degree is stored in one of two places.  A batch that travels (an
update block, a merged or materialized response) carries the neighbors'
degrees per entry, in ``wdeg``, and the rows' own per row, in
``src_wdeg``.  A batch a shard keeps (its arena and halo cache) is
*tabled*: it holds neither column, but a node-indexed table ``degrees``
(one value per node id, shared by every row that names the node) and its
rows' node ids ``src_ids``; an entry's degree is ``degrees[ids]`` and a
row's own is ``degrees[src_ids]``, resolved when the rows are read
(``to_arrays()``).  Readers never see the difference.

Rows are laid out in one of two ways, too.  A batch that travels is
*packed*: its rows lie back to back in row order, and ``indptr`` says
where each begins.  A batch a shard keeps becomes an *extent arena* at
its first stage: row ``i`` is entries ``[starts[i], starts[i] +
counts[i])`` of the columns, wherever they lie, and the columns are the
filled prefix of a :class:`RowBuffer` the arena grows into.  A stage
(:meth:`NeighborBatch.replace_rows`) writes each replaced row's new
entries past the buffer's fill and copies only the extents, so it costs
the batch, not the arena; an arena, a pre-image and an outstanding
selection each read below the fill they were made at, so nothing they
read is ever written.  ``to_arrays()`` of an extent arena returns packed
rows, and every gather reads the extents (:meth:`NeighborBatch.row_extents`).

On the wire a batch is **5 tensors total** regardless of batch size — the
paper's *Compress* optimization.  :class:`NeighborLists` is the
list-of-lists response it replaces: **3 tensors per node**, exactly the
TensorPipe-hostile pattern the paper measures as ~5x slower to transfer
(Table 3, +Compress row).

Every response exposes ``to_arrays()`` so the push operator consumes any
of them uniformly; conversion cost for the uncompressed format lands on
the consumer, as it does in the real system.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from repro.errors import ShardError
from repro.graph.csr import extent_blocks, row_blocks

#: bytes of one ``indptr`` element: what a kept row's extent costs packed
_INDPTR_BYTES = np.dtype(np.int64).itemsize


class RowBuffer:
    """The writable ``ids`` / ``weights`` columns extent arenas grow into.

    Entries below ``fill`` are written once and never again, and ``fill``
    only grows: every arena over the buffer holds views of it that end at
    the fill it was made at, so a write past ``fill`` changes nothing an
    arena, a pre-image or an outstanding selection reads — also after an
    aborted stage or a rolled-back commit, whose appends stay dead space
    until the next compaction.
    """

    __slots__ = ("ids", "weights", "fill")

    def __init__(self, capacity: int, ids_dtype, weights_dtype) -> None:
        self.ids = np.empty(capacity, dtype=ids_dtype)
        self.weights = np.empty(capacity, dtype=weights_dtype)
        self.fill = 0


@dataclass
class NeighborBatch:
    """CSR rows: neighbor info for a batch of nodes.

    Internal constructions (``take_rows``, ``merge``, the shard read
    path) pass ``check=False``: their shapes are correct by
    construction, and the arrays may be read-only views into the
    owning shard's arena rather than private copies.
    """

    indptr: np.ndarray | None  # (n+1,) packed rows' bounds; None: extents
    ids: np.ndarray       # neighbor node ids
    weights: np.ndarray   # edge weights
    wdeg: np.ndarray | None      # neighbors' weighted degrees (not tabled)
    src_wdeg: np.ndarray | None  # (n,) the rows' own degrees (not tabled)
    check: InitVar[bool] = True
    #: a tabled batch's node-indexed weighted degrees (the shard's 1-hop
    #: degree halo, held once per node instead of per entry) ...
    degrees: np.ndarray | None = field(default=None, kw_only=True,
                                       repr=False)
    #: ... and its rows' node ids, which index it for the rows' own degrees
    src_ids: np.ndarray | None = field(default=None, kw_only=True)
    #: an extent arena's rows: where each begins in the columns, and its
    #: length (``indptr`` is None) ...
    starts: np.ndarray | None = field(default=None, kw_only=True)
    counts: np.ndarray | None = field(default=None, kw_only=True)
    #: ... and the buffer its columns are the filled prefix of
    buffer: RowBuffer | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self, check: bool = True) -> None:
        if not check:  # trusted internal construction
            return
        n_entries = len(self.ids)
        if self.indptr[0] != 0 or self.indptr[-1] != n_entries:
            raise ShardError("NeighborBatch indptr does not span its arrays")
        tabled = self.degrees is not None
        if tabled and (self.wdeg is not None or self.src_wdeg is not None):
            raise ShardError("a tabled NeighborBatch reads its degrees from "
                             "its table, not wdeg / src_wdeg")
        for name in ("weights",) if tabled else ("weights", "wdeg"):
            if len(getattr(self, name)) != n_entries:
                raise ShardError(f"NeighborBatch field {name} length mismatch")
        name = "src_ids" if tabled else "src_wdeg"
        if len(getattr(self, name)) != len(self.indptr) - 1:
            raise ShardError(f"NeighborBatch {name} length mismatch")

    @property
    def n_sources(self) -> int:
        if self.starts is None:
            return len(self.indptr) - 1
        return len(self.starts)

    @property
    def n_entries(self) -> int:
        """Entries of the rows (an extent arena's dead ones not counted)."""
        if self.starts is None:
            return len(self.ids)
        return int(self.counts.sum())

    def row_extents(self, rows: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of the given rows (default: all): where each
        begins in the flat columns, and its length."""
        if self.starts is not None:
            if rows is None:
                return self.starts, self.counts
            return self.starts.take(rows), self.counts.take(rows)
        if rows is None:
            return self.indptr[:-1], np.diff(self.indptr)
        starts = self.indptr.take(rows)
        return starts, self.indptr[1:].take(rows) - starts

    def _columns(self) -> tuple[tuple, np.ndarray]:
        """``(per-entry columns, per-row column)`` this batch stores."""
        if self.degrees is None:
            return (self.ids, self.weights, self.wdeg), self.src_wdeg
        return (self.ids, self.weights), self.src_ids

    def _stored(self) -> tuple:
        """Every array this batch stores (a table is its holder's)."""
        entry_columns, row_column = self._columns()
        layout = ((self.indptr,) if self.starts is None
                  else (self.starts, self.counts))
        return (*layout, *entry_columns, row_column)

    def _like(self, indptr, entry_columns, row_column) -> "NeighborBatch":
        """A batch of this one's kind over the given arrays."""
        if self.degrees is None:
            return NeighborBatch(indptr, *entry_columns, row_column,
                                 check=False)
        return NeighborBatch(indptr, *entry_columns, None, None, check=False,
                             degrees=self.degrees, src_ids=row_column)

    def tabled(self, src_ids: np.ndarray,
               degrees: np.ndarray) -> "NeighborBatch":
        """These rows, as the rows of nodes ``src_ids``, reading every
        degree from the node-indexed ``degrees`` (stored ones are
        dropped)."""
        return NeighborBatch(self.indptr, self.ids, self.weights, None, None,
                             check=False, degrees=degrees, src_ids=src_ids,
                             starts=self.starts, counts=self.counts,
                             buffer=self.buffer)

    def packed(self) -> "NeighborBatch":
        """These rows back to back in row order: this batch itself unless
        it is an extent arena, whose rows come back as zero-copy views
        while they still lie in order in storage, else as one gather."""
        if self.starts is None:
            return self
        return self.take_rows(np.arange(self.n_sources))

    def to_arrays(self):
        """Uniform consumption API: ``(indptr, ids, w, wdeg, src_wdeg)``,
        packed; a tabled batch resolves both degree columns with one take
        each from its table."""
        if self.starts is not None:
            return self.packed().to_arrays()
        if self.degrees is None:
            return (self.indptr, self.ids, self.weights, self.wdeg,
                    self.src_wdeg)
        return (self.indptr, self.ids, self.weights,
                self.degrees.take(self.ids), self.degrees.take(self.src_ids))

    def rpc_tensors(self):
        """``(dtype, nbytes)`` of each tensor on the wire: 5 regardless of
        batch size — the compression win."""
        return [(a.dtype, a.nbytes) for a in self.to_arrays()]

    @property
    def nbytes(self) -> int:
        """Bytes the rows take packed — an ``indptr``, each per-entry
        column's entries and the per-row column: what a row costs to
        keep.  An extent arena's dead entries and slack are its buffer's,
        not its rows'."""
        entry_columns, row_column = self._columns()
        return (_INDPTR_BYTES * (self.n_sources + 1) + row_column.nbytes
                + self.n_entries * sum(col.itemsize for col in entry_columns))

    def freeze(self) -> "NeighborBatch":
        """Mark the arrays (and a table) read-only: the zero-copy arena
        guard."""
        for arr in self._stored():
            arr.flags.writeable = False
        if self.degrees is not None:
            self.degrees.flags.writeable = False
        return self

    def materialize(self) -> "NeighborBatch":
        """A batch backed by private, writable arrays.

        View-backed batches alias the shard's read-only arena; a consumer
        that wants to write rows calls this to detach them.  Values and
        modelled bytes are identical.  Nothing on the fetch path calls it:
        the RPC boundary hands responses over by reference.
        """
        # repro: allow=REP011 explicit detach for a consumer that writes rows
        copies = tuple(a.copy() for a in self.to_arrays())
        return NeighborBatch(*copies, check=False)

    def slice_rows(self, start: int, stop: int) -> "NeighborBatch":
        """Rows ``[start, stop)`` as zero-copy views of this batch's arrays
        (an extent arena's must lie back to back in storage)."""
        if self.starts is None:
            s0 = int(self.indptr[start])
            indptr = self.indptr[start:stop + 1] - s0
        else:
            s0 = int(self.starts[start]) if stop > start else 0
            indptr = np.zeros(stop - start + 1, dtype=np.int64)
            np.cumsum(self.counts[start:stop], out=indptr[1:])
        e_last = s0 + int(indptr[-1])
        entry_columns, row_column = self._columns()
        return self._like(indptr, [col[s0:e_last] for col in entry_columns],
                          row_column[start:stop])

    def _back_to_back(self, start: int, stop: int) -> bool:
        """Whether an extent arena's rows ``[start, stop)`` lie in order in
        storage."""
        starts = self.starts[start:stop]
        return bool(np.array_equal(starts[1:],
                                   starts[:-1] + self.counts[start:stop - 1]))

    def take_rows(self, rows: np.ndarray) -> "NeighborBatch":
        """A new batch holding the given rows, in the given order.

        The one slice-or-gather of a block of rows (every response's
        ``to_arrays()`` comes through here; a Forward-Push round gathers
        its responses with :func:`~repro.storage.vertex_prop.gather_rows`).
        When ``rows`` is one ascending run that lies back to back in
        storage (always, in a packed batch) the result is pure zero-copy
        slices (:meth:`slice_rows`); otherwise one gather with a flat
        index (no Python loop).  Both paths return bitwise-identical
        values.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n and rows[0] + n - 1 == rows[-1] and np.all(np.diff(rows) == 1):
            first = int(rows[0])
            if self.starts is None or self._back_to_back(first, first + n):
                return self.slice_rows(first, first + n)
        indptr, idx = extent_blocks(*self.row_extents(rows))
        entry_columns, row_column = self._columns()
        return self._like(indptr, [col[idx] for col in entry_columns],
                          row_column[rows])

    def replace_rows(self, rows: np.ndarray, block: "NeighborBatch",
                     block_rows: np.ndarray,
                     degrees: np.ndarray) -> "NeighborBatch":
        """A tabled extent arena with row ``rows[j]`` (unique, any order)
        replaced by ``block``'s row ``block_rows[j]``, reading its degrees
        from ``degrees``; nothing this batch or a reader of it reads is
        written.

        The new rows are appended past the fill of this arena's
        :class:`RowBuffer` and only the extents are copied: O(rows +
        replaced entries), however large the arena.  The one rule for
        space: when the append does not fit (or the arena has no buffer
        yet — a built or installed arena), the rows, replacements in
        place, are *compacted* back to back in row order into a fresh
        buffer of ``live + live // 8`` entries, ``live`` the entries of
        the result.  So a buffer holds at most 9/8 of the live entries at
        its compaction; dead entries (replaced rows' old content, the
        appends of aborted stages) only fill the slack, and the old
        buffer lives on while a pre-image or a selection reads it.  A
        compaction copies ``live`` entries once and leaves ``live // 8``
        free, which appends must fill before the next one: amortized,
        eight entry copies per appended entry.  Only ids and weights are
        stored: every degree lives in the table, and a replaced row is
        still the row of the same node.
        """
        if not len(rows):  # nothing to append: the rows, over the table
            return self.tabled(self.src_ids, degrees)
        block_ptr, block_idx = row_blocks(block.indptr, block_rows)
        starts, counts = self.row_extents()
        # repro: allow=REP011 a stage's one O(rows) copy: the extents
        starts, counts = starts.copy(), counts.copy()
        counts[rows] = np.diff(block_ptr)
        buf, need = self.buffer, int(block_ptr[-1])
        if buf is None or buf.fill + need > len(buf.ids):
            # compaction: the one O(arena) copy, once per buffer
            indptr, idx = extent_blocks(starts, counts)
            live = int(indptr[-1])
            buf = RowBuffer(live + live // 8, self.ids.dtype,
                            self.weights.dtype)
            if len(self.ids):  # replaced rows' entries are rewritten below
                self.ids.take(idx, out=buf.ids[:live], mode="clip")
                self.weights.take(idx, out=buf.weights[:live], mode="clip")
            starts = indptr[:-1]
            at = extent_blocks(starts[rows], counts[rows])[1]
            buf.fill = live
        else:
            at = slice(buf.fill, buf.fill + need)
            starts[rows] = buf.fill + block_ptr[:-1]
            buf.fill += need
        buf.ids[at] = block.ids[block_idx]
        buf.weights[at] = block.weights[block_idx]
        return NeighborBatch(None, buf.ids[:buf.fill],
                             buf.weights[:buf.fill], None, None,
                             check=False, degrees=degrees,
                             src_ids=self.src_ids, starts=starts,
                             counts=counts, buffer=buf)

    @classmethod
    def merge(cls, n_sources: int,
              parts: list[tuple[np.ndarray, "NeighborBatch"]]
              ) -> "NeighborBatch":
        """Reassemble per-part batches into one batch in request order.

        ``parts`` is a list of ``(positions, batch)`` pairs where
        ``positions`` are row indices into the original request; together
        they must cover ``0..n_sources-1`` exactly once.  The scatter is
        fully vectorized (one ``np.repeat`` gather per part), and the
        output rows are the parts' rows verbatim — a merged response is
        bitwise identical to the response a single unsplit fetch would
        have produced.  The result carries its degrees per entry.
        """
        counts = np.zeros(n_sources, dtype=np.int64)
        seen = np.zeros(n_sources, dtype=bool)
        for pos, batch in parts:
            if batch.n_sources != len(pos):
                raise ShardError(
                    f"merge part covers {len(pos)} positions but holds "
                    f"{batch.n_sources} rows"
                )
            if np.any(seen[pos]):
                raise ShardError("merge parts overlap in positions")
            seen[pos] = True
            counts[pos] = np.diff(batch.indptr)
        if not np.all(seen):
            raise ShardError(
                f"merge parts cover {int(np.count_nonzero(seen))} of "
                f"{n_sources} positions"
            )
        indptr = np.zeros(n_sources + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        ids = np.empty(total, dtype=np.int64)
        w = np.empty(total, dtype=np.float64)
        wdeg = np.empty(total, dtype=np.float64)
        src_wdeg = np.empty(n_sources, dtype=np.float64)
        for pos, batch in parts:
            part_ptr, part_ids, part_w, part_wdeg, part_src = \
                batch.to_arrays()
            part_counts = np.diff(part_ptr)
            # repro: allow=REP011 scatter into the merged arena is a copy by definition
            idx = (np.repeat(indptr[pos] - part_ptr[:-1], part_counts)
                   + np.arange(int(part_ptr[-1])))
            ids[idx] = part_ids
            w[idx] = part_w
            wdeg[idx] = part_wdeg
            src_wdeg[pos] = part_src
        return cls(indptr, ids, w, wdeg, src_wdeg, check=False)


class NeighborLists:
    """Uncompressed list-of-lists response (ablation baseline)."""

    __slots__ = ("entries", "src_wdeg")

    def __init__(self, entries: list[tuple], src_wdeg: np.ndarray) -> None:
        #: per requested node: (ids, weights, wdeg)
        self.entries = entries
        self.src_wdeg = np.asarray(src_wdeg, dtype=np.float64)
        if len(entries) != len(self.src_wdeg):
            raise ShardError("NeighborLists src_wdeg length mismatch")

    @property
    def n_sources(self) -> int:
        return len(self.entries)

    @property
    def n_entries(self) -> int:
        return sum(len(e[0]) for e in self.entries)

    def to_arrays(self):
        """Concatenate on the consumer side (costs interpreter time there)."""
        counts = np.fromiter((len(e[0]) for e in self.entries),
                             dtype=np.int64, count=len(self.entries))
        indptr = np.zeros(len(self.entries) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if self.entries:
            # repro: allow=REP011 uncompressed ablation pays the copy on purpose
            ids, w, wdeg = (np.concatenate(col)
                            for col in zip(*self.entries))
        else:
            ids = np.zeros(0, dtype=np.int64)
            w = wdeg = np.zeros(0, dtype=np.float64)
        return indptr, ids, w, wdeg, self.src_wdeg

    def rpc_tensors(self):
        """``src_wdeg``, then 3 tensors *per requested node* — the
        TensorPipe-hostile shape."""
        yield self.src_wdeg.dtype, self.src_wdeg.nbytes
        for entry in self.entries:
            for arr in entry:
                yield arr.dtype, arr.nbytes
