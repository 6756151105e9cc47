"""The adjacency-row format, and the uncompressed ablation beside it.

:class:`NeighborBatch` is a block of CSR rows: one ``indptr`` over three
flat per-neighbor columns — node ``ids``, edge ``weights`` and the
neighbors' weighted degrees ``wdeg`` — plus ``src_wdeg``, the rows' own
weighted degrees.  It is the only row format in the storage layer: a
shard's arena, its 2-hop halo cache, a staged replacement, both blocks of
a :class:`~repro.storage.shard_update.ShardUpdate`, a hot-cache row and
every fetch response are values of this one type, so slicing, gathering,
merging and pricing rows are each written once, here.

On the wire a batch is **5 tensors total** regardless of batch size — the
paper's *Compress* optimization.  :class:`NeighborLists` is the
list-of-lists response it replaces: **3 tensors per node**, exactly the
TensorPipe-hostile pattern the paper measures as ~5x slower to transfer
(Table 3, +Compress row).

Both expose ``to_arrays()`` so the push operator consumes either
uniformly; conversion cost for the uncompressed format lands on the
consumer, as it does in the real system.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from repro.errors import ShardError
from repro.graph.csr import row_blocks, splice_rows


@dataclass
class NeighborBatch:
    """CSR rows: neighbor info for a batch of nodes.

    Internal constructions (``take_rows``, ``merge``, the shard read
    path) pass ``check=False``: their shapes are correct by
    construction, and the arrays may be read-only views into the
    owning shard's arena rather than private copies.
    """

    indptr: np.ndarray    # (n+1,) extents into the flat arrays
    ids: np.ndarray       # neighbor node ids
    weights: np.ndarray   # edge weights
    wdeg: np.ndarray      # neighbors' weighted degrees (1-hop degree halo)
    src_wdeg: np.ndarray  # (n,) the rows' own weighted degrees
    check: InitVar[bool] = True

    def __post_init__(self, check: bool = True) -> None:
        if not check:  # trusted internal construction
            return
        n_entries = len(self.ids)
        if self.indptr[0] != 0 or self.indptr[-1] != n_entries:
            raise ShardError("NeighborBatch indptr does not span its arrays")
        for name in ("weights", "wdeg"):
            if len(getattr(self, name)) != n_entries:
                raise ShardError(f"NeighborBatch field {name} length mismatch")
        if len(self.src_wdeg) != len(self.indptr) - 1:
            raise ShardError("NeighborBatch src_wdeg length mismatch")

    @property
    def n_sources(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_entries(self) -> int:
        return len(self.ids)

    def to_arrays(self):
        """Uniform consumption API: ``(indptr, ids, w, wdeg, src_wdeg)``."""
        return (self.indptr, self.ids, self.weights, self.wdeg,
                self.src_wdeg)

    def rpc_tensors(self):
        """The tensors a serialized response would carry (buffer-pool hook)."""
        return self.to_arrays()

    @property
    def nbytes(self) -> int:
        """Bytes held by the five arrays: what a row costs to keep or send."""
        return (self.indptr.nbytes + self.ids.nbytes + self.weights.nbytes
                + self.wdeg.nbytes + self.src_wdeg.nbytes)

    def row_nbytes(self) -> np.ndarray:
        """``slice_rows(i, i + 1).nbytes`` for every row ``i`` at once: what
        each row costs to keep or send on its own."""
        per_entry = (self.ids.itemsize + self.weights.itemsize
                     + self.wdeg.itemsize)
        return (np.diff(self.indptr) * per_entry
                + 2 * self.indptr.itemsize + self.src_wdeg.itemsize)

    def rpc_payload(self) -> tuple[int, int]:
        """5 tensors regardless of batch size — the compression win."""
        return self.nbytes, 5

    def freeze(self) -> "NeighborBatch":
        """Mark the arrays read-only (the zero-copy arena guard)."""
        for arr in self.to_arrays():
            arr.flags.writeable = False
        return self

    def materialize(self) -> "NeighborBatch":
        """Copy-on-serialize: a batch backed by private, writable arrays.

        View-backed batches alias the shard's read-only arena; the RPC
        boundary (and any consumer that wants ownership) calls this to
        detach.  Values are bitwise identical.
        """
        # repro: allow=REP011 copy-on-serialize is the one sanctioned copy point
        copies = tuple(a.copy() for a in self.to_arrays())
        return NeighborBatch(*copies, check=False)

    def slice_rows(self, start: int, stop: int) -> "NeighborBatch":
        """Rows ``[start, stop)`` as zero-copy views of this batch's arrays."""
        s0 = int(self.indptr[start])
        e_last = int(self.indptr[stop])
        return NeighborBatch(
            self.indptr[start:stop + 1] - s0, self.ids[s0:e_last],
            self.weights[s0:e_last], self.wdeg[s0:e_last],
            self.src_wdeg[start:stop], check=False,
        )

    def take_rows(self, rows: np.ndarray) -> "NeighborBatch":
        """A new batch holding the given rows, in the given order.

        The one slice-or-gather of the storage layer (local fetches,
        remote responses, halo-cache reads and single-flight extraction
        all come through here).  When ``rows`` is one ascending run the
        result is pure zero-copy slices (:meth:`slice_rows`); otherwise
        one gather with a flat index (no Python loop).  Both paths return
        bitwise-identical values.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n and rows[0] + n - 1 == rows[-1] and np.all(np.diff(rows) == 1):
            first = int(rows[0])
            return self.slice_rows(first, first + n)
        indptr, idx = row_blocks(self.indptr, rows)
        return NeighborBatch(indptr, self.ids[idx], self.weights[idx],
                             self.wdeg[idx], self.src_wdeg[rows],
                             check=False)

    def splice(self, rows: np.ndarray, block: "NeighborBatch",
               block_rows: np.ndarray) -> "NeighborBatch":
        """A private copy with row ``rows[j]`` (unique, any order) replaced
        by ``block``'s row ``block_rows[j]``; this batch is not written to."""
        indptr, columns = splice_rows(
            self.indptr, (self.ids, self.weights, self.wdeg), rows,
            block.indptr[block_rows], block.indptr[block_rows + 1],
            (block.ids, block.weights, block.wdeg))
        src_wdeg = self.src_wdeg.copy()  # repro: allow=REP011 staged replacement
        src_wdeg[rows] = block.src_wdeg[block_rows]
        return NeighborBatch(indptr, *columns, src_wdeg, check=False)

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
        have produced.
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
            part_counts = np.diff(batch.indptr)
            part_total = int(batch.indptr[-1])
            # repro: allow=REP011 scatter into the merged arena is a copy by definition
            idx = (np.repeat(indptr[pos] - batch.indptr[:-1], part_counts)
                   + np.arange(part_total))
            ids[idx] = batch.ids
            w[idx] = batch.weights
            wdeg[idx] = batch.wdeg
            src_wdeg[pos] = batch.src_wdeg
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

    def rpc_payload(self) -> tuple[int, int]:
        """3 tensors *per requested node* — the TensorPipe-hostile shape."""
        nbytes = self.src_wdeg.nbytes
        n_tensors = 1
        for entry in self.entries:
            for arr in entry:
                nbytes += arr.nbytes
                n_tensors += 1
        return nbytes, n_tensors

    def rpc_tensors(self):
        """Every per-node tensor a transfer would wrap (buffer-pool hook)."""
        yield self.src_wdeg
        for entry in self.entries:
            yield from entry
