"""Fetch responses that name arena rows instead of copying them, and the
one gather that reads them.

A :class:`RowSelection` is what a remote ``get_neighbor_infos`` returns: the
serving shard's frozen arena (or halo cache) and the indices of the
requested rows.  The server gathers nothing; the consumer gathers each
row once — ``to_arrays()`` through :meth:`NeighborBatch.take_rows`, or a
Forward-Push round straight into its round buffers (:func:`gather_rows`).
A shard keeps every degree in one node-indexed table that its arena
references, not per entry, so the gather resolves each entry's degree as
one ``take`` from that table by the gathered neighbor id (and each row's
own by the row's node id).
On the modelled wire a selection is the CSR batch it names:
:meth:`RowSelection.rpc_tensors` reports the tensors of the gathered
:class:`NeighborBatch` (its degrees 8 B per entry and per row, wherever
the shard keeps them), so every RPC count and virtual second is the one a
gathering server would produce.  An outstanding selection stays valid
because a commit swaps in a new arena and a new degree table (the arena
references its table) and never writes the old ones: a stage writes its
rows only past the fill of the arena's buffer, which every existing arena
reads below (:class:`~repro.storage.neighbor_batch.RowBuffer`).

A :class:`VertexProp` is the same selection returned by a local
(shared-memory) fetch.  This mirrors the paper's optimization of passing
"a vector of shared pointers of VertexProp across the C++ and Python
layers for local fetching, without taking ownership of the original
data": on the modelled wire it is one tensor of 16-byte pointers, one per
requested row plus the vector's own.
"""

from __future__ import annotations

import numpy as np

from repro.storage.neighbor_batch import NeighborBatch

_INDPTR = np.dtype(np.int64)
#: a weighted degree: per entry and per row on the wire, wherever stored
_DEGREE = np.dtype(np.float64)
#: a shared pointer: the VertexProp handoff's element
_POINTER = np.dtype((np.void, 16))


class RowSelection:
    """Rows ``rows`` of the frozen arena ``arena``, in request order."""

    __slots__ = ("arena", "rows", "_extent")

    def __init__(self, arena: NeighborBatch, rows: np.ndarray) -> None:
        self.arena = arena
        self.rows = rows
        self._extent = None

    def extent(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(starts, counts, n_entries)``: where each selected row begins
        in the arena's flat columns, its length, and their total — read
        from the arena's extents on first use (pricing or gathering),
        then kept.  The value is a pure function of the frozen arena, so
        a serving and a consuming thread that race here only compute it
        twice."""
        if self._extent is None:
            starts, counts = self.arena.row_extents(self.rows)
            self._extent = (starts, counts, int(counts.sum()))
        return self._extent

    @property
    def n_sources(self) -> int:
        return len(self.rows)

    @property
    def n_entries(self) -> int:
        return self.extent()[2]

    def to_arrays(self):
        """Materialize ``(indptr, ids, w, wdeg, src_wdeg)``.

        Zero-copy slices of the arena when the rows are one ascending run,
        else one gather — see :meth:`NeighborBatch.take_rows`.
        """
        return self.arena.take_rows(self.rows).to_arrays()

    def rpc_tensors(self):
        """``(dtype, nbytes)`` of each of the gathered batch's 5 tensors."""
        n, e = len(self.rows), self.n_entries
        a = self.arena
        return ((_INDPTR, 8 * (n + 1)), (a.ids.dtype, e * a.ids.itemsize),
                (a.weights.dtype, e * a.weights.itemsize),
                (_DEGREE, e * _DEGREE.itemsize),
                (_DEGREE, n * _DEGREE.itemsize))


class VertexProp(RowSelection):
    """A local fetch's rows: views over the caller's own shard arena."""

    __slots__ = ()

    def rpc_tensors(self):
        """Pointer-passing: one small tensor of pointers, not the rows.

        VertexProp never crosses machines in the engine; if it ever did, the
        cost model would still see a tiny control payload rather than the
        (unsent) underlying arrays.
        """
        return ((_POINTER, 16 * (len(self.rows) + 1)),)


def gather_rows(responses: list) -> tuple:
    """The rows of every response, in list order, gathered once:
    ``(indptr, ids, w, wdeg, src_wdeg)``.

    A Forward-Push round's one gather: each selection's rows are read
    straight from its arena into the round buffers; any other
    ``to_arrays()`` response (``NeighborLists``) contributes its rows as
    they are.  A single response is its own ``to_arrays()`` — zero-copy
    slices when its rows are one ascending run.
    """
    if len(responses) == 1:
        return responses[0].to_arrays()
    parts = [r if isinstance(r, RowSelection) else
             RowSelection(NeighborBatch(*r.to_arrays(), check=False),
                          np.arange(r.n_sources))
             for r in responses]
    extents = [part.extent() for part in parts]
    # repro: allow=REP011 the round gather copies each fetched row once
    starts = np.concatenate([extent[0] for extent in extents])
    row_counts = np.concatenate([extent[1] for extent in extents])  # repro: allow=REP011
    n_rows = len(row_counts)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    n_entries = int(indptr[-1])
    # repro: allow=REP011 the round gather's flat index into each arena
    idx = np.repeat(starts - indptr[:-1], row_counts)
    idx += np.arange(n_entries)
    ids = np.empty(n_entries, dtype=np.int64)
    w = np.empty(n_entries)
    wdeg = np.empty(n_entries)
    src_wdeg = np.empty(n_rows)
    r0 = e0 = 0
    for part, (_, _, n) in zip(parts, extents):
        r1, e1 = r0 + len(part.rows), e0 + n
        at = idx[e0:e1]
        arena = part.arena
        arena.ids.take(at, out=ids[e0:e1], mode="clip")
        arena.weights.take(at, out=w[e0:e1], mode="clip")
        if arena.degrees is None:
            arena.wdeg.take(at, out=wdeg[e0:e1], mode="clip")
            arena.src_wdeg.take(part.rows, out=src_wdeg[r0:r1], mode="clip")
        else:  # a shard's arena: the degrees are one take from its table
            arena.degrees.take(ids[e0:e1], out=wdeg[e0:e1], mode="clip")
            arena.degrees.take(arena.src_ids.take(part.rows),
                               out=src_wdeg[r0:r1], mode="clip")
        r0, e0 = r1, e1
    return indptr, ids, w, wdeg, src_wdeg
